"""Tests for chunked record collection (O(chunk) memory for long runs)."""

import pickle

import pytest

from repro.experiments.scenario import Scenario
from repro.experiments.runner import run
from repro.metrics.collector import MetricsCollector
from repro.metrics.columns import ChunkedColumns, RecordColumns
from repro.workload.arrivals import PoissonArrivals
from repro.workload.params import WorkloadParams
from repro.workload.spec import OpenLoopSpec
from tests.metrics.test_columns import check_codec

PARAMS = WorkloadParams(
    num_processes=4, num_resources=8, phi=3, rho=2.0, duration=800.0, warmup=80.0, seed=3
)


def drive(collector, n, overlap=0):
    """Feed ``n`` sequential single-resource lifecycles through the collector.

    ``overlap`` keeps that many trailing requests issued-but-unreleased,
    holding the completed prefix back.
    """
    t = 0.0
    for i in range(n):
        collector.on_issue(t, 0, i, frozenset({0}))
        collector.on_grant(t + 1.0, 0, i)
        if i < n - overlap:
            collector.on_release(t + 2.0, 0, i)
        else:
            # Must release resource 0 for the next same-resource grant to
            # pass the safety check; use abort to free without completing.
            collector.on_abort(t + 2.0, 0, i)
        t += 3.0


class TestCollectorChunking:
    def test_chunk_rows_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsCollector(num_resources=2, chunk_rows=0)

    def test_live_rows_bounded_by_chunk_size(self):
        c = MetricsCollector(num_resources=2, chunk_rows=16)
        drive(c, 500)
        assert c.max_live_rows <= 16 + 1  # one in-flight request at a time

    def test_only_the_sealed_buffers_grow_with_the_run(self):
        """The memory contract: per request, a chunked collector keeps the
        three sealed sample values and its share of a packed chunk — no
        other attribute may hold anything per request."""

        def sizes(n):
            c = MetricsCollector(num_resources=2, chunk_rows=16)
            drive(c, n)
            return {
                name: len(value) for name, value in vars(c).items() if hasattr(value, "__len__")
            }

        small, large = sizes(200), sizes(2000)
        grew = {name for name in large if large[name] > small[name]}
        assert grew == {
            "_sealed_waits", "_sealed_issues", "_sealed_sizes", "_sealed_chunks", "_sealed_lengths",
        }

    def test_unchunked_live_rows_grow_without_bound(self):
        c = MetricsCollector(num_resources=2)
        drive(c, 500)
        assert c.max_live_rows == 500

    def test_result_columns_preserves_every_row(self):
        c = MetricsCollector(num_resources=2, chunk_rows=16)
        drive(c, 100)
        cols = c.result_columns()
        assert isinstance(cols, ChunkedColumns)
        assert len(cols) == 100
        assert [cols[i].index for i in range(100)] == list(range(100))

    def test_incomplete_rows_hold_the_prefix(self):
        c = MetricsCollector(num_resources=2, chunk_rows=4)
        drive(c, 20, overlap=3)
        assert c.incomplete_requests() == [(0, 17), (0, 18), (0, 19)]
        cols = c.result_columns()
        assert len(cols) == 20

    def test_metrics_identical_to_unchunked(self):
        plain = MetricsCollector(num_resources=2, warmup=10.0)
        chunked = MetricsCollector(num_resources=2, warmup=10.0, chunk_rows=8)
        drive(plain, 200)
        drive(chunked, 200)
        a = plain.build("x", horizon=600.0)
        b = chunked.build("x", horizon=600.0)
        assert a == b

    def test_waiting_times_include_sealed_rows(self):
        c = MetricsCollector(num_resources=2, warmup=0.0, chunk_rows=8)
        drive(c, 100)
        metrics = c.build("x", horizon=600.0)
        assert metrics.waiting.count == 100
        assert sum(s.count for s in metrics.waiting_by_size.values()) == 100


class TestEndToEndChunking:
    """run(Scenario(record_chunk_rows=...)) against the unchunked baseline."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return run(Scenario(algorithm="with_loan", params=PARAMS))

    def test_run_metrics_bit_identical(self, baseline):
        chunked = run(
            Scenario(algorithm="with_loan", params=PARAMS, record_chunk_rows=32)
        )
        assert chunked.metrics == baseline.metrics

    def test_records_match_as_multisets(self, baseline):
        """Chunked columns are issue-ordered, unchunked are (process, index)-sorted."""
        chunked = run(
            Scenario(algorithm="with_loan", params=PARAMS, record_chunk_rows=32)
        )
        key = lambda r: (r.process, r.index)
        assert sorted(chunked.record_columns, key=key) == sorted(
            baseline.record_columns, key=key
        )

    def test_open_loop_run_seals_as_it_goes(self):
        """Every chunk stays near the configured size: the collector sealed
        during the run instead of accumulating it all in live columns."""
        chunk_rows = 32
        result = run(
            Scenario(
                algorithm="with_loan",
                params=PARAMS,
                workload=OpenLoopSpec(arrival=PoissonArrivals(rate=0.05)),
                record_chunk_rows=chunk_rows,
            )
        )
        assert result.metrics.completed == result.metrics.issued
        assert result.metrics.issued > 3 * chunk_rows  # sealing genuinely exercised
        assert max(result.record_columns.chunk_lengths()) <= 2 * chunk_rows

    def test_chunked_columns_pickle_roundtrip(self):
        result = run(
            Scenario(algorithm="with_loan", params=PARAMS, record_chunk_rows=32)
        )
        cols = result.record_columns
        clone = pickle.loads(pickle.dumps(cols))
        assert clone == cols
        assert clone.content_key() == cols.content_key()
        assert len(clone) == len(cols)


    def test_sealed_chunks_meet_the_codec_contract(self):
        """Each chunk is sealed by the fitted encoder: it reads back through
        the unchanged decoder chain, as does the fixed-preset encoding of
        the same rows, and is no larger than that reference."""
        result = run(
            Scenario(algorithm="with_loan", params=PARAMS, record_chunk_rows=16)
        )
        cols = result.record_columns
        assert cols.chunk_count > 3
        for i in range(cols.chunk_count):
            check_codec(cols.chunk(i))

    def test_empty_chunked_container_pickles(self):
        empty = ChunkedColumns([], [])
        clone = pickle.loads(pickle.dumps(empty))
        assert clone == empty and len(clone) == 0


class TestChunkedColumnsContainer:
    def make(self, lengths):
        entries = []
        start = 0
        for n in lengths:
            cols = RecordColumns(time_typecode="f")
            for i in range(start, start + n):
                cols.process.append(0)
                cols.index.append(i)
                cols.issue.append(float(i))
                cols.grant.append(float(i) + 1.0)
                cols.release.append(float(i) + 2.0)
                cols.resource_ids.append(i % 4)
                cols.offsets.append(len(cols.resource_ids))
            entries.append(cols._packed())
            start += n
        return ChunkedColumns(entries, list(lengths))

    def test_len_and_indexing_across_chunks(self):
        cols = self.make([3, 4, 2])
        assert len(cols) == 9
        assert cols.chunk_count == 3
        assert cols.chunk_lengths() == (3, 4, 2)
        assert [cols[i].index for i in range(9)] == list(range(9))
        assert cols[-1].index == 8

    def test_slicing_and_iteration(self):
        cols = self.make([3, 4, 2])
        assert [r.index for r in cols[2:6]] == [2, 3, 4, 5]
        assert [r.index for r in cols] == list(range(9))
        assert len(list(cols)) == 9

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            self.make([2])[5]

    def test_to_columns_flattens(self):
        flat = self.make([3, 4, 2]).to_columns()
        assert isinstance(flat, RecordColumns)
        assert len(flat) == 9

    def test_content_key_distinguishes_boundaries(self):
        """Chunk boundaries are part of the content identity (documented)."""
        assert self.make([4, 4]).content_key() != self.make([8]).content_key()
        assert self.make([4, 4]).content_key() == self.make([4, 4]).content_key()

    def test_equality(self):
        assert self.make([3, 3]) == self.make([3, 3])
        assert self.make([3, 3]) != self.make([3, 2])
