"""Unit tests for the struct-of-arrays record container."""

import lzma
import math
import pickle

import pytest

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.metrics import columns
from repro.metrics.columns import RecordColumns, RequestRecord, _rebuild_columns
from repro.workload.params import WorkloadParams

#: The fixed-preset encoder every release up to PR 15 used, kept as the
#: reference implementation: its blobs are what older cache directories
#: hold, and its output length is the size contract of the fitted encoder.
REFERENCE_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 6}]


def check_codec(cols, raw_bytes=None):
    """The codec contract on one container; returns the raw payload length.

    Round trip through pickle; the blob decodes with the unchanged
    ``_LZMA_FILTERS`` chain; so does the reference encoder's blob of the
    same payload; and the fitted encoder's output is no longer than the
    reference's by more than 0.5 %.
    """
    assert pickle.loads(pickle.dumps(cols)) == cols
    *head, blob = cols._packed()
    raw = lzma.decompress(blob, format=lzma.FORMAT_RAW, filters=columns._LZMA_FILTERS)
    if raw_bytes is not None:
        assert len(raw) == raw_bytes
    reference = lzma.compress(raw, format=lzma.FORMAT_RAW, filters=REFERENCE_FILTERS)
    assert _rebuild_columns(*head, reference) == cols
    assert len(blob) <= len(reference) * 1.005
    return len(raw)


def sample_records():
    return [
        RequestRecord(
            process=0, index=0, resources=frozenset({0, 3}), issue_time=1.5,
            grant_time=2.25, release_time=7.125,
        ),
        RequestRecord(
            process=1, index=0, resources=frozenset({2}), issue_time=1.75,
            grant_time=3.5, release_time=None,  # granted, never released
        ),
        RequestRecord(
            process=0, index=1, resources=frozenset({1, 2, 4}), issue_time=8.0,
            grant_time=None, release_time=None,  # never granted
        ),
    ]


class TestRoundTrip:
    def test_from_records_iteration_equality(self):
        records = sample_records()
        cols = RecordColumns.from_records(records, time_typecode="d")
        assert len(cols) == 3
        assert list(cols) == records

    def test_getitem_indexing_slicing_negative(self):
        records = sample_records()
        cols = RecordColumns.from_records(records, time_typecode="d")
        assert cols[0] == records[0]
        assert cols[-1] == records[-1]
        assert cols[0:2] == records[0:2]
        with pytest.raises(IndexError):
            cols[3]
        with pytest.raises(IndexError):
            cols[-4]

    def test_views_expose_request_record_api(self):
        cols = RecordColumns.from_records(sample_records(), time_typecode="d")
        rec = cols[0]
        assert rec.size == 2
        assert rec.waiting_time == pytest.approx(0.75)
        assert rec.completed
        assert cols[2].waiting_time is None
        assert not cols[1].completed

    def test_incremental_append_matches_from_records(self):
        cols = RecordColumns(time_typecode="d")
        row = cols.append(5, 0, frozenset({1, 2}), 10.0)
        assert cols.grant_time(row) is None and cols.release_time(row) is None
        cols.grant[row] = 11.0
        cols.release[row] = 12.0
        assert cols[row] == RequestRecord(5, 0, frozenset({1, 2}), 10.0, 11.0, 12.0)
        assert cols[row].size == 2
        assert cols.resources_of(row) == frozenset({1, 2})


class TestRangeCopy:
    """``rows`` / ``extend`` against the row-by-row ``from_records`` oracle."""

    @pytest.mark.parametrize("typecode", ["d", "f"])
    def test_rows_equals_the_row_by_row_copy(self, typecode):
        records = sample_records()
        cols = RecordColumns.from_records(records, time_typecode="d")
        for start in range(len(records) + 1):
            for stop in range(start, len(records) + 1):
                expected = RecordColumns.from_records(records[start:stop], time_typecode=typecode)
                assert cols.rows(start, stop, typecode) == expected

    def test_rows_is_a_copy(self):
        cols = RecordColumns.from_records(sample_records(), time_typecode="d")
        part = cols.rows(1, 3, "d")
        part.grant[0] = 99.0
        assert cols.grant[1] == 3.5

    def test_extend_concatenates_and_rebases_offsets(self):
        records = sample_records()
        out = RecordColumns.from_records(records[:1], time_typecode="f")
        out.extend(RecordColumns.from_records(records[1:], time_typecode="d"))
        assert out == RecordColumns.from_records(records, time_typecode="f")


class TestPickle:
    def test_pickle_round_trip_equality(self):
        cols = RecordColumns.from_records(sample_records(), time_typecode="d")
        clone = pickle.loads(pickle.dumps(cols))
        assert clone == cols
        assert list(clone) == list(cols)
        assert clone.content_key() == cols.content_key()

    def test_pickle_round_trip_float32(self):
        cols = RecordColumns.from_records(sample_records(), time_typecode="f")
        clone = pickle.loads(pickle.dumps(cols))
        assert clone == cols
        assert clone.time_typecode == "f"

    def test_pickle_preserves_nan_sentinels(self):
        cols = RecordColumns.from_records(sample_records(), time_typecode="d")
        clone = pickle.loads(pickle.dumps(cols))
        assert math.isnan(clone.grant[2]) and math.isnan(clone.release[2])
        assert clone[2].grant_time is None

    def test_pickle_smaller_than_record_list(self):
        records = [
            RequestRecord(p, i, frozenset({p, (p + i) % 7}), float(i), float(i) + 0.5, float(i) + 1.5)
            for p in range(4)
            for i in range(50)
        ]
        cols = RecordColumns.from_records(records)
        assert len(pickle.dumps(cols)) < len(pickle.dumps(records)) / 3

    def test_pickle_wide_values_round_trip(self):
        """Columns that do not fit narrow machine types fall back safely."""
        records = [
            RequestRecord(70_000, 9, frozenset({300, 1 << 40}), 1.0, 2.0, 3.0),
            RequestRecord(-3, 1 << 33, frozenset({2}), 4.0, None, None),
        ]
        cols = RecordColumns.from_records(records, time_typecode="d")
        assert list(pickle.loads(pickle.dumps(cols))) == records

    def test_pickle_elides_closed_loop_indexes(self):
        """Consecutive per-process indexes are rebuilt, not transported."""
        canonical = [
            RequestRecord(p, i, frozenset({p}), float(10 * p + i), None, None)
            for p in range(3)
            for i in range(4)
        ]
        cols = RecordColumns.from_records(canonical, time_typecode="d")
        assert cols._index_is_canonical()
        assert list(pickle.loads(pickle.dumps(cols))) == canonical
        gapped = RecordColumns.from_records(
            [RequestRecord(0, 7, frozenset({1}), 1.0, None, None)], time_typecode="d"
        )
        assert not gapped._index_is_canonical()
        assert pickle.loads(pickle.dumps(gapped)).index[0] == 7


#: The ``reproduce_results.py --quick`` workload (8 processes, 20
#: resources), the reference configuration of the transport contracts.
QUICK_RUN = WorkloadParams(
    num_processes=8, num_resources=20, phi=4, duration=1_200.0, warmup=150.0, seed=1,
)

#: Contractual floor for legacy-record-list bytes / columnar bytes.
MIN_PAYLOAD_SHRINK = 5.0


@pytest.fixture(scope="module")
def quick_result():
    return run(Scenario(algorithm="with_loan", params=QUICK_RUN))


class TestResultTransport:
    """What one quick run's result costs to ship between processes."""

    def test_records_payload_shrinks_at_least_5x(self, quick_result):
        """Columnar records pickle >= 5x smaller than the record list they replaced."""
        protocol = pickle.HIGHEST_PROTOCOL
        columnar = len(pickle.dumps(quick_result.record_columns, protocol=protocol))
        legacy = len(pickle.dumps(list(quick_result.record_columns), protocol=protocol))
        assert legacy / columnar >= MIN_PAYLOAD_SHRINK, (
            f"records payload shrank only {legacy / columnar:.2f}x "
            f"(contract: >= {MIN_PAYLOAD_SHRINK}x): {columnar} vs {legacy} legacy bytes"
        )

    def test_round_trip_runs_one_fitted_encoder_and_one_decoder(
        self, quick_result, count_work, monkeypatch
    ):
        """Pickling packs once with the 256 KiB-dictionary chain; unpickling decodes once.

        The bare preset's 8 MiB dictionary builds a 16 MiB hash table per
        encoder (see :func:`columns._encoder_filters`); an encoder given
        ``_LZMA_FILTERS`` fails here.  The codec calls are C calls no
        call counter sees, so each goes through a recording wrapper.
        """
        encoded, decoded = [], []
        compress, decompress = lzma.compress, lzma.decompress

        def recording_compress(data, **kwargs):
            encoded.append((len(data), kwargs["filters"]))
            return compress(data, **kwargs)

        def recording_decompress(data, **kwargs):
            decoded.append(kwargs["filters"])
            return decompress(data, **kwargs)

        monkeypatch.setattr(lzma, "compress", recording_compress)
        monkeypatch.setattr(lzma, "decompress", recording_decompress)
        codecs = (
            count_work.code_key(recording_compress), count_work.code_key(recording_decompress)
        )

        blob, packing = count_work.count_calls(pickle.dumps, quick_result, pickle.HIGHEST_PROTOCOL)
        clone, unpacking = count_work.count_calls(pickle.loads, blob)
        assert clone.record_columns == quick_result.record_columns
        assert [count_work.by_function(packing)[key] for key in codecs] == [1, 0]
        assert [count_work.by_function(unpacking)[key] for key in codecs] == [0, 1]
        ((raw_bytes, filters),) = encoded
        assert filters == columns._encoder_filters(raw_bytes)
        assert filters[0]["dict_size"] == 256 << 10
        assert decoded == [columns._LZMA_FILTERS]


def sized_columns(rows):
    """``rows`` rows that pack to exactly 16 raw bytes each.

    Three float32 times (12 B) plus one byte each for ``process``, a
    non-canonical ``index`` (so it is not elided), the per-row size and
    the single resource id.
    """
    cols = RecordColumns(time_typecode="f")
    for i in range(rows):
        row = cols.append(i % 32, 5, (i * 7 % 80,), i * 0.37)
        cols.grant[row] = cols.issue[row] + (i * 7919 % 101) / 10
        cols.release[row] = cols.grant[row] + (i * 104729 % 53) / 7
    return cols


class TestFittedEncoder:
    """The encoder's dictionary follows the payload; the format does not change."""

    FLOOR_ROWS = columns._DICT_FLOOR // 16

    @pytest.mark.parametrize(
        "rows",
        [FLOOR_ROWS - 1, FLOOR_ROWS, FLOOR_ROWS + 1, 2 * FLOOR_ROWS, 4 * FLOOR_ROWS],
        ids=["below", "at", "above", "x2", "x4"],
    )
    def test_payloads_around_the_floor(self, rows):
        assert 4 * self.FLOOR_ROWS * 16 <= 1 << 20  # largest case stays ~1 MiB
        check_codec(sized_columns(rows), raw_bytes=rows * 16)

    def test_empty_container(self):
        assert check_codec(RecordColumns()) == 0

    def test_all_nan_grant_and_release(self):
        cols = RecordColumns(time_typecode="d")
        for i in range(300):
            cols.append(i % 4, i // 4, (i % 5, 7), float(i))
        assert all(math.isnan(v) for v in cols.grant)
        check_codec(cols)
        assert all(math.isnan(v) for v in pickle.loads(pickle.dumps(cols)).release)

    def test_wide_value_columns(self):
        cols = RecordColumns(time_typecode="d")
        for i in range(300):
            row = cols.append(-1 - i, (1 << 40) + 3 * i, ((1 << 35) + i, i), float(i))
            cols.grant[row] = float(i) + 0.5
        *_, int_typecodes, _ = cols._packed()
        assert int_typecodes == "qQBQ"
        check_codec(cols)

    def test_dictionary_formula(self):
        """Smallest power of two holding the payload, floor <= d <= preset's."""
        floor, cap = columns._DICT_FLOOR, columns._DICT_CAP

        def dict_size(nbytes):
            (chain,) = columns._encoder_filters(nbytes)
            assert chain["id"] == lzma.FILTER_LZMA2 and chain["preset"] == 6
            return chain["dict_size"]

        assert dict_size(0) == dict_size(1) == dict_size(floor - 1) == dict_size(floor) == floor
        assert dict_size(floor + 1) == 2 * floor
        assert dict_size(1 << 20) == 1 << 20 and dict_size((1 << 20) + 1) == 1 << 21
        assert dict_size(cap - 1) == dict_size(cap) == dict_size(cap + 1) == dict_size(1 << 40) == cap
        for nbytes in range(0, 3 * floor, 4093):
            d = dict_size(nbytes)
            assert d & (d - 1) == 0 and floor <= d <= cap and d >= nbytes

    def test_cap_is_the_presets_own_dictionary(self):
        """At the cap the chain *is* preset 6, so large payloads pack as before."""
        (capped,) = columns._encoder_filters(columns._DICT_CAP)
        assert lzma._encode_filter_properties(capped) == lzma._encode_filter_properties(
            columns._LZMA_FILTERS[0]
        )

    def test_decoder_chain_is_the_bare_preset(self):
        assert columns._LZMA_FILTERS == REFERENCE_FILTERS
        assert columns.PACK_VERSION == 1


class TestEmpty:
    def test_empty_container(self):
        cols = RecordColumns()
        assert len(cols) == 0
        assert list(cols) == []
        assert list(cols.offsets) == [0]

    def test_empty_pickle_round_trip(self):
        cols = RecordColumns(time_typecode="d")
        clone = pickle.loads(pickle.dumps(cols))
        assert clone == cols and len(clone) == 0

    def test_empty_compact_and_content_key(self):
        cols = RecordColumns()
        assert len(cols.compact()) == 0
        assert cols.content_key() == RecordColumns().content_key()


class TestContentHash:
    def test_equal_content_equal_key(self):
        a = RecordColumns.from_records(sample_records(), time_typecode="d")
        b = RecordColumns.from_records(sample_records(), time_typecode="d")
        assert a == b
        assert a.content_key() == b.content_key()

    def test_key_changes_with_content(self):
        a = RecordColumns.from_records(sample_records(), time_typecode="d")
        b = RecordColumns.from_records(sample_records(), time_typecode="d")
        b.grant[2] = 99.0
        assert a != b
        assert a.content_key() != b.content_key()

    def test_time_typecode_is_part_of_identity(self):
        a = RecordColumns.from_records(sample_records(), time_typecode="d")
        b = RecordColumns.from_records(sample_records(), time_typecode="f")
        assert a.content_key() != b.content_key()


class TestCompact:
    def test_compact_sorts_by_process_index(self):
        cols = RecordColumns(time_typecode="d")
        cols.append(1, 0, frozenset({1}), 3.0)
        cols.append(0, 1, frozenset({2}), 2.0)
        cols.append(0, 0, frozenset({3}), 1.0)
        compacted = cols.compact(time_typecode="d")
        assert [(r.process, r.index) for r in compacted] == [(0, 0), (0, 1), (1, 0)]
        assert list(compacted.issue) == [1.0, 2.0, 3.0]

    def test_compact_float32_precision_contract(self):
        cols = RecordColumns(time_typecode="d")
        row = cols.append(0, 0, frozenset({1}), 1000.123456789)
        cols.grant[row] = 1001.987654321
        compacted = cols.compact()
        assert compacted.time_typecode == "f"
        # sub-microsecond at the simulated-millisecond scale
        assert compacted.issue[0] == pytest.approx(1000.123456789, abs=1e-3)
        assert compacted.grant[0] == pytest.approx(1001.987654321, abs=1e-3)

    def test_invalid_time_typecode_rejected(self):
        with pytest.raises(ValueError):
            RecordColumns(time_typecode="i")
