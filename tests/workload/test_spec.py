"""Tests for the declarative workload axis (specs, binding to a run, cache keys)."""

import itertools
import os
import pickle
import resource

import pytest

from repro.experiments.scenario import Scenario
from repro.workload.arrivals import MarkovModulatedArrivals, PoissonArrivals
from repro.workload.params import WorkloadParams
from repro.workload.spec import (
    OpenLoopSpec,
    SyntheticSpec,
    TraceReplaySpec,
    WorkloadSpec,
)

from tests.workload.swf_oracle import read_swf

PARAMS = WorkloadParams(num_processes=4, num_resources=8, phi=3, rho=2.0, seed=11)
MINI = os.path.join(os.path.dirname(__file__), "data", "mini.swf")


class TestSyntheticSpec:
    def test_closed_loop(self):
        assert SyntheticSpec().build(PARAMS).closed_loop is True

    def test_expected_requests_defaults_to_none(self):
        """None keeps the legacy event-valve formula bit-identical."""
        assert SyntheticSpec().build(PARAMS).expected_requests() is None


class TestScenarioKeyNeutrality:
    """Scenarios written before the workload axis keep their cache keys."""

    def test_bare_params_normalises_to_synthetic(self):
        scenario = Scenario(algorithm="with_loan", params=PARAMS)
        assert scenario.normalized().workload == SyntheticSpec()

    def test_explicit_synthetic_spec_is_key_neutral(self):
        bare = Scenario(algorithm="with_loan", params=PARAMS)
        explicit = Scenario(algorithm="with_loan", params=PARAMS, workload=SyntheticSpec())
        assert bare.key() == explicit.key()

    def test_chunking_fields_are_key_neutral_at_defaults(self):
        bare = Scenario(algorithm="with_loan", params=PARAMS)
        defaulted = Scenario(algorithm="with_loan", params=PARAMS, record_chunk_rows=None)
        assert bare.key() == defaulted.key()

    def test_chunking_changes_the_key_when_set(self):
        bare = Scenario(algorithm="with_loan", params=PARAMS)
        chunked = Scenario(algorithm="with_loan", params=PARAMS, record_chunk_rows=256)
        assert bare.key() != chunked.key()

    def test_open_loop_changes_the_key(self):
        bare = Scenario(algorithm="with_loan", params=PARAMS)
        open_loop = Scenario(algorithm="with_loan", params=PARAMS, workload=OpenLoopSpec())
        assert bare.key() != open_loop.key()

    def test_workload_must_be_a_spec(self):
        with pytest.raises(TypeError):
            Scenario(algorithm="with_loan", params=PARAMS, workload="poisson")


class TestOpenLoopSpec:
    def test_arrival_must_be_an_arrival_spec(self):
        with pytest.raises(TypeError):
            OpenLoopSpec(arrival="poisson")

    def test_open_loop_flag(self):
        assert OpenLoopSpec().build(PARAMS).closed_loop is False

    def test_streams_deterministic(self):
        spec = OpenLoopSpec(arrival=MarkovModulatedArrivals(rate=0.1))
        a = list(itertools.islice(spec.build(PARAMS).stream_for(1), 40))
        b = list(itertools.islice(spec.build(PARAMS).stream_for(1), 40))
        assert a == b

    def test_request_shapes_independent_of_arrival_family(self):
        """Swapping the arrival process only re-times requests.

        Sizes, resource picks and CS durations come from dedicated RNG
        streams, so the burstiness ablation compares identically shaped
        request sequences.
        """
        poisson = OpenLoopSpec(arrival=PoissonArrivals(rate=0.1)).build(PARAMS)
        bursty = OpenLoopSpec(arrival=MarkovModulatedArrivals(rate=0.1)).build(PARAMS)
        a = list(itertools.islice(poisson.stream_for(0), 40))
        b = list(itertools.islice(bursty.stream_for(0), 40))
        assert [r.resources for r in a] == [r.resources for r in b]
        assert [r.cs_duration for r in a] == [r.cs_duration for r in b]
        assert [r.think_time for r in a] != [r.think_time for r in b]

    def test_processes_have_independent_streams(self):
        wl = OpenLoopSpec().build(PARAMS)
        a = list(itertools.islice(wl.stream_for(0), 20))
        b = list(itertools.islice(wl.stream_for(1), 20))
        assert [r.think_time for r in a] != [r.think_time for r in b]

    def test_expected_requests_scales_with_rate_and_duration(self):
        wl = OpenLoopSpec(arrival=PoissonArrivals(rate=0.01)).build(PARAMS)
        expected = wl.expected_requests()
        assert expected == pytest.approx(
            PARAMS.num_processes * PARAMS.duration * 0.01, rel=0.01
        )

    def test_out_of_range_process_rejected(self):
        wl = OpenLoopSpec().build(PARAMS)
        with pytest.raises(ValueError):
            next(wl.stream_for(PARAMS.num_processes))

    def test_million_request_stream_is_flat_memory(self):
        """Acceptance: a 10^6-request open-loop stream never materialises.

        Scaled down via REPRO_LAZY_DRAWS for quick local loops; CI runs
        the full million.
        """
        draws = int(os.environ.get("REPRO_LAZY_DRAWS", "1000000"))
        params = WorkloadParams(
            num_processes=2, num_resources=16, phi=4, rho=2.0, duration=1e12
        )
        stream = OpenLoopSpec(arrival=PoissonArrivals(rate=1.0)).build(params).stream_for(0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        count = sum(1 for _ in itertools.islice(stream, draws))
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert count == draws
        growth_mb = (after - before) / 1024.0
        # Materialising the stream would cost hundreds of MB; the lazy
        # generator holds one RequestSpec at a time.
        assert growth_mb < 50.0, f"stream not lazy: RSS grew {growth_mb:.0f} MB"


class TestTraceReplaySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceReplaySpec(path="")
        with pytest.raises(ValueError):
            TraceReplaySpec(path=MINI, time_scale=0.0)
        with pytest.raises(ValueError):
            TraceReplaySpec(path=MINI, max_jobs=0)

    def test_round_robin_covers_every_job_once(self):
        spec = TraceReplaySpec(path=MINI)
        wl = spec.build(PARAMS)
        total = [r for p in range(PARAMS.num_processes) for r in wl.stream_for(p)]
        assert len(total) == 5
        assert wl.expected_requests() == 5

    def test_max_jobs_caps_replay(self):
        wl = TraceReplaySpec(path=MINI, max_jobs=2).build(PARAMS)
        total = [r for p in range(PARAMS.num_processes) for r in wl.stream_for(p)]
        assert len(total) == 2
        assert wl.expected_requests() == 2

    def test_gaps_follow_rebased_submit_times(self):
        """First arrival of the stream lands at (submit - first_submit) * scale."""
        one_process = WorkloadParams(
            num_processes=1, num_resources=8, phi=3, rho=2.0, seed=11
        )
        wl = TraceReplaySpec(path=MINI, time_scale=2.0).build(one_process)
        specs = list(wl.stream_for(0))
        arrivals = list(itertools.accumulate(r.think_time for r in specs))
        # mini.swf submit times: 0, 5, 5, 12, 20 -> doubled.
        assert arrivals == pytest.approx([0.0, 10.0, 10.0, 24.0, 40.0])

    def test_runtime_becomes_cs_duration(self):
        one_process = WorkloadParams(
            num_processes=1, num_resources=8, phi=3, rho=2.0, seed=11
        )
        wl = TraceReplaySpec(path=MINI).build(one_process)
        specs = list(wl.stream_for(0))
        assert specs[0].cs_duration == pytest.approx(10.0)
        # Job 4 has run_time 0 -> synthetic size-dependent fallback.
        assert specs[3].cs_duration > 0.0

    def test_a_run_parses_the_trace_once(self, monkeypatch):
        """N streams and the event valve share one parse of the file."""
        from repro.experiments.runner import run
        from repro.workload import swf

        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(swf, "open", counting_open, raising=False)
        params = WorkloadParams(
            num_processes=8, num_resources=8, phi=3, seed=11, duration=5_000.0, warmup=0.0
        )
        result = run(Scenario("with_loan", params, workload=TraceReplaySpec(path=MINI)))
        assert result.metrics.completed == 5
        assert opened == [MINI]

    def test_streams_match_a_pass_over_the_job_records(self):
        """Row ``[p::N]`` of the columns is process p's round-robin share."""
        jobs = list(read_swf(MINI))
        wl = TraceReplaySpec(path=MINI, time_scale=0.5).build(PARAMS)
        for process in range(PARAMS.num_processes):
            mine = jobs[process :: PARAMS.num_processes]
            specs = list(wl.stream_for(process))
            assert [r.index for r in specs] == list(range(len(mine)))
            arrivals = list(itertools.accumulate(r.think_time for r in specs))
            assert arrivals == [j.submit_time * 0.5 for j in mine]
            assert [len(r.resources) for r in specs] == [
                min(PARAMS.phi, j.procs.bit_length()) for j in mine
            ]

    def test_malformed_line_raises_from_the_stream(self, tmp_path):
        bad = tmp_path / "bad.swf"
        bad.write_text("1 0 0 5 4 -1 -1 4\n2 3 0 bogus 4\n")
        wl = TraceReplaySpec(path=str(bad)).build(PARAMS)
        with pytest.raises(ValueError, match="line 2.*'run_time'"):
            next(wl.stream_for(0))

    def test_missing_file_raises_at_build(self):
        with pytest.raises(FileNotFoundError):
            TraceReplaySpec(path="/nonexistent/trace.swf").build(PARAMS)

    def test_key_is_content_addressed(self, tmp_path):
        """Identical bytes at different paths share a key; an edit changes it."""
        copy1 = tmp_path / "a.swf"
        copy2 = tmp_path / "sub" / "b.swf"
        copy2.parent.mkdir()
        data = open(MINI).read()
        copy1.write_text(data)
        copy2.write_text(data)
        key = lambda p: Scenario(
            algorithm="with_loan", params=PARAMS, workload=TraceReplaySpec(path=str(p))
        ).key()
        assert key(copy1) == key(copy2)
        copy1.write_text(data + "\n42 999 0 5 2 -1 -1 2 10 -1 1 1 1 1 1 -1 -1 -1\n")
        assert key(copy1) != key(copy2)

    def test_missing_file_fails_at_key_time(self):
        scenario = Scenario(
            algorithm="with_loan",
            params=PARAMS,
            workload=TraceReplaySpec(path="/nonexistent/trace.swf"),
        )
        with pytest.raises(FileNotFoundError):
            scenario.key()


class TestTransport:
    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(),
            OpenLoopSpec(),
            OpenLoopSpec(arrival=MarkovModulatedArrivals(rate=0.2, burst_factor=4.0)),
            TraceReplaySpec(path=MINI, time_scale=0.5, max_jobs=3),
        ],
    )
    def test_specs_pickle_roundtrip(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert isinstance(clone, WorkloadSpec)
        hash(clone)
