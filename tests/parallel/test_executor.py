"""Executor tests: ordering, caching, and serial/parallel determinism."""

import lzma
import os
import pickle
import subprocess
import sys

import pytest

from repro.experiments.figures import figure5_use_rate
from repro.experiments.scenario import Scenario
from repro.parallel.cache import RunCache
from repro.parallel.executor import SweepExecutor, run_sweep
from repro.sim.engine import SimulationError
from repro.sim.latencyspec import HierarchicalLatencySpec, UniformJitterLatencySpec
from repro.workload.params import LoadLevel, WorkloadParams


@pytest.fixture(scope="module")
def small_base():
    return WorkloadParams(
        num_processes=4,
        num_resources=8,
        phi=3,
        duration=500.0,
        warmup=50.0,
        seed=13,
    )


class TestSweepExecutor:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)

    def test_results_in_submission_order(self, small_base):
        specs = Scenario(algorithm="with_loan", params=small_base).sweep(seed=(1, 2, 3))
        results = run_sweep(specs)
        assert [r.params.seed for r in results] == [1, 2, 3]

    def test_cache_avoids_recomputation(self, small_base):
        cache = RunCache()
        executor = SweepExecutor(workers=1, cache=cache)
        specs = Scenario(algorithm="with_loan", params=small_base).sweep(seed=(1, 2))
        first = executor.run(specs)
        second = executor.run(specs)
        assert cache.hits == 2 and len(cache) == 2
        assert [r.metrics for r in first] == [r.metrics for r in second]

    def test_duplicate_specs_run_once_with_cache(self, small_base):
        cache = RunCache()
        executor = SweepExecutor(workers=1, cache=cache)
        spec = Scenario(algorithm="with_loan", params=small_base)
        results = executor.run([spec, spec, spec])
        assert len(cache) == 1
        assert results[0] is results[1] is results[2]

    def test_exceptions_propagate(self, small_base):
        # A scenario is validated at construction, so a failing job has to
        # fail inside run(): ten events cannot hold a 500 ms workload.
        spec = Scenario(algorithm="with_loan", params=small_base, max_events=10)
        with pytest.raises(SimulationError, match="max_events"):
            run_sweep([spec])


class TestSerialParallelDeterminism:
    def test_parallel_sweep_matches_serial(self, small_base):
        specs = Scenario(algorithm="with_loan", params=small_base).sweep(seed=(1, 2, 3, 4))
        serial = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=4)
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]
        assert [r.simulated_time for r in serial] == [r.simulated_time for r in parallel]
        assert [r.events_processed for r in serial] == [r.events_processed for r in parallel]

    def test_figure5_sweep_identical_workers_1_vs_4(self, small_base):
        kwargs = dict(
            load=LoadLevel.HIGH,
            base_params=small_base,
            phis=(1, 2, 4),
            algorithms=("bouabdallah", "with_loan"),
            seeds=(1, 2),
        )
        serial = figure5_use_rate(workers=1, **kwargs)
        parallel = figure5_use_rate(workers=4, **kwargs)
        assert serial.series == parallel.series
        assert [r.metrics for r in serial.results] == [r.metrics for r in parallel.results]

    def test_latency_sweep_identical_workers_1_vs_4(self, small_base):
        """Latency-model ablations ride the parallel executor bit-for-bit.

        Declarative latency specs thaw inside each worker, so a
        gamma-jitter / topology sweep is a pure function of its scenarios.
        """
        base = Scenario(algorithm="with_loan", params=small_base)
        grid = base.sweep(
            algorithm=("with_loan", "bouabdallah"),
            latency=(
                None,
                UniformJitterLatencySpec(jitter=0.3, seed=5),
                UniformJitterLatencySpec(jitter=0.8, seed=5),
                HierarchicalLatencySpec(gamma_remote=6.0, num_clusters=2),
            ),
        )
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=4)
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]
        assert [r.simulated_time for r in serial] == [r.simulated_time for r in parallel]
        assert [r.events_processed for r in serial] == [r.events_processed for r in parallel]
        # The sweep axis really changed the runs (jitter/topology matter).
        assert len({r.metrics.waiting.mean for r in serial[:4]}) > 1

    def test_records_bit_identical_workers_1_vs_4(self, small_base):
        """The columnar record payload is a pure function of the scenario.

        Serial results hold columns built in-process; parallel results
        are packed, shipped through the pool and unpacked — both must be
        byte-for-byte the same content.
        """
        base = Scenario(algorithm="with_loan", params=small_base)
        grid = base.sweep(algorithm=("with_loan", "bouabdallah"), seed=(1, 2))
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=4)
        for s, p in zip(serial, parallel):
            assert s.record_columns == p.record_columns
            assert s.record_columns.content_key() == p.record_columns.content_key()
            assert [
                (r.process, r.index, r.resources, r.issue_time, r.grant_time, r.release_time)
                for r in s.records
            ] == [
                (r.process, r.index, r.resources, r.issue_time, r.grant_time, r.release_time)
                for r in p.records
            ]

    def test_trace_stripped_across_worker_boundary(self, small_base):
        """TraceRecorder is process-local: in-process runs keep it, results
        shipped back from pool workers must not carry it."""
        scenarios = Scenario(
            algorithm="with_loan", params=small_base, collect_trace=True
        ).sweep(seed=(1, 2))
        (in_process, _) = run_sweep(scenarios, workers=1)
        assert in_process.trace is not None and len(in_process.trace.events()) > 0
        results = run_sweep(scenarios, workers=2)
        assert all(r.trace is None for r in results)

    def test_trace_never_enters_a_shared_cache(self, small_base):
        """A cache can serve entries across processes, so serial-computed
        results must be stripped on put — a later parallel sweep sharing
        the cache must not receive a trace-carrying hit."""
        cache = RunCache()
        scenarios = Scenario(
            algorithm="with_loan", params=small_base, collect_trace=True
        ).sweep(seed=(1, 2))
        serial = run_sweep(scenarios, workers=1, cache=cache)
        assert all(r.trace is None for r in serial)
        hits = run_sweep(scenarios, workers=4, cache=cache)
        assert cache.hits >= 2
        assert all(r.trace is None for r in hits)


class TestEncodeOnce:
    """A result is LZMA-packed once between the process that ran it and the disk cache."""

    @pytest.fixture
    def jobs(self, small_base):
        return Scenario(algorithm="with_loan", params=small_base).sweep(
            algorithm=("with_loan", "bouabdallah"), seed=(1, 2)
        )

    @pytest.fixture
    def encodes(self, monkeypatch):
        """Counts this process's ``lzma.compress`` calls (a pool worker
        counts in its own copy, which the parent never sees)."""
        calls = []
        compress = lzma.compress

        def counting(data, **kwargs):
            calls.append(len(data))
            return compress(data, **kwargs)

        monkeypatch.setattr(lzma, "compress", counting)
        return calls

    def test_parent_never_encodes_on_the_pool_path(self, jobs, tmp_path, encodes):
        cache = RunCache(path=tmp_path)
        results = SweepExecutor(workers=2, cache=cache).run(jobs)
        assert encodes == []
        assert len(list(cache.path.glob("*.pkl"))) == len(jobs) == len(results)

    def test_serial_path_encodes_once_per_job(self, jobs, tmp_path, encodes):
        SweepExecutor(workers=1, cache=RunCache(path=tmp_path)).run(jobs)
        assert len(encodes) == len(jobs)

    def test_memory_only_serial_sweep_never_encodes(self, jobs, encodes):
        SweepExecutor(workers=1, cache=RunCache()).run(jobs)
        assert encodes == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_entry_files_hold_the_returned_results(self, jobs, tmp_path, workers):
        cache = RunCache(path=tmp_path)
        traced = [job.replace(collect_trace=True) for job in jobs]
        results = SweepExecutor(workers=workers, cache=cache).run(traced)
        for job, result in zip(traced, results):
            with open(cache.path / f"{job.key()}.v2.pkl", "rb") as fh:
                stored = pickle.load(fh)
            assert stored.trace is None and result.trace is None
            assert stored == result
            assert stored.record_columns.content_key() == result.record_columns.content_key()

    def test_serial_and_pool_caches_are_interchangeable(self, jobs, tmp_path):
        serial, pooled = RunCache(path=tmp_path / "w1"), RunCache(path=tmp_path / "w2")
        SweepExecutor(workers=1, cache=serial).run(jobs)
        SweepExecutor(workers=2, cache=pooled).run(jobs)
        names = sorted(entry.name for entry in serial.path.iterdir())
        assert names == sorted(entry.name for entry in pooled.path.iterdir())
        assert len(names) == len(jobs)
        for name in names:
            assert (serial.path / name).read_bytes() == (pooled.path / name).read_bytes()
        # Each directory is a 100 % hit for the other kind of executor.
        for path, workers in ((tmp_path / "w1", 2), (tmp_path / "w2", 1)):
            reader = RunCache(path=path)
            SweepExecutor(workers=workers, cache=reader).run(jobs)
            assert (reader.hits, reader.misses) == (len(jobs), 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_sweep_keeps_the_jobs_before_the_failure(self, jobs, tmp_path, workers):
        failing = jobs[2].replace(max_events=10)
        doomed = [jobs[0], jobs[1], failing, jobs[3]]
        with pytest.raises(SimulationError, match="max_events"):
            SweepExecutor(workers=workers, cache=RunCache(path=tmp_path)).run(doomed)
        survivor = RunCache(path=tmp_path)
        assert survivor.get(jobs[0].key()) is not None
        assert survivor.get(jobs[1].key()) is not None
        assert survivor.get(failing.key()) is None


#: Subprocess body: a single run and a one-worker sweep, then which of the
#: process-pool modules the interpreter has loaded.
SINGLE_PROCESS_RUN = """
import sys
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.parallel import run_sweep
from repro.workload.params import WorkloadParams

params = WorkloadParams(num_processes=3, num_resources=4, phi=2, duration=200.0, warmup=20.0)
run(Scenario(algorithm="with_loan", params=params))
run_sweep(Scenario(algorithm="with_loan", params=params).sweep(seed=(1, 2)), workers=1)
pool = ("concurrent.futures.process", "multiprocessing")
print(",".join(name for name in pool if name in sys.modules) or "clean")
"""


def test_a_single_process_run_never_loads_the_process_pool():
    """Only a sweep with ``workers > 1`` imports ``ProcessPoolExecutor``."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
    out = subprocess.run(
        [sys.executable, "-c", SINGLE_PROCESS_RUN],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["clean"]
