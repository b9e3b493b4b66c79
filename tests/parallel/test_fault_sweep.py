"""Fault sweeps through the parallel executor: determinism + memoisation."""

import pickle

import pytest

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.parallel.cache import RunCache
from repro.parallel.executor import run_sweep
from repro.sim.faultspec import BernoulliLoss, CompositeFaults, NodeCrash
from repro.workload.params import LoadLevel, WorkloadParams


@pytest.fixture(scope="module")
def fault_grid():
    params = WorkloadParams(
        num_processes=4,
        num_resources=8,
        phi=3,
        duration=400.0,
        warmup=50.0,
        load=LoadLevel.HIGH,
        seed=11,
    )
    base = Scenario(algorithm="with_loan", params=params, require_all_completed=False)
    return base.sweep(
        algorithm=("with_loan", "incremental"),
        faults=(
            None,
            BernoulliLoss(p=0.02),
            BernoulliLoss(p=0.1),
            CompositeFaults((BernoulliLoss(p=0.05), NodeCrash(node=1, at=150.0, recover_at=250.0))),
        ),
    )


def fingerprint(result):
    """Bit-level identity of everything a figure driver could consume."""
    return pickle.dumps(
        (
            result.algorithm,
            result.metrics,
            result.termination,
            result.simulated_time,
            result.events_processed,
            result.messages_dropped,
            result.resend_count,
            [(r.process, r.index, r.issue_time, r.grant_time, r.release_time) for r in result.records],
        )
    )


class TestFaultSweepDeterminism:
    def test_workers_1_and_4_bit_identical(self, fault_grid):
        serial = run_sweep(fault_grid, workers=1)
        parallel = run_sweep(fault_grid, workers=4)
        assert [fingerprint(r) for r in serial] == [fingerprint(r) for r in parallel]

    def test_sweep_matches_direct_run(self, fault_grid):
        (direct,) = [run(fault_grid[1])]
        (swept,) = run_sweep([fault_grid[1]], workers=1)
        assert fingerprint(direct) == fingerprint(swept)

    def test_faults_actually_perturb_results(self, fault_grid):
        results = run_sweep(fault_grid, workers=1)
        twins = {s.algorithm: r for s, r in zip(fault_grid, results) if s.faults is None}
        faulty = [(s, r) for s, r in zip(fault_grid, results) if s.faults is not None]
        assert all(r.messages_dropped == r.resend_count == 0 for r in twins.values())
        for scenario, result in faulty:
            # Every lost try is re-sent: the loss delays grants, and the
            # records move away from the reliable twin's.
            assert result.messages_dropped == result.resend_count > 0
            twin = twins[scenario.algorithm]
            assert result.record_columns.content_key() != twin.record_columns.content_key()
        # The fingerprint carries ``termination`` through the pool, the
        # memory cache and the disk cache; make sure it is not trivial here.
        assert all(
            (r.termination.reason, r.termination.waiting, r.termination.abandoned)
            == ("drained", (), 0)
            for r in twins.values()
        )
        assert any(r.termination.abandoned for _, r in faulty)


class TestFaultSweepMemoisation:
    def test_fault_scenarios_are_memoised_by_content_key(self, fault_grid):
        cache = RunCache()
        first = run_sweep(fault_grid, workers=1, cache=cache)
        assert cache.misses == len(fault_grid)
        again = run_sweep(fault_grid, workers=1, cache=cache)
        assert cache.hits == len(fault_grid)
        assert [fingerprint(r) for r in first] == [fingerprint(r) for r in again]

    def test_distinct_fault_specs_get_distinct_keys(self, fault_grid):
        keys = {scenario.key() for scenario in fault_grid}
        assert len(keys) == len(fault_grid)

    def test_results_survive_the_disk_level(self, tmp_path, fault_grid):
        scenario = fault_grid[1]
        (first,) = run_sweep([scenario], workers=1, cache=RunCache(path=tmp_path))
        reader = RunCache(path=tmp_path)
        (second,) = run_sweep([scenario], workers=1, cache=reader)
        assert reader.hits == 1 and reader.misses == 0
        assert fingerprint(first) == fingerprint(second)
