"""Serial/parallel determinism of the workload axis.

Every :class:`~repro.workload.spec.WorkloadSpec` family must be a pure
value: shipped to a worker, re-thawed there and replayed bit-for-bit.
"""

import os

import pytest

from repro.experiments.scenario import Scenario
from repro.parallel.executor import run_sweep
from repro.workload.arrivals import MarkovModulatedArrivals
from repro.workload.params import WorkloadParams
from repro.workload.spec import OpenLoopSpec, SyntheticSpec, TraceReplaySpec

MINI = os.path.join(os.path.dirname(__file__), "..", "workload", "data", "mini.swf")


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


class TestWorkloadSweepDeterminism:
    def test_workload_axis_identical_workers_1_vs_4(self, small_base):
        """One grid covering every spec family, serial vs pool."""
        base = Scenario(algorithm="with_loan", params=small_base)
        grid = base.sweep(
            algorithm=("with_loan", "bouabdallah"),
            workload=(
                SyntheticSpec(),
                OpenLoopSpec(),
                OpenLoopSpec(arrival=MarkovModulatedArrivals(burst_factor=12.0, dwell=400.0)),
                OpenLoopSpec(arrival=MarkovModulatedArrivals(burst_factor=6.0)),
                TraceReplaySpec(path=MINI, time_scale=10.0),
            ),
        )
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=4)
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]
        assert [r.simulated_time for r in serial] == [r.simulated_time for r in parallel]
        assert [r.events_processed for r in serial] == [r.events_processed for r in parallel]
        # The axis really changed the runs.
        assert len({r.metrics.waiting.mean for r in serial[:5]}) > 1

    def test_chunked_records_identical_workers_1_vs_4(self, small_base):
        """Chunked containers survive the pool round-trip byte-for-byte."""
        base = Scenario(
            algorithm="with_loan",
            params=small_base,
            workload=OpenLoopSpec(),
            record_chunk_rows=64,
        )
        grid = base.sweep(seed=(1, 2))
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=2)
        for s, p in zip(serial, parallel):
            assert s.metrics == p.metrics
            assert s.record_columns == p.record_columns
            assert s.record_columns.content_key() == p.record_columns.content_key()
