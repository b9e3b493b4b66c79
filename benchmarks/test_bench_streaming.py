"""Streaming-workload benchmarks — the open-loop / chunked-record path.

The workload axis lets a run stream arbitrarily many requests through the
simulator while the metrics collector seals completed records into
bounded chunks.  These benchmarks pin that contract at benchmark scale:

* ``test_open_loop_chunked_throughput`` drives an open-loop Poisson
  workload through the paper's algorithm with ``record_chunk_rows`` set
  (that the chunks stay O(chunk) is asserted in tier 1,
  ``tests/metrics/test_chunked.py``);
* ``test_trace_replay_throughput`` replays the checked-in bursty SWF
  trace (``examples/data/sample.swf``) end to end.
"""

from __future__ import annotations

import os

from conftest import run_once

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.workload.arrivals import PoissonArrivals
from repro.workload.params import WorkloadParams
from repro.workload.spec import OpenLoopSpec, TraceReplaySpec

TRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "data",
    "sample.swf",
)

#: Chunk size under test: far below the request volume, so sealing happens.
CHUNK_ROWS = 128


def _open_loop_params() -> WorkloadParams:
    return WorkloadParams(
        num_processes=8,
        num_resources=20,
        phi=4,
        duration=3_000.0,
        warmup=300.0,
        seed=1,
    )


def test_open_loop_chunked_throughput(benchmark):
    """Open-loop run with chunked records."""
    scenario = Scenario(
        algorithm="with_loan",
        params=_open_loop_params(),
        workload=OpenLoopSpec(arrival=PoissonArrivals(rate=0.03)),
        record_chunk_rows=CHUNK_ROWS,
    )
    result = run_once(benchmark, run, scenario)
    m = result.metrics
    assert m.completed == m.issued
    elapsed = benchmark.stats["mean"]
    benchmark.extra_info["requests"] = m.issued
    benchmark.extra_info["requests_per_second"] = round(m.issued / elapsed)
    benchmark.extra_info["chunks"] = result.record_columns.chunk_count


def test_trace_replay_throughput(benchmark):
    """Replay the 200-job bursty sample trace end to end."""
    params = WorkloadParams(
        num_processes=8,
        num_resources=20,
        phi=4,
        duration=4_000.0,
        warmup=400.0,
        seed=1,
    )
    scenario = Scenario(
        algorithm="with_loan",
        params=params,
        workload=TraceReplaySpec(path=TRACE),
    )
    result = run_once(benchmark, run, scenario)
    m = result.metrics
    assert m.completed == m.issued == 200
    elapsed = benchmark.stats["mean"]
    benchmark.extra_info["jobs"] = m.issued
    benchmark.extra_info["jobs_per_second"] = round(m.issued / elapsed)
    benchmark.extra_info["mean_wait_ms"] = round(m.waiting.mean, 2)
