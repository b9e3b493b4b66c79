"""The four workloads: scenario lists built from ``--seed``.

All at N=32, M=80 (the paper's testbed).  A workload is a list of
scenarios plus how a user executes it cold: one ``run(scenario)`` in
process, or the whole list through ``SweepExecutor(workers=2)`` with a
fresh disk cache.  Durations are ISSUE 11's, shortened so that 92 driver
runs fit its 57-minute cap while one repeat stays above 1.5 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.registry import ALGORITHMS
from repro.experiments.scenario import Scenario
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faultspec import NodeCrash
from repro.sim.latencyspec import UniformJitterLatencySpec
from repro.workload.arrivals import MarkovModulatedArrivals
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import OpenLoopSpec

#: Node killed (permanently) by ``crash_recovery``.
CRASH_NODE = 2

#: ``crash_recovery`` draws ``WorkloadParams.seed`` from this pool
#: (``--seed`` indexes it, modulo its length).  HEAD's recovery protocol
#: wedges survivors or raises on roughly one seed in five at this scale
#: (listed in the README for a later correctness issue); a benchmark
#: needs inputs on which no operation fails, so the pool holds the seeds
#: in 1..120 on which HEAD drains with only the dead node's own
#: in-flight request lost.
CRASH_SEEDS = (
    1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 22,
    23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38,
    39, 40, 41, 44, 46, 47, 50, 51, 52, 53, 55, 56, 59, 61, 63, 65,
    67, 69, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 83, 84, 85, 86,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload, built for one seed."""

    name: str
    jobs: List[Scenario]
    #: ``True``: the cold operation is the job list through the pool and
    #: a fresh disk cache; ``False``: ``run(jobs[0])`` in process.
    sweep: bool
    #: Default/calendar scheduler pairs timed by the traced run.
    calendar_pairs: int
    #: Node killed for good during the run, if any: the one request it
    #: had in flight is lost with it and is not counted as a failure.
    crash_node: Optional[int] = None


def _params(seed: int, scale: float, duration: float, warmup: float, **kw) -> WorkloadParams:
    return WorkloadParams(
        num_processes=32,
        num_resources=80,
        seed=seed,
        duration=duration * scale,
        warmup=warmup * scale,
        **kw,
    )


def _closed_loop(seed: int, scale: float) -> Scenario:
    return Scenario(
        "with_loan",
        _params(seed, scale, 12_000.0, 600.0, phi=8, load=LoadLevel.HIGH),
    )


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build workload ``name`` for ``seed``; ``scale`` shrinks durations (smoke)."""
    if name == "closed_loop_paper":
        return Workload(name, [_closed_loop(seed, scale)], False, 3)
    if name == "open_loop_bl":
        arrivals = MarkovModulatedArrivals(
            rate=0.01, burst_factor=12, burst_fraction=0.15, dwell=400
        )
        # Bound by requests, not by time: 900 arrivals per process at 0.01
        # req/ms are about 90 000 ms of traffic, and the same work on every
        # seed (time-bound, bursty arrivals moved the event count by 5 %
        # between seeds, more than the measurement noise).  ``duration``
        # only has to outlast the slowest process's last arrival.
        scenario = Scenario(
            "bouabdallah",
            _params(
                seed, scale, 180_000.0, 600.0, phi=8,
                requests_per_process=max(1, int(900 * scale)),
            ),
            workload=OpenLoopSpec(arrival=arrivals),
            record_chunk_rows=512,
        )
        return Workload(name, [scenario], False, 3)
    if name == "crash_recovery":
        pooled = CRASH_SEEDS[(seed - 1) % len(CRASH_SEEDS)]
        scenario = _closed_loop(pooled, scale).replace(
            faults=NodeCrash(node=CRASH_NODE, at=1_000.0 * scale),
            detector=HeartbeatDetector(interval=10, timeout=30),
            latency=UniformJitterLatencySpec(jitter=0.4),
            require_all_completed=False,
        )
        return Workload(name, [scenario], False, 3, crash_node=CRASH_NODE)
    if name == "figure_sweep":
        jobs: List[Scenario] = []
        for load in (LoadLevel.MEDIUM, LoadLevel.HIGH):
            base = Scenario("with_loan", _params(seed, scale, 1_200.0, 120.0, load=load))
            jobs += base.sweep(algorithm=ALGORITHMS, phi=(1, 4, 16, 80), seed=(seed,))
        return Workload(name, jobs, True, 2)
    raise KeyError(f"unknown workload {name!r}")


def warmup_scenario() -> Scenario:
    """The fixed 1 000 ms run every worker makes before it reports ready."""
    return Scenario(
        "with_loan",
        WorkloadParams(
            num_processes=32, num_resources=80, phi=8, load=LoadLevel.HIGH,
            duration=1_000.0, warmup=100.0, seed=1,
        ),
    )
