"""Shared helpers for the test suite.

Provides small harnesses to build a simulated system for any algorithm and
to drive scripted request scenarios, so individual tests can focus on the
behaviour they verify instead of the plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.allocator import MultiResourceAllocator
from repro.baselines.bouabdallah_laforest import BLAllocatorNode
from repro.baselines.central_scheduler import CentralScheduler, CentralSchedulerClientAllocator
from repro.baselines.incremental import IncrementalAllocatorNode
from repro.core.config import CoreConfigSpec
from repro.core.node import CoreAllocatorNode
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatencySpec, LatencySpec
from repro.sim.network import Network
from repro.sim.trace import TraceRecorder


@dataclass
class System:
    """A fully wired mini-system for tests."""

    sim: Simulator
    network: Optional[Network]
    allocators: List[MultiResourceAllocator]
    num_resources: int
    trace: TraceRecorder = field(default_factory=TraceRecorder)

    def run(self, until: Optional[float] = None, max_events: int = 500_000) -> None:
        """Run the simulation to completion (or until a time bound)."""
        self.sim.run(until=until, max_events=max_events)


def build_system(
    algorithm: str,
    num_processes: int,
    num_resources: int,
    gamma: float = 0.5,
    latency: Optional[LatencySpec] = None,
    core_config: Optional[CoreConfigSpec] = None,
) -> System:
    """Build a system of ``num_processes`` allocators for ``algorithm``.

    ``algorithm`` is one of ``core``, ``core_loan``, ``incremental``,
    ``bouabdallah``, ``shared_memory`` (the short names used by unit tests;
    the experiment registry uses the paper-facing names).
    """
    sim = Simulator()
    trace = TraceRecorder()
    if algorithm == "shared_memory":
        scheduler = CentralScheduler(sim, num_resources)
        allocators: List[MultiResourceAllocator] = [
            CentralSchedulerClientAllocator(scheduler, p) for p in range(num_processes)
        ]
        return System(sim=sim, network=None, allocators=allocators,
                      num_resources=num_resources, trace=trace)

    network = Network(sim, latency or ConstantLatencySpec(gamma=gamma))
    if algorithm == "incremental":
        allocators = [
            IncrementalAllocatorNode(
                sim, network, p, num_resources=num_resources,
                num_processes=num_processes, initial_holder=0, trace=trace,
            )
            for p in range(num_processes)
        ]
    elif algorithm == "bouabdallah":
        allocators = [
            BLAllocatorNode(sim, network, p, num_resources=num_resources, trace=trace)
            for p in range(num_processes)
        ]
    elif algorithm in ("core", "core_loan"):
        config = core_config
        if config is None:
            config = CoreConfigSpec(enable_loan=(algorithm == "core_loan"))
        allocators = [
            CoreAllocatorNode(
                sim, network, p, num_resources=num_resources,
                num_processes=num_processes, config=config, trace=trace,
            )
            for p in range(num_processes)
        ]
    else:
        raise KeyError(f"unknown test algorithm {algorithm!r}")
    return System(sim=sim, network=network, allocators=allocators,
                  num_resources=num_resources, trace=trace)


#: A scripted request: (issue_time, process, resources, cs_duration).
ScriptedRequest = Tuple[float, int, FrozenSet[int], float]


def run_scripted(
    system: System,
    requests: Sequence[ScriptedRequest],
    warmup: float = 0.0,
    max_events: int = 500_000,
) -> MetricsCollector:
    """Drive a scripted scenario and return the populated metrics collector.

    Each process issues its scripted requests in order; a process's next
    request is issued at its scripted time or right after its previous one
    completes, whichever is later.  The collector performs the online
    safety check, so any mutual-exclusion violation fails the test.
    """
    metrics = MetricsCollector(system.num_resources, warmup=warmup)
    per_process: Dict[int, List[Tuple[float, FrozenSet[int], float]]] = {}
    for issue_time, process, resources, cs in sorted(requests, key=lambda r: (r[1], r[0])):
        per_process.setdefault(process, []).append((issue_time, frozenset(resources), cs))

    class _Driver:
        def __init__(self, process: int, queue: List[Tuple[float, FrozenSet[int], float]]):
            self.process = process
            self.queue = list(queue)
            self.index = -1
            self.current: Optional[Tuple[float, FrozenSet[int], float]] = None

        def schedule_next(self) -> None:
            if not self.queue:
                return
            issue_time, resources, cs = self.queue.pop(0)
            self.index += 1
            self.current = (issue_time, resources, cs)
            delay = max(0.0, issue_time - system.sim.now)
            system.sim.schedule(delay, self.issue)

        def issue(self) -> None:
            assert self.current is not None
            _, resources, _ = self.current
            metrics.on_issue(system.sim.now, self.process, self.index, resources)
            system.allocators[self.process].acquire(resources, self.granted)

        def granted(self) -> None:
            assert self.current is not None
            _, _, cs = self.current
            metrics.on_grant(system.sim.now, self.process, self.index)
            system.sim.schedule(cs, self.done)

        def done(self) -> None:
            metrics.on_release(system.sim.now, self.process, self.index)
            system.allocators[self.process].release()
            self.current = None
            self.schedule_next()

    drivers = [_Driver(p, q) for p, q in per_process.items()]
    for driver in drivers:
        driver.schedule_next()
    system.run(max_events=max_events)
    return metrics


def overlap(interval_a: Tuple[float, float], interval_b: Tuple[float, float]) -> bool:
    """Whether two half-open time intervals overlap."""
    return interval_a[0] < interval_b[1] and interval_b[0] < interval_a[1]


def assert_all_completed(metrics: MetricsCollector) -> None:
    """Fail with a helpful message when any request never completed."""
    pending = [r for r in metrics.records if not r.completed]
    assert not pending, f"{len(pending)} requests never completed: {pending[:3]}"
