"""Kernel benchmarks — raw event-loop throughput and end-to-end runs.

Unlike the figure benchmarks (which track protocol behaviour), these
track the *simulation substrate itself*, so ``BENCH_*.json`` records how
fast the tuple-heap kernel dispatches events across PRs:

* ``test_event_dispatch_throughput`` schedules and dispatches 200k no-op
  events through ``Simulator.schedule`` + ``Simulator.run`` — pure kernel
  overhead, no protocol code at all;
* ``test_run_end_to_end`` times one full ``run(scenario)``
  of the paper's algorithm at the benchmark scale, with the explicit
  ``default_max_events`` budget from the shared conftest;
* ``test_lifecycle_hooks_overhead_on_no_fault_path`` guards the crash
  subsystem's cost contract: arming the lifecycle machinery (a crash
  window that never fires, hooks installed, fault layer consulted) must
  stay within 5% of the plain no-fault run.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.engine import Simulator
from repro.sim.faults import NodeCrash

#: Events scheduled+dispatched by the throughput benchmark.
DISPATCH_EVENTS = 200_000


def _nop() -> None:
    pass


def _dispatch(n: int) -> int:
    sim = Simulator()
    schedule = sim.schedule
    for i in range(n):
        schedule(float(i % 97) * 0.01, _nop)
    sim.run()
    return sim.processed_events


def test_event_dispatch_throughput(benchmark):
    """Schedule and dispatch 200k no-op events through the kernel."""
    processed = run_once(benchmark, _dispatch, DISPATCH_EVENTS)
    assert processed == DISPATCH_EVENTS
    elapsed = benchmark.stats["mean"]
    benchmark.extra_info["events"] = DISPATCH_EVENTS
    benchmark.extra_info["events_per_second"] = round(DISPATCH_EVENTS / elapsed)


#: Required dispatch-phase advantage of the calendar queue over the heap
#: on the bulk no-op workload.  Measured in-process (same machine, same
#: interpreter state), so the guard is robust to absolute machine speed;
#: the observed ratio is ~3-4x, so 2x leaves headroom for noisy runners.
CALENDAR_SPEEDUP_FLOOR = 2.0


def _dispatch_time(scheduler: str, n: int) -> float:
    """Wall-clock seconds the dispatch loop takes for ``n`` no-op events.

    Scheduling happens outside the timed region: the guard is about the
    drain loop (pop + call), which is where the calendar's batched
    window pays off against the heap's per-event sift.
    """
    sim = Simulator(scheduler)
    schedule = sim.schedule
    for i in range(n):
        schedule(float(i % 97) * 0.01, _nop)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert sim.processed_events == n
    return elapsed


def test_calendar_dispatch_speedup_over_heap():
    """The calendar scheduler must drain bulk events >=2x faster than the heap.

    Interleaved min-of-rounds keeps the comparison fair under CI noise,
    and comparing the two schedulers inside one process factors out the
    machine entirely — this is the PR 9 acceptance ratio, pinned.
    """
    rounds = 5
    timings = {"heap": [], "calendar": []}
    for _ in range(rounds):
        for name in ("heap", "calendar"):
            timings[name].append(_dispatch_time(name, DISPATCH_EVENTS))
    ratio = min(timings["heap"]) / min(timings["calendar"])
    assert ratio >= CALENDAR_SPEEDUP_FLOOR, (
        f"calendar drains only {ratio:.2f}x faster than heap "
        f"(floor {CALENDAR_SPEEDUP_FLOOR}x)"
    )


def test_run_end_to_end(benchmark, bench_params, bench_max_events):
    """One full core-algorithm run at benchmark scale (engine + protocol)."""
    result = run_once(
        benchmark,
        run,
        Scenario(algorithm="with_loan", params=bench_params, max_events=bench_max_events),
    )
    assert result.metrics.completed == result.metrics.issued
    elapsed = benchmark.stats["mean"]
    benchmark.extra_info["events_processed"] = result.events_processed
    benchmark.extra_info["events_per_second"] = round(result.events_processed / elapsed)
    benchmark.extra_info["simulated_ms_per_wall_s"] = round(result.simulated_time / elapsed)


#: Allowed slowdown of an armed-but-idle crashy run over the plain run.
LIFECYCLE_OVERHEAD_CEILING = 1.05

#: Interleaved timing rounds; the minimum per variant is compared, which
#: is robust against one-off scheduler noise on CI machines.  Each round
#: is ~50 ms, so the floor of several rounds is a stable estimate.
OVERHEAD_ROUNDS = 7


def test_lifecycle_hooks_overhead_on_no_fault_path(bench_params, bench_max_events):
    """Crashy wiring must cost <5% when no crash ever fires.

    The armed scenario declares a crash far beyond the run horizon: the
    lifecycle layer schedules its window, every client/allocator carries
    its hooks and the run loop is bounded by the stall cap — but nothing
    fires, so the workload (and its results) are identical to the plain
    run.  The wall-clock ratio of the two is the whole price of the
    crash-recovery subsystem on runs that never crash.
    """
    plain = Scenario(
        algorithm="with_loan", params=bench_params, max_events=bench_max_events
    )
    # Crash far past the stall cap (fault_run_until ~ a few workload
    # durations), so neither the crash event nor the cap changes the run.
    armed = plain.replace(
        faults=NodeCrash(node=0, at=1e9),
        require_all_completed=False,
    )

    def measure(rounds):
        timings = {"plain": [], "armed": []}
        results = {}
        for round_index in range(rounds + 1):
            for name, scenario in (("plain", plain), ("armed", armed)):
                start = time.perf_counter()
                results[name] = run(scenario)
                if round_index > 0:  # round 0 warms caches and allocators
                    timings[name].append(time.perf_counter() - start)
        return min(timings["armed"]) / min(timings["plain"]), results

    ratio, results = measure(OVERHEAD_ROUNDS)
    if ratio >= LIFECYCLE_OVERHEAD_CEILING:
        # One free re-measurement with more rounds: a loaded CI runner can
        # push two ~50 ms runs past 5% apart without any code change, and
        # min-of-more-rounds is robust against exactly that.  A genuine
        # regression reproduces; transient noise does not.
        ratio, results = measure(3 * OVERHEAD_ROUNDS)

    # The never-firing window must not perturb the protocol at all.
    assert results["armed"].metrics.completed == results["plain"].metrics.completed
    assert results["armed"].metrics.use_rate == results["plain"].metrics.use_rate
    assert results["armed"].tokens_regenerated == 0

    assert ratio < LIFECYCLE_OVERHEAD_CEILING, (
        f"lifecycle hooks cost {100.0 * (ratio - 1.0):.1f}% on the no-fault "
        f"fast path (ceiling {100.0 * (LIFECYCLE_OVERHEAD_CEILING - 1.0):.0f}%)"
    )
