"""Scheduler-layer tests: heap/calendar equivalence and selection.

The scheduler never changes a result — the engine's determinism
contract says every scheduler dispatches the exact same events in the
exact same ``(time, seq)`` order.  The differential tests here drive
both implementations through identical randomized scripts (schedules,
cancellations, nested scheduling from callbacks, bounded runs) and
require identical firing orders, clock trajectories and processed-event
counts, plus adversarial shapes chosen to stress the calendar queue's
window/spine/pending machinery specifically.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.schedulers import (
    SCHEDULERS,
    CalendarQueue,
    HeapScheduler,
    available_schedulers,
    make_scheduler,
    resolve_scheduler_name,
)

ALL_SCHEDULERS = ("heap", "calendar")


# --------------------------------------------------------------------- #
# differential harness
# --------------------------------------------------------------------- #
def _run_script(scheduler_name, script):
    """Execute a schedule/cancel script and return the observable trace.

    ``script`` is a list of operations applied before the run; callbacks
    themselves may schedule more work (the ``nest`` operation), which
    exercises in-window insertion while the calendar is mid-dispatch.
    """
    sim = Simulator(scheduler_name)
    trace = []
    timers = {}

    def fire(tag):
        trace.append((sim.now, tag))

    def fire_and_nest(tag, delay, sub_tag):
        trace.append((sim.now, tag))
        sim.schedule(delay, fire, sub_tag)

    for index, op in enumerate(script):
        kind = op[0]
        if kind == "at":
            _, time, tag = op
            timers[index] = sim.schedule_at(time, fire, tag)
        elif kind == "nest":
            _, time, tag, delay = op
            timers[index] = sim.schedule_at(time, fire_and_nest, tag, delay, f"{tag}+nest")
        elif kind == "cancel":
            target = op[1]
            if target in timers:
                sim.cancel(timers[target])
    sim.run()
    return trace, sim.now, sim.processed_events


def _random_script(rng, size):
    """A random mix of schedules, nested schedules and cancellations."""
    script = []
    for i in range(size):
        roll = rng.random()
        time = round(rng.uniform(0.0, 50.0), 3)
        if roll < 0.55:
            script.append(("at", time, f"t{i}"))
        elif roll < 0.8:
            script.append(("nest", time, f"n{i}", round(rng.uniform(0.0, 5.0), 3)))
        elif script:
            script.append(("cancel", rng.randrange(len(script))))
    return script


class TestDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_scripts_fire_identically(self, seed):
        script = _random_script(random.Random(seed), 120)
        heap = _run_script("heap", script)
        calendar = _run_script("calendar", script)
        assert heap == calendar

    def test_single_bucket_burst(self):
        """10k events at the same instant: pure seq tie-breaking."""
        script = [("at", 1.0, f"t{i}") for i in range(10_000)]
        heap_trace, _, heap_n = _run_script("heap", script)
        cal_trace, _, cal_n = _run_script("calendar", script)
        assert heap_trace == cal_trace
        assert heap_n == cal_n == 10_000
        assert [tag for _, tag in heap_trace] == [f"t{i}" for i in range(10_000)]

    def test_huge_time_spread(self):
        """Timestamps spanning 12 orders of magnitude."""
        script = [("at", float(10 ** (i % 12)), f"t{i}") for i in range(3_000)]
        assert _run_script("heap", script) == _run_script("calendar", script)

    def test_dense_same_time_nesting(self):
        """Nested schedules landing inside the active dispatch window."""
        script = [("nest", float(i % 7), f"n{i}", 0.0) for i in range(2_000)]
        assert _run_script("heap", script) == _run_script("calendar", script)

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_bounded_run_and_step_parity(self, scheduler):
        """An until-bounded run, then a drain, agree across schedulers."""
        sim = Simulator(scheduler)
        fired = []
        for i in range(100):
            sim.schedule_at(float(i % 13), fired.append, i)
        sim.run(until=5.0)
        mid = list(fired)
        sim.run()
        if scheduler == "heap":
            TestDifferential._heap_result = (mid, list(fired))
        else:
            assert (mid, list(fired)) == TestDifferential._heap_result

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_max_events_budget_raises(self, scheduler):
        """A livelocked run trips the max_events valve on every scheduler."""
        sim = Simulator(scheduler)

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(Exception, match="max_events"):
            sim.run(max_events=50)


# --------------------------------------------------------------------- #
# calendar internals
# --------------------------------------------------------------------- #
class TestCalendarQueue:
    def test_len_counts_all_tiers(self):
        q = CalendarQueue()
        for i in range(10):
            q.push((float(i), i, None, ()))
        assert len(q) == 10
        q.pop()
        assert len(q) == 9
        # A fresh push after a pop lands in the pending tier.
        q.push((100.0, 10, None, ()))
        assert len(q) == 10

    def test_pop_returns_sorted_order_across_chunks(self):
        q = CalendarQueue()
        entries = [(float(i % 97), i, None, ()) for i in range(3 * CalendarQueue.CHUNK)]
        for e in entries:
            q.push(e)
        drained = []
        while True:
            e = q.pop()
            if e is None:
                break
            drained.append(e)
        assert drained == sorted(entries)
        assert len(q) == 0



# --------------------------------------------------------------------- #
# selection: argument > default
# --------------------------------------------------------------------- #
class TestSelection:
    def test_default_is_heap(self):
        assert resolve_scheduler_name(None) == "heap"
        assert Simulator().scheduler_name == "heap"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            resolve_scheduler_name("fibonacci")
        with pytest.raises(ValueError, match="unknown scheduler"):
            Simulator("fibonacci")

    def test_registry_and_factory_agree(self):
        assert set(available_schedulers()) == set(SCHEDULERS)
        assert type(make_scheduler("heap")) is HeapScheduler
        assert type(make_scheduler("calendar")) is CalendarQueue


# --------------------------------------------------------------------- #
# cancellation: a timer is its sequence number
# --------------------------------------------------------------------- #
class TestResetGenerations:
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_live_handle_still_cancels(self, scheduler):
        sim = Simulator(scheduler)
        fired = []
        timer = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.cancel(timer)
        sim.run()
        assert fired == ["b"]
