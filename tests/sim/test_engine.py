"""Unit tests for the discrete-event simulation engine."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.schedulers import HeapScheduler


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_in_insertion_order(self, sim):
        fired = []
        for label in ("first", "second", "third"):
            sim.schedule(5.0, fired.append, label)
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_last_event(self, sim):
        sim.schedule(4.5, lambda: None)
        sim.run()
        assert sim.now == 4.5

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(2.5, fired.append, "x")
        sim.run()
        assert fired == ["x"] and sim.now == 2.5

    def test_both_calls_return_the_next_sequence_number(self, sim):
        seqs = [sim.schedule(1.0, lambda: None), sim.schedule_at(0.5, lambda: None)]
        seqs.append(sim.schedule(0.0, lambda: None))
        assert seqs == [0, 1, 2]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_or_time_rejected(self, sim):
        # A NaN compares false with everything, so only a test written
        # as `not x >= bound` catches it; it would otherwise be queued
        # and fire mid-run with `now = nan`.
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(math.nan, lambda: None)
        assert sim.pending_events == 0

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_callback_args_are_passed(self, sim):
        result = {}
        sim.schedule(1.0, result.setdefault, "key", 42)
        sim.run()
        assert result == {"key": 42}

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        sim.cancel(sim.schedule(1.0, fired.append, "x"))
        sim.run()
        assert fired == []

    def test_cancelling_one_of_many(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "keep")
        cancelled = sim.schedule(2.0, fired.append, "drop")
        sim.schedule(3.0, fired.append, "keep2")
        sim.cancel(cancelled)
        sim.run()
        assert fired == ["keep", "keep2"]

    def test_run_until_skips_cancelled_events(self, sim):
        fired = []
        cancelled = sim.schedule(1.0, fired.append, "drop")
        sim.schedule(2.0, fired.append, "keep")
        sim.schedule(10.0, fired.append, "late")
        sim.cancel(cancelled)
        sim.run(until=5.0)
        assert fired == ["keep"]
        assert sim.now == 2.0

    def test_cancelled_head_beyond_until_does_not_fire_later(self, sim):
        fired = []
        late = sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        sim.cancel(late)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        fired = []
        timer = sim.schedule(1.0, fired.append, "x")
        sim.cancel(timer)
        sim.cancel(timer)
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        timer = sim.schedule(1.0, fired.append, "x")
        sim.run()
        sim.cancel(timer)
        sim.schedule(2.0, fired.append, "y")
        sim.run()
        assert fired == ["x", "y"]


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_clear_drops_every_queued_event_and_cancellation(scheduler):
    """A finished run's leftovers go: heap or calendar entries, lane entries, cancellations."""
    sim = Simulator(scheduler)
    post = sim.claim_lane()
    fired = []
    sim.schedule(1.0, fired.append, "ran")
    sim.schedule(9.0, fired.append, "late")
    sim.cancel(sim.schedule(8.0, fired.append, "cancelled"))
    post((7.0, sim._next_seq(), fired.append, ("lane",)))
    sim.run(until=5.0)
    sim.clear()
    assert sim.pending_events == 0 and not sim._cancelled
    sim.run()
    assert fired == ["ran"]
    sim.schedule(1.0, fired.append, "after")
    sim.run()
    assert fired == ["ran", "after"]


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
class TestCancelPruning:
    """``cancel`` prunes its set of seqs whenever it outgrows the queue."""

    @staticmethod
    def fired_and_queued(scheduler, fired, queued):
        """A simulator with ``fired`` seqs already run and ``queued`` live."""
        sim = Simulator(scheduler)
        done = [sim.schedule(0.0, lambda: None) for _ in range(fired)]
        sim.run()
        log = []
        live = [sim.schedule(1.0 + i, log.append, i) for i in range(queued)]
        return sim, done, live, log

    def test_cancels_of_fired_events_stay_bounded(self, scheduler):
        sim, done, _live, _log = self.fired_and_queued(scheduler, 500, 10)
        sizes = []
        for seq in done:
            sim.cancel(seq)
            sizes.append(len(sim._cancelled))
            assert sizes[-1] <= max(64, sim.pending_events)
        assert max(sizes) == 64 and sizes.count(0) == len(done) // 65  # every 65th prunes

    def test_pruning_keeps_every_queued_cancel(self, scheduler):
        sim, done, live, log = self.fired_and_queued(scheduler, 500, 100)
        dropped = set(live[::3])
        stale = iter(done)
        for seq in live:
            if seq in dropped:
                sim.cancel(seq)
            for _ in range(5):
                sim.cancel(next(stale))
            assert dropped & set(live[: seq - live[0] + 1]) <= sim._cancelled
        assert len(sim._cancelled) < len(dropped) + 64  # a pass ran
        sim.run()
        assert log == [i for i, seq in enumerate(live) if seq not in dropped]
        assert not sim._cancelled & set(live)  # each discarded as it popped


class TestRunWithoutClockAdvance:
    def test_drained_queue_leaves_clock_at_last_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run(until=10.0)
        assert fired == ["x"]
        assert sim.now == 1.0

    def test_early_stop_leaves_clock_at_last_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.schedule(5.0, fired.append, "y")
        sim.run(until=3.0)
        assert fired == ["x"]
        assert sim.now == 1.0



class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 1.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_with_empty_queue(self, sim):
        # `until` is a cap, not a target: with nothing to run the clock
        # stays where the last event left it.
        sim.run(until=7.0)
        assert sim.now == 0.0

    def test_max_events_raises_on_runaway(self, sim):
        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)

    def test_processed_events_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()


@pytest.mark.parametrize("until", [None, 100.0], ids=["drain", "until"])
@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
class TestMaxEventsBoundary:
    """``max_events=N``: a run of exactly N events completes, N+1 raises.

    The same in every loop of ``Simulator.run`` — heap or calendar,
    draining or bounded by ``until``.
    """

    @staticmethod
    def chain(scheduler, length):
        """A simulator whose run is ``length`` events, one arming the next."""
        sim = Simulator(scheduler)
        fired = []

        def tick(i):
            fired.append(i)
            if i + 1 < length:
                sim.schedule(1.0, tick, i + 1)

        sim.schedule(1.0, tick, 0)
        return sim, fired

    def test_exactly_max_events_completes(self, scheduler, until):
        sim, fired = self.chain(scheduler, 7)
        sim.run(until=until, max_events=7)
        assert fired == list(range(7))
        assert sim.processed_events == 7 and sim.pending_events == 0

    def test_one_more_event_raises_before_it_runs(self, scheduler, until):
        sim, fired = self.chain(scheduler, 8)
        with pytest.raises(SimulationError, match="max_events=7 exceeded"):
            sim.run(until=until, max_events=7)
        assert fired == list(range(7))
        assert sim.processed_events == 7 and sim.now == 7.0
        assert sim.pending_events == 1

    def test_cancelled_entries_never_count(self, scheduler, until):
        sim, fired = self.chain(scheduler, 7)
        for delay in (0.5, 3.5, 3.5, 7.0):
            sim.cancel(sim.schedule(delay, fired.append, "cancelled"))
        sim.run(until=until, max_events=7)
        assert fired == list(range(7))
        assert sim.pending_events == 0

    def test_resumed_run_dispatches_the_kept_event_once(self, scheduler, until):
        sim, fired = self.chain(scheduler, 8)
        with pytest.raises(SimulationError, match="max_events=7 exceeded"):
            sim.run(until=until, max_events=7)
        sim.run(until=until)
        assert fired == list(range(8))
        assert sim.processed_events == 8 and sim.pending_events == 0

    def test_cancelled_entries_ahead_of_the_kept_event_are_dropped(self, scheduler, until):
        sim, fired = self.chain(scheduler, 8)
        # All due before event 7 (at 8.0, scheduled last), none of them live.
        for delay in (7.25, 7.5, 8.0):
            sim.cancel(sim.schedule(delay, fired.append, "cancelled"))
        with pytest.raises(SimulationError, match="max_events=7 exceeded"):
            sim.run(until=until, max_events=7)
        assert fired == list(range(7))
        assert sim.pending_events == 1
        sim.run(until=until)
        assert fired == list(range(8)) and sim.now == 8.0

    def test_limit_inside_a_batch_of_simultaneous_events(self, scheduler, until):
        sim = Simulator(scheduler)
        fired = []
        for label in range(5):
            sim.schedule(2.0, fired.append, label)
        with pytest.raises(SimulationError, match="max_events=2 exceeded"):
            sim.run(until=until, max_events=2)
        assert fired == [0, 1] and sim.pending_events == 3
        sim.run(until=until)
        assert fired == [0, 1, 2, 3, 4]

    def test_lane_delivery_one_too_many_stays_queued(self, scheduler, until):
        sim = Simulator(scheduler)
        post = sim.claim_lane()
        fired = []
        for time in (1.0, 2.0, 3.0):
            post((time, sim._next_seq(), fired.append, (time,)))
        with pytest.raises(SimulationError, match="max_events=2 exceeded"):
            sim.run(until=until, max_events=2)
        assert fired == [1.0, 2.0] and sim.pending_events == 1
        sim.run(until=until)
        assert fired == [1.0, 2.0, 3.0] and sim.now == 3.0


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_events_past_until_do_not_count_against_max_events(scheduler):
    sim, fired = TestMaxEventsBoundary.chain(scheduler, 7)
    sim.schedule(500.0, fired.append, "late")
    sim.run(until=100.0, max_events=7)
    assert fired == list(range(7))
    assert sim.now == 7.0 and sim.pending_events == 1
    # Drained, the late event is the one too many.
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=0)


class PlainHeap(HeapScheduler):
    """A heap the engine does not recognise as one.

    ``Simulator.run`` inlines ``heappop`` only for exactly
    ``HeapScheduler``; under ``until`` this subclass is driven by the
    ``peek()``/``pop()`` loop instead, on identical queue contents.  Its
    ``peek``/``pop`` are a plain :mod:`heapq` replay of its own
    ``entries`` — the oracle for the inlined bounded loop, independent
    of the calendar queue.
    """

    __slots__ = ()

    def peek(self):
        return self.entries[0] if self.entries else None

    def pop(self):
        return heapq.heappop(self.entries) if self.entries else None


#: One scheduled event: when (a coarse grid, so instants tie), whether it
#: is cancelled up front, and what its callback does besides logging —
#: nothing, arm a follow-up (0 = at ``now``), or cancel the next event
#: listed.
event_specs = st.tuples(
    st.integers(0, 40).map(lambda quarter: quarter / 4),
    st.booleans(),
    st.sampled_from(["log", "log", "arm-now", "arm-later", "cancel-next"]),
)
untils = st.integers(0, 44).map(lambda quarter: quarter / 4)


#: One item of a script: a timer (as :data:`event_specs`) or a lane
#: delivery, due ``step`` quarters after the lane's previous one (the
#: lane's contract: pushes never go back in time).  Both use the coarse
#: grid, so lane entries tie with timers.
script_items = st.one_of(
    st.tuples(st.just("timer"), event_specs),
    st.tuples(
        st.just("lane"),
        st.tuples(
            st.integers(0, 6).map(lambda quarter: quarter / 4),
            st.sampled_from(["log", "log", "arm-now", "arm-later", "cancel-next", "send"]),
        ),
    ),
)
phase_specs = st.tuples(untils, st.one_of(st.none(), st.integers(0, 30)))


def run_script(scheduler, script, phases, gamma=0.75):
    """Play ``script`` through ``run(until=..., max_events=...)`` phases; observe each.

    Items are queued in script order: a timer at its instant (cancelled
    up front if its spec says so), a lane delivery through
    ``claim_lane()`` — the FIFO lane on the heap, the scheduler's own
    push on any other scheduler.  A ``send`` action posts one more
    delivery ``gamma`` after now, as a constant-latency network does;
    ``cancel-next`` cancels the next item of the script if it is a
    timer.  Each phase observes ``(log, now, processed, pending)`` and
    the error message if it raised.
    """
    sim = Simulator(scheduler)
    post = sim.claim_lane()
    log = []
    timers = {}
    lane_last = [0.0]

    def deliver(time, label, action):
        lane_last[0] = time = max(time, lane_last[0])
        post((time, sim._next_seq(), fire, (label, action)))

    def fire(label, action):
        log.append((label, sim.now))
        if action == "arm-now":
            sim.schedule(0.0, fire, f"{label}+", "log")
        elif action == "arm-later":
            sim.schedule(1.25, fire, f"{label}+", "log")
        elif action == "cancel-next" and label + 1 in timers:
            sim.cancel(timers[label + 1])
        elif action == "send":
            deliver(sim.now + gamma, f"{label}>", "log")

    for index, (kind, spec) in enumerate(script):
        if kind == "timer":
            time, cancelled, action = spec
            timers[index] = sim.schedule_at(time, fire, index, action)
            if cancelled:
                sim.cancel(timers[index])
        else:
            step, action = spec
            deliver(lane_last[0] + step, index, action)
    observed = []
    for until, max_events in phases:
        try:
            sim.run(until=until, max_events=max_events)
            error = None
        except SimulationError as exc:
            error = str(exc)
        observed.append((list(log), sim.now, sim.processed_events, sim.pending_events, error))
    return observed


class TestBoundedHeapLoop:
    """The inlined ``until`` loop against the peek/pop one."""

    @given(st.lists(event_specs, max_size=30), untils, untils)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_scheduler_agnostic_loop(self, specs, first, more):
        script = [("timer", spec) for spec in specs]
        phases = [(first, None), (first + more, None), (math.inf, None)]
        inlined = run_script(HeapScheduler(), script, phases)
        for oracle in (PlainHeap(), "calendar"):
            assert inlined == run_script(oracle, script, phases)

    def test_cancelled_head_past_until_is_discarded(self):
        observed = []
        for scheduler in (HeapScheduler(), PlainHeap()):
            sim = Simulator(scheduler)
            fired = []
            sim.schedule(1.0, fired.append, "a")
            sim.cancel(sim.schedule(6.0, fired.append, "dead"))
            sim.schedule(7.0, fired.append, "b")
            sim.run(until=5.0)
            # The cancelled head (t=6) is swept although it lies past
            # `until`; the live event behind it stays queued.
            assert sim.pending_events == 1 and sim._cancelled == set()
            assert sim.now == 1.0
            sim.run(until=10.0)
            observed.append((fired, sim.now, sim.processed_events, sim.pending_events))
        assert observed[0] == observed[1]
        assert observed[0][0] == ["a", "b"]

    def test_event_scheduled_at_now_by_the_last_event_before_until_runs(self, sim):
        fired = []
        sim.schedule(5.0, lambda: sim.schedule(0.0, fired.append, "same instant"))
        sim.schedule(5.5, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["same instant"]
        assert sim.pending_events == 1 and sim.now == 5.0


class TestFifoLane:
    """The heap loop merged with the FIFO lane against one plain heap."""

    @given(st.lists(script_items, max_size=30), phase_specs, phase_specs, phase_specs)
    @settings(max_examples=300, deadline=None)
    def test_lane_fed_run_agrees_with_the_all_heap_run(self, script, first, second, third):
        phases = [
            first,
            (first[0] + second[0], second[1]),
            (math.inf, third[1]),
            (math.inf, None),
        ]
        merged = run_script(HeapScheduler(), script, phases)
        for oracle in (PlainHeap(), "calendar"):
            assert merged == run_script(oracle, script, phases)

    def test_lane_goes_to_its_first_claimant_only(self):
        sim = Simulator()
        assert sim.claim_lane() == sim._lane.append
        assert sim.claim_lane() == sim._push
        calendar = Simulator("calendar")
        assert calendar.claim_lane() == calendar._push

    def test_lane_head_past_until_stays_queued(self):
        sim = Simulator()
        post = sim.claim_lane()
        fired = []
        post((2.0, sim._next_seq(), fired.append, ("lane",)))
        sim.schedule(1.0, fired.append, "timer")
        sim.run(until=1.5)
        assert fired == ["timer"] and sim.now == 1.0
        assert sim.pending_events == len(sim._lane) == 1
        sim.run()
        assert fired == ["timer", "lane"] and sim.now == 2.0
