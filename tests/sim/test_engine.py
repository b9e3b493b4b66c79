"""Unit tests for the discrete-event simulation engine."""

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

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

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
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancelling_one_of_many(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "keep")
        cancelled = sim.schedule(2.0, fired.append, "drop")
        sim.schedule(3.0, fired.append, "keep2")
        cancelled.cancel()
        sim.run()
        assert fired == ["keep", "keep2"]

    def test_step_skips_cancelled_events(self, sim):
        fired = []
        cancelled = sim.schedule(1.0, fired.append, "drop")
        sim.schedule(2.0, fired.append, "keep")
        cancelled.cancel()
        assert sim.step() is True
        assert fired == ["keep"]
        assert sim.now == 2.0
        assert sim.step() is False

    def test_run_until_skips_cancelled_events(self, sim):
        fired = []
        cancelled = sim.schedule(1.0, fired.append, "drop")
        sim.schedule(2.0, fired.append, "keep")
        sim.schedule(10.0, fired.append, "late")
        cancelled.cancel()
        sim.run(until=5.0)
        assert fired == ["keep"]
        assert sim.now == 5.0

    def test_cancelled_head_beyond_until_does_not_fire_later(self, sim):
        fired = []
        late = sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        late.cancel()
        sim.run()
        assert fired == []

    def test_cancelled_flag_visible_on_handle(self, sim):
        event = sim.schedule(1.0, lambda: None)
        assert event.cancelled is False
        event.cancel()
        assert event.cancelled is True

    def test_cancel_is_idempotent(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.run()
        event.cancel()
        sim.schedule(2.0, fired.append, "y")
        sim.run()
        assert fired == ["x", "y"]


class TestRunWithoutClockAdvance:
    def test_drained_queue_leaves_clock_at_last_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run(until=10.0, advance_to_until=False)
        assert fired == ["x"]
        assert sim.now == 1.0

    def test_early_stop_leaves_clock_at_last_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.schedule(5.0, fired.append, "y")
        sim.run(until=3.0, advance_to_until=False)
        assert fired == ["x"]
        assert sim.now == 1.0

    def test_default_still_advances_to_until(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0


class TestEventHandleHash:
    def test_event_handles_are_hashable(self, sim):
        """Regression: __eq__ under __slots__ used to suppress __hash__,
        so hash(Event(...)) raised TypeError."""
        event = sim.schedule(1.0, lambda: None)
        assert isinstance(hash(event), int)

    def test_hash_consistent_with_equality(self, sim):
        from repro.sim.engine import Event

        a = Event(1.0, 0, lambda: None)
        b = Event(1.0, 0, lambda: None)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_distinct_events_usable_as_dict_keys(self, sim):
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(2.0, lambda: None)
        table = {first: "a", second: "b"}
        assert table[first] == "a" and table[second] == "b"


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_with_empty_queue(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_raises_on_runaway(self, sim):
        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)

    def test_step_executes_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_processed_events_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_reset_clears_state(self, sim):
        sim.schedule(3.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.processed_events == 0

    def test_reset_clears_cancellation_bookkeeping(self, sim):
        event = sim.schedule(3.0, lambda: None)
        event.cancel()
        sim.reset()
        assert sim._cancelled == set()
        # Sequence numbers restart after reset; a stale cancellation must
        # not suppress a fresh event that reuses the same seq.
        fired = []
        sim.schedule(1.0, fired.append, "fresh")
        sim.run()
        assert fired == ["fresh"]

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
                sim.post_in(1.0, tick, i + 1)

        sim.post_in(1.0, tick, 0)
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

    def test_cancelled_entries_never_count(self, scheduler, until):
        sim, fired = self.chain(scheduler, 7)
        for delay in (0.5, 3.5, 3.5, 7.0):
            sim.schedule(delay, fired.append, "cancelled").cancel()
        sim.run(until=until, max_events=7)
        assert fired == list(range(7))
        assert sim.pending_events == 0


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_events_past_until_do_not_count_against_max_events(scheduler):
    sim, fired = TestMaxEventsBoundary.chain(scheduler, 7)
    sim.schedule(500.0, fired.append, "late")
    sim.run(until=100.0, max_events=7)
    assert fired == list(range(7))
    assert sim.now == 100.0 and sim.pending_events == 1
    # Drained, the late event is the one too many.
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=0)


class PlainHeap(HeapScheduler):
    """A heap the engine does not recognise as one.

    ``Simulator.run`` inlines ``heappop`` only for exactly
    ``HeapScheduler``; under ``until`` this subclass is driven by the
    scheduler-agnostic ``peek()``/``pop()`` loop instead, on identical
    queue contents — the oracle for the inlined bounded loop.
    """

    __slots__ = ()


#: One scheduled event: when (a coarse grid, so instants tie), whether its
#: handle is cancelled up front, and what its callback does besides
#: logging — nothing, arm a follow-up (0 = at ``now``), call ``step()``,
#: or cancel the next event listed.
event_specs = st.tuples(
    st.integers(0, 40).map(lambda quarter: quarter / 4),
    st.booleans(),
    st.sampled_from(["log", "log", "arm-now", "arm-later", "step", "cancel-next"]),
)
untils = st.integers(0, 44).map(lambda quarter: quarter / 4)


def run_bounded_phases(scheduler, specs, phases, advance_to_until):
    """Play ``specs`` through ``run(until=...)`` phase by phase; observe each."""
    sim = Simulator(scheduler)
    log = []
    handles = []

    def fire(index, action):
        log.append((index, sim.now))
        if action == "arm-now":
            sim.schedule(0.0, fire, f"{index}+", "log")
        elif action == "arm-later":
            sim.schedule(1.25, fire, f"{index}+", "log")
        elif action == "step":
            log.append(("stepped", sim.step()))
        elif action == "cancel-next" and index + 1 < len(handles):
            handles[index + 1].cancel()

    for index, (time, _cancelled, action) in enumerate(specs):
        handles.append(sim.schedule_at(time, fire, index, action))
    for handle, (_time, cancelled, _action) in zip(handles, specs):
        if cancelled:
            handle.cancel()
    observed = []
    for until in phases:
        sim.run(until=until, advance_to_until=advance_to_until)
        observed.append((list(log), sim.now, sim.processed_events, sim.pending_events))
    return observed


class TestBoundedHeapLoop:
    """The inlined ``until`` loop against the scheduler-agnostic one."""

    @given(st.lists(event_specs, max_size=30), untils, untils, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_scheduler_agnostic_loop(self, specs, first, more, advance):
        phases = [first, first + more, math.inf]
        inlined = run_bounded_phases(HeapScheduler(), specs, phases, advance)
        for oracle in (PlainHeap(), "calendar"):
            assert inlined == run_bounded_phases(oracle, specs, phases, advance)

    @pytest.mark.parametrize("advance", [True, False])
    def test_cancelled_head_past_until_is_discarded(self, advance):
        observed = []
        for scheduler in (HeapScheduler(), PlainHeap()):
            sim = Simulator(scheduler)
            fired = []
            sim.schedule(1.0, fired.append, "a")
            sim.schedule(6.0, fired.append, "dead").cancel()
            sim.schedule(7.0, fired.append, "b")
            sim.run(until=5.0, advance_to_until=advance)
            # The cancelled head (t=6) is swept although it lies past
            # `until`; the live event behind it stays queued.
            assert sim.pending_events == 1 and sim._cancelled == set()
            assert sim.now == (5.0 if advance else 1.0)
            sim.run(until=10.0, advance_to_until=advance)
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
