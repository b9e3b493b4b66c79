"""Event-driven simulation engine.

The engine is intentionally minimal: a queue of timestamped callbacks and
a simulated clock.  Determinism matters more than raw speed for a
protocol-evaluation substrate, so ties on the timestamp are broken by a
monotonically increasing sequence number (insertion order), which makes
every run with the same seed bit-for-bit reproducible.

Two ways to queue, one way to cancel
------------------------------------
Every queued event is a plain ``(time, seq, callback, args)`` tuple, so
ordering is decided by CPython's C-level tuple comparison — ``time``
never ties with itself and ``seq`` is unique, so comparison never
reaches the (uncomparable) callback.

An event is queued as ``push((time, next_seq(), callback, args))``,
where ``next_seq`` is the ``__next__`` of an :func:`itertools.count`
and ``push`` one of two callables:

* the scheduler's push (``_push``), for every timer and every message
  whose delivery time its sender cannot promise to be in order;
* the **FIFO lane**'s ``deque.append``, for entries pushed in
  non-decreasing ``(time, seq)`` order.  The paper's links have one
  constant latency γ (Section 3.1), so a delivery sent at ``now`` is due
  at ``now + γ``: ``now`` never decreases, IEEE addition is monotone and
  ``seq`` strictly increases, so a constant-latency network's
  deliveries arrive already sorted, and the lane spares each of them a
  heap sift on push and on pop.  One lane serves one γ:
  :meth:`Simulator.claim_lane` hands it to its first claimant, and the
  scheduler's push to every later one.

On the heap both pushes are C-level, so queueing costs no Python frame.
The run loop dispatches the smaller of the lane's head and the heap's
head (one tuple comparison), so it runs events in exactly the ``(time,
seq)`` order one heap holding every entry would.  Only the heap has a
lane: under any other scheduler ``claim_lane`` returns the scheduler's
own push, and the lane stays empty.

:meth:`Simulator.schedule` (a delay from now) and
:meth:`Simulator.schedule_at` (an absolute instant) are the public calls
built on the scheduler's pair; the network's sends
(:mod:`repro.sim.network`) push onto the pair, or the lane, directly.

A timer *is* its sequence number: both scheduling calls return the
``seq`` they queued, and :meth:`Simulator.cancel` takes it back.
Cancellation is the rare case, tracked in a side set of sequence numbers
that the run loop checks as it pops.  A send returns a time, never a
``seq``, so no lane entry is ever cancelled.

*How* the tuples are stored is pluggable (:mod:`repro.sim.schedulers`):
the binary heap is the default and the reference implementation, and a
calendar queue trades heap sifts for one amortised sort per dispatch
window.  Every scheduler pops in identical ``(time, seq)`` order, so the
choice never changes a result; it is made per :class:`Simulator`, which
the runner constructs from ``Scenario.scheduler``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Optional, Union

from repro.sim.schedulers import CalendarQueue, HeapScheduler, make_scheduler

SchedulerLike = Union[HeapScheduler, CalendarQueue]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Simulator:
    """Discrete-event simulator with a simulated clock.

    Parameters
    ----------
    scheduler:
        Event-queue implementation: a name from
        :data:`repro.sim.schedulers.SCHEDULERS` (``"heap"``,
        ``"calendar"``), a pre-built scheduler instance, or ``None``
        for the heap.
        Results are bit-identical across schedulers; see
        :mod:`repro.sim.schedulers` for the determinism contract.

    Attributes
    ----------
    now:
        Current simulated time.  A plain slot so that the per-message
        readers (network, clients, lifecycle) pay an attribute load, not
        a property frame; read-only by convention, like
        ``HeapScheduler.entries`` — only the engine's loops write it.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> timer = sim.schedule(0.5, fired.append, "b")
    >>> _ = sim.schedule_at(1.0, fired.append, "c")
    >>> sim.cancel(timer)
    >>> sim.run()
    >>> fired
    ['c', 'a']
    >>> sim.now
    1.5
    """

    __slots__ = (
        "_scheduler", "_push", "_next_seq", "_lane", "_lane_claimed",
        "now", "_running", "_processed", "_cancelled",
    )

    def __init__(self, scheduler: Union[str, SchedulerLike, None] = None) -> None:
        if scheduler is None or isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self._scheduler = scheduler
        # The queueing pair (see the module docstring).
        self._push = scheduler.push
        self._next_seq = itertools.count().__next__
        # The FIFO lane (see the module docstring); only the heap has one.
        self._lane: deque = deque()
        self._lane_claimed = type(scheduler) is not HeapScheduler
        self.now: float = 0.0
        self._running = False
        self._processed = 0
        # Sequence numbers of cancelled-but-still-queued events.
        self._cancelled: set[int] = set()

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._scheduler) + len(self._lane)

    @property
    def scheduler_name(self) -> str:
        """Selection name of the active event scheduler."""
        return self._scheduler.name

    def claim_lane(self) -> Callable[[tuple], None]:
        """The push for entries that will arrive in ``(time, seq)`` order.

        The first call takes the FIFO lane and returns its append; every
        later call, and every call under a scheduler other than the
        heap, returns the scheduler's push.  The caller promises that
        everything it pushes through the lane's append is due no earlier
        than what it pushed before (see the module docstring).
        """
        if self._lane_claimed:
            return self._push
        self._lane_claimed = True
        return self._lane.append

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> int:
        """Queue ``callback(*args)`` to run ``delay`` time units from now.

        Returns the event's sequence number, which is all :meth:`cancel`
        needs.  ``delay`` must be non-negative (NaN is rejected too).
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay!r})")
        seq = self._next_seq()
        self._push((self.now + delay, seq, callback, args))
        return seq

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> int:
        """Queue ``callback(*args)`` at the absolute simulated ``time``.

        The event lands exactly on ``time`` (``schedule(time - now)``
        would round whenever ``now != 0``).  Returns the event's sequence
        number; ``time`` must not be before ``now`` (NaN is rejected too).
        """
        time = float(time)
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule an event in the past (time={time!r} < now={self.now!r})"
            )
        seq = self._next_seq()
        self._push((time, seq, callback, args))
        return seq

    def cancel(self, seq: int) -> None:
        """Cancel the queued event that ``schedule``/``schedule_at`` returned ``seq`` for.

        The event is skipped when it is popped.  Cancelling twice, or
        cancelling an event that already fired, is harmless.
        """
        self._cancelled.add(seq)
        # Cancelling an already-fired event would pin its seq forever;
        # prune whenever the set outgrows the queue (cancels are rare,
        # so the sweep is effectively free).
        if len(self._cancelled) > 64 and len(self._cancelled) > len(self._scheduler):
            self._cancelled.intersection_update(self._scheduler.seqs())

    def clear(self) -> None:
        """Drop every queued event, cancelled or not, and forget the cancellations.

        For a finished run: a queued event's callback holds the object
        that queued it, which holds this simulator, so the events a run
        leaves queued (a fault run stopped at its cap) tie its objects
        into reference cycles that only the cyclic collector could free.
        """
        self._scheduler.clear()
        self._lane.clear()
        self._cancelled.clear()

    @staticmethod
    def _raise_runaway(max_events: Optional[int]) -> None:
        """Shared ``max_events`` error of the three loops in :meth:`run`."""
        raise SimulationError(
            f"max_events={max_events} exceeded; possible livelock in the protocol"
        )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` events have been executed.

        Parameters
        ----------
        until:
            If given, stop before the first live event that would fire
            strictly after this time.  The clock stays at the last
            executed event: ``until`` is a stall cap, and the time a run
            reports is the time its last event happened.
        max_events:
            Safety valve for runaway protocols: a run of exactly
            ``max_events`` events completes, and :class:`SimulationError`
            is raised when one more is about to run — with or without
            ``until``, on every scheduler.  Cancelled entries and events
            past ``until`` never count.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        scheduler = self._scheduler
        cancelled = self._cancelled
        # max_events is a cap on the event counter, not a loop
        # structure, and means the same in every loop: a run of exactly
        # max_events events completes, one more about to run raises.
        # Each loop counts in a local and stores it before every
        # callback, so `processed_events` is current inside callbacks.
        processed = self._processed
        limit = -1 if max_events is None else processed + max_events
        try:
            if type(scheduler) is HeapScheduler:
                # The heap and the FIFO lane inline, draining or bounded
                # by `until` alike: this is the loop of every default
                # run, and `until` is how every run with a fault layer
                # is driven.  Each turn dispatches the smaller head of
                # the two queues (see the module docstring).
                #
                # A lane head is read in place and popped only when it
                # runs: one past the horizon, or one too many for
                # max_events, simply stays at the front of the lane.
                # No lane entry is ever cancelled, so its turn skips the
                # cancellation check; it is the turn of nearly every
                # message, hence the dispatch written out twice.
                #
                # A heap head is popped before its time is looked at,
                # which keeps the drain free of a peek; the one live
                # entry found past the horizon, or one too many for
                # max_events, goes back under its own (time, seq), so
                # order is untouched.
                queue = scheduler.entries
                lane = self._lane
                popleft = lane.popleft
                heappop = heapq.heappop
                horizon = math.inf if until is None else until
                while True:
                    if lane:
                        entry = lane[0]
                        if not queue or entry < queue[0]:
                            time, _seq, callback, args = entry
                            if time > horizon:
                                break
                            if processed == limit:
                                self._raise_runaway(max_events)
                            popleft()
                            self.now = time
                            processed += 1
                            self._processed = processed
                            callback(*args)
                            continue
                    elif not queue:
                        break
                    entry = heappop(queue)
                    time, seq, callback, args = entry
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
                    if time > horizon:
                        heapq.heappush(queue, entry)
                        break
                    if processed == limit:
                        heapq.heappush(queue, entry)
                        self._raise_runaway(max_events)
                    self.now = time
                    processed += 1
                    self._processed = processed
                    callback(*args)
            elif until is None:
                # Batch drain: iterate the scheduler's ready window in
                # place instead of paying a pop() call per event.  The
                # cursor is re-read each iteration and advanced *before*
                # the callback, so in-window insertions made by a
                # callback stay consistent with this loop.
                while True:
                    window = scheduler.take_ready()
                    if window is None:
                        break
                    while True:
                        pos = scheduler.pos
                        if pos >= len(window):
                            break
                        time, seq, callback, args = window[pos]
                        scheduler.pos = pos + 1
                        if cancelled and seq in cancelled:
                            cancelled.discard(seq)
                            continue
                        if processed == limit:
                            scheduler.pos = pos  # the entry stays queued
                            self._raise_runaway(max_events)
                        self.now = time
                        processed += 1
                        self._processed = processed
                        callback(*args)
            else:
                # Peek/pop loop: only the calendar queue bounded by
                # `until` comes here.
                peek = scheduler.peek
                pop = scheduler.pop
                while True:
                    entry = peek()
                    if entry is None:
                        break
                    time, seq, callback, args = entry
                    if cancelled and seq in cancelled:
                        pop()
                        cancelled.discard(seq)
                        continue
                    if time > until:
                        break
                    if processed == limit:
                        self._raise_runaway(max_events)
                    pop()
                    self.now = time
                    processed += 1
                    self._processed = processed
                    callback(*args)
        finally:
            self._running = False
