"""Event-driven simulation engine.

The engine is intentionally minimal: a queue of timestamped callbacks and
a simulated clock.  Determinism matters more than raw speed for a
protocol-evaluation substrate, so ties on the timestamp are broken by a
monotonically increasing sequence number (insertion order), which makes
every run with the same seed bit-for-bit reproducible.

Fast path
---------
The queue holds plain ``(time, seq, callback, args)`` tuples, so ordering
is decided by CPython's C-level tuple comparison instead of a generated
dataclass ``__lt__`` — ``time`` never ties with itself and ``seq`` is
unique, so comparison never reaches the (uncomparable) callback.
Cancellation is the rare case: it is tracked in a side set of sequence
numbers, and :class:`Event` survives only as a thin handle so existing
callers (e.g. the resend timers in :mod:`repro.core.node`) keep working
unchanged.

Every event is queued the same way: ``push((time, next_seq(), callback,
args))``, where ``push`` is the scheduler's one push callable and
``next_seq`` the ``__next__`` of an :func:`itertools.count` — on the
heap, both are C-level, so queueing costs no Python frame.  The
:class:`Simulator` binds the pair once, as ``_push`` and ``_next_seq``;
its own scheduling methods and the network's sends
(:mod:`repro.sim.network`) call them directly.  :meth:`Simulator.reset`
replaces the counter, so a caller must read ``sim._next_seq`` when it
queues, never keep its own reference.

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
from typing import Any, Callable, Optional, Union

from repro.sim.schedulers import CalendarQueue, HeapScheduler, make_scheduler

SchedulerLike = Union[HeapScheduler, CalendarQueue]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """Handle for a scheduled callback.

    The engine itself queues bare tuples; this object exists only so
    callers can cancel (or inspect) a scheduled callback.  It compares by
    ``(time, seq)`` like the heap entries do, which preserves the historical
    dataclass ordering semantics.

    Handles are generation-scoped: :meth:`Simulator.reset` starts a new
    generation (and a fresh seq space), so a handle kept across a reset
    goes inert — its :meth:`cancel` is a no-op instead of cancelling an
    unrelated new event that happens to reuse its sequence number.
    """

    __slots__ = ("time", "seq", "callback", "args", "_sim", "_generation")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        sim: Optional["Simulator"] = None,
        generation: int = 0,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._sim = sim
        self._generation = generation

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled (inert stale handles: False)."""
        sim = self._sim
        return (
            sim is not None
            and self._generation == sim._generation
            and self.seq in sim._cancelled
        )

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        A handle that survived a :meth:`Simulator.reset` is inert: its
        seq now belongs to a different generation of events, so the
        cancel is silently dropped rather than hitting an innocent
        bystander.
        """
        sim = self._sim
        if sim is not None and self._generation == sim._generation:
            sim.cancel(self.seq)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.seq) == (other.time, other.seq)

    def __hash__(self) -> int:
        # Defining __eq__ suppresses the inherited hash; restore one that
        # is consistent with it ((time, seq) is immutable for the lifetime
        # of the handle), so handles can live in sets and dict keys.
        return hash((self.time, self.seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(time={self.time!r}, seq={self.seq!r}, cancelled={self.cancelled})"


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
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    __slots__ = (
        "_scheduler",
        "_push",
        "_next_seq",
        "now",
        "_running",
        "_processed",
        "_cancelled",
        "_generation",
    )

    def __init__(self, scheduler: Union[str, SchedulerLike, None] = None) -> None:
        if scheduler is None or isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self._scheduler = scheduler
        # The queueing pair (see the module docstring).
        self._push = scheduler.push
        self._next_seq = itertools.count().__next__
        self.now: float = 0.0
        self._running = False
        self._processed = 0
        # Sequence numbers of cancelled-but-still-queued events.
        self._cancelled: set[int] = set()
        # Bumped by reset(): stale Event handles from an older generation
        # are inert (their seqs refer to recycled numbers).
        self._generation = 0

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def processed_events(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._scheduler)

    @property
    def scheduler_name(self) -> str:
        """Selection name of the active event scheduler."""
        return self._scheduler.name

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def _raise_past(self, time: float) -> None:
        """Shared past-time error for every absolute-time scheduling call.

        The (cheap) comparison stays inline in each caller; only the slow
        failure path is deduplicated here, so the hot paths pay no extra
        Python frame per event.
        """
        raise SimulationError(
            f"cannot schedule an event in the past (time={time!r} < now={self.now!r})"
        )

    @staticmethod
    def _raise_runaway(max_events: Optional[int]) -> None:
        """Shared ``max_events`` error of the three loops in :meth:`run`."""
        raise SimulationError(
            f"max_events={max_events} exceeded; possible livelock in the protocol"
        )

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        Parameters
        ----------
        delay:
            Non-negative offset from the current simulated time.
        callback:
            Callable invoked when the event fires.
        *args:
            Positional arguments forwarded to the callback.

        Returns
        -------
        Event
            Handle that can be cancelled with :meth:`Event.cancel`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay!r})")
        time = self.now + delay
        seq = self._next_seq()
        self._push((time, seq, callback, args))
        return Event(time, seq, callback, args, self, self._generation)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        time = float(time)
        if time < self.now:
            self._raise_past(time)
        seq = self._next_seq()
        self._push((time, seq, callback, args))
        return Event(time, seq, callback, args, self, self._generation)

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast-path :meth:`schedule_at` that allocates no :class:`Event`.

        For callers that never cancel.  Semantics are otherwise identical
        to :meth:`schedule_at`.  (The network's sends queue through the
        pair directly instead; see the module docstring.)
        """
        time = float(time)
        if time < self.now:
            self._raise_past(time)
        self._push((time, self._next_seq(), callback, args))

    def post_in(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast-path :meth:`schedule` that allocates no :class:`Event`.

        The relative-delay twin of :meth:`post_at`, for hot callers (the
        workload clients' think-time/CS timers on crash-free runs) whose
        events are never cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay!r})")
        time = self.now + delay
        self._push((time, self._next_seq(), callback, args))

    def cancel(self, seq: int) -> None:
        """Cancel the queued event with sequence number ``seq``.

        ``seq`` must be one this generation issued, as an :class:`Event`
        handle's is (:meth:`Event.cancel` drops a stale handle's).
        """
        self._cancelled.add(seq)
        # Cancelling an already-fired event would pin its seq forever;
        # prune whenever the set outgrows the queue (cancels are rare,
        # so the sweep is effectively free).
        if len(self._cancelled) > 64 and len(self._cancelled) > len(self._scheduler):
            self._cancelled.intersection_update(self._scheduler.seqs())

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        is empty.
        """
        pop = self._scheduler.pop
        cancelled = self._cancelled
        while True:
            entry = pop()
            if entry is None:
                return False
            time, seq, callback, args = entry
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.now = time
            self._processed += 1
            callback(*args)
            return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        advance_to_until: bool = True,
    ) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` events have been executed.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            this time.  The clock is advanced to ``until`` in that case.
        max_events:
            Safety valve for runaway protocols: a run of exactly
            ``max_events`` events completes, and :class:`SimulationError`
            is raised when one more is about to run — with or without
            ``until``, on every scheduler.  Cancelled entries and events
            past ``until`` never count.
        advance_to_until:
            When false, the clock is left at the last executed event
            instead of being advanced to ``until`` — for callers using
            ``until`` purely as a stall cap, where reporting the cap as
            the reached simulation time would be a lie.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        scheduler = self._scheduler
        cancelled = self._cancelled
        # max_events is a countdown, not a loop structure, and means the
        # same in every loop: a run of exactly max_events events
        # completes, one more about to run raises.
        budget = -1 if max_events is None else max_events
        try:
            if type(scheduler) is HeapScheduler:
                # The heap inline, draining or bounded by `until` alike:
                # this is the loop of every default run, and `until` is
                # how every run with a fault layer is driven.  Popping
                # before looking at the time keeps the drain free of a
                # peek; the one live entry found past the horizon goes
                # back under its own (time, seq), so order is untouched.
                queue = scheduler.entries
                heappop = heapq.heappop
                horizon = math.inf if until is None else until
                while queue:
                    time, seq, callback, args = heappop(queue)
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
                    if time > horizon:
                        heapq.heappush(queue, (time, seq, callback, args))
                        break
                    if budget == 0:
                        self._raise_runaway(max_events)
                    budget -= 1
                    self.now = time
                    self._processed += 1
                    callback(*args)
            elif until is None:
                # Batch drain: iterate the scheduler's ready window in
                # place instead of paying a pop() call per event.  The
                # cursor is re-read each iteration and advanced *before*
                # the callback, so in-window insertions and nested
                # ``step()`` calls made by a callback stay consistent
                # with this loop.
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
                        if budget == 0:
                            self._raise_runaway(max_events)
                        budget -= 1
                        self.now = time
                        self._processed += 1
                        callback(*args)
            else:
                # Scheduler-agnostic peek/pop loop: only a non-heap
                # scheduler bounded by `until` comes here.
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
                    if budget == 0:
                        self._raise_runaway(max_events)
                    budget -= 1
                    pop()
                    self.now = time
                    self._processed += 1
                    callback(*args)
            if until is not None and advance_to_until:
                self.now = max(self.now, until)
        finally:
            self._running = False

    def reset(self) -> None:
        """Clear all pending events and reset the clock to zero.

        Starts a new handle generation: :class:`Event` handles obtained
        before the reset go inert (see :meth:`Event.cancel`), because the
        seq space restarts and their numbers will be reused by unrelated
        new events.
        """
        self._scheduler.clear()
        self._cancelled.clear()
        self.now = 0.0
        self._next_seq = itertools.count().__next__
        self._processed = 0
        self._generation += 1
