"""Pluggable event-queue schedulers for the simulation engine.

The engine (:mod:`repro.sim.engine`) is generic over *how* pending events
are stored: every scheduler queues the same plain ``(time, seq, callback,
args)`` tuples and pops them in exactly ``(time, seq)`` order, so a run
is bit-for-bit identical whichever scheduler executes it — that is the
**determinism contract**, and the randomized differential tests in
``tests/sim/test_schedulers.py`` hold every implementation to it.

Two schedulers are provided:

* :class:`HeapScheduler` (``"heap"``) — the binary-heap reference
  implementation, a thin wrapper over :mod:`heapq`.  O(log n) per
  operation, unbeatable robustness, and the semantics every other
  scheduler is tested against.
* :class:`CalendarQueue` (``"calendar"``) — a lazily sorted calendar
  queue tuned for the simulator's actual access patterns.  A binary
  heap pays O(log n) *comparison calls* per pop (~1.5 us per pop at
  200k-event depth); the calendar queue instead keeps a sorted **spine**
  consumed through a cursor, an unsorted **pending** tier filled by bare
  ``list.append``, and a bounded **dispatch window** the engine iterates
  in place — so the per-event cost collapses to one C-level sort share
  plus an index increment, which is what pushes no-op dispatch past the
  heap by >2x (the traced ``benchmarks/e2e`` run records the ratio as
  ``sim.engine.calendar_run_ratio``).  That gain
  does not survive a real run: ``benchmarks/e2e`` measured the calendar
  queue 1.13–1.26x *slower* than the heap end to end on all four
  workloads, so nothing should select it; it stays because the
  benchmark's per-layer probes still measure it.

Scheduler push protocol
-----------------------
Every scheduler exposes one ``push(entry)`` callable, and everything that
queues an event goes through it: the :class:`~repro.sim.engine.Simulator`
binds it once (with a C-level sequence counter beside it), and its
``schedule``/``schedule_at`` and the network's sends call the pair
directly.  For the heap, ``push`` is
``partial(heappush, entries)`` — a C-level callable, so queueing an
event costs no Python frame.  The calendar queue's ``push`` is a method
that appends past its window and bisects into it otherwise; that frame
per event is its price (it is slated for deletion).

Selection is by name through :func:`make_scheduler`, driven only by
``Scenario(scheduler=...)`` (see :mod:`repro.experiments.scenario`); the
default is the heap.  Because of the determinism contract the choice
never changes a result, which is also why it is hash-neutral for the run
cache when left unset.  A scheduler offers only what the engine calls:
``push``, ``len`` and ``seqs`` (for pruning cancellations), plus
``entries`` on the heap, which the run loop drains inline, and
``take_ready``/``peek``/``pop`` on the calendar queue.
"""

from __future__ import annotations

import heapq
from bisect import insort
from functools import partial
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "CalendarQueue",
    "HeapScheduler",
    "SCHEDULERS",
    "available_schedulers",
    "make_scheduler",
    "resolve_scheduler_name",
]

#: Queue entry shape shared with the engine: ``(time, seq, callback, args)``.
Entry = Tuple[float, int, object, tuple]

_NEG_INF = float("-inf")


class HeapScheduler:
    """Binary-heap scheduler — the reference implementation.

    A thin wrapper over :mod:`heapq` on a plain list.  The engine's
    run loop special-cases this class and runs ``heappop`` inline on
    :attr:`entries`, and :attr:`push` is a C-level
    ``partial(heappush, entries)``, so wrapping costs nothing.
    """

    name = "heap"

    __slots__ = ("entries", "push")

    def __init__(self) -> None:
        #: The raw heap list; the engine may operate on it directly.
        self.entries: List[Entry] = []
        #: Insert one entry (see the module docstring's push protocol).
        self.push = partial(heapq.heappush, self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        """Drop every queued entry."""
        self.entries.clear()

    def seqs(self) -> Iterator[int]:
        """Iterate the sequence numbers of all queued entries."""
        return (entry[1] for entry in self.entries)


class CalendarQueue:
    """Lazily sorted calendar queue.

    Structure
    ---------
    ``_window`` / :attr:`pos`
        The current dispatch window: a bounded sorted slice (at most
        :data:`CHUNK` entries at refill time) consumed through the read
        cursor :attr:`pos`.  Popping is an index increment — no heap
        sift, no memmove.
    ``_spine`` / ``_spine_pos``
        The sorted future, consumed lazily through a cursor; windows are
        sliced off its front.  Never mutated in place, so a huge
        pre-scheduled workload is sorted exactly once.
    ``_pending``
        Unsorted new arrivals, filled by :meth:`push` with a bare
        ``list.append``.

    Refill (:meth:`take_ready`) slices the next window off the spine.
    Pending entries are folded in lazily: while every pending entry is
    later than the prospective window (one C-level ``min`` checks), they
    stay untouched; otherwise pending is sorted and merged with the
    spine remainder — a concatenation of two sorted runs, which Timsort
    merges at C speed in one gallop.

    ``_threshold`` is maintained as a lower bound of everything
    *outside* the window (spine remainder and pending), so :meth:`push`
    can route entries below it — which must land inside the live window
    to fire in order — to a ``bisect.insort`` into the window.  Bounding
    the window bounds that memmove.

    Ordering argument (the determinism contract): the window is sorted
    and every outside entry is ``>= _threshold >=`` every window
    entry's time; within a timestamp tie across the boundary the window
    entries carry smaller sequence numbers, because ties are split only
    by sorted-order slicing and new (higher-seq) arrivals only ever join
    the pending tier.  Hence draining the window before the next refill
    yields the exact global ``(time, seq)`` order a heap would.
    """

    name = "calendar"

    #: Maximum entries sliced into the dispatch window per refill.
    CHUNK = 4096

    __slots__ = ("_window", "pos", "_spine", "_spine_pos", "_pending", "_threshold")

    def __init__(self) -> None:
        self._window: List[Entry] = []
        #: Read cursor into the window (public: the engine's batch drain
        #: loop keeps it in sync while iterating the window in place).
        self.pos = 0
        self._spine: List[Entry] = []
        self._spine_pos = 0
        self._pending: List[Entry] = []
        # Lower bound of every entry outside the dispatch window.
        self._threshold = _NEG_INF

    def push(self, entry: Entry) -> None:
        """Insert one entry: into the pending tier, or below the threshold
        into the live window.

        The window insertion is correct because the engine never
        schedules into the past: the entry's time is ``>= now``, hence at
        or after the entry at ``pos - 1``, so bisecting from :attr:`pos`
        keeps the window sorted and the cursor untouched.
        """
        if entry[0] >= self._threshold:
            self._pending.append(entry)
        else:
            insort(self._window, entry, self.pos)

    # ------------------------------------------------------------------ #
    # refill machinery
    # ------------------------------------------------------------------ #
    def _merge_pending(self) -> None:
        """Fold the sorted pending tier into the spine (two-run Timsort merge)."""
        pending = self._pending
        spine_pos = self._spine_pos
        if spine_pos < len(self._spine):
            merged = self._spine[spine_pos:]
            merged += pending
            merged.sort()  # two sorted runs -> one C-level galloping merge
            self._spine = merged
        else:
            self._spine = pending
        self._spine_pos = 0
        self._pending = []

    def take_ready(self) -> Optional[List[Entry]]:
        """Return the dispatch window with unconsumed entries, else ``None``.

        Engine batch-drain hook: the caller iterates the returned list
        from :attr:`pos`, advancing :attr:`pos` itself as it consumes
        entries (callbacks may push while iterating; below-threshold
        insertions mutate the same list in place, never replace it).
        """
        if self.pos < len(self._window):
            return self._window
        pending = self._pending
        spine = self._spine
        spine_pos = self._spine_pos
        if pending:
            pending.sort()
            end = spine_pos + self.CHUNK
            # While every pending entry sorts after the prospective
            # window, defer folding it in; one tuple compare decides.
            if spine_pos >= len(spine) or pending[0] < (
                spine[end - 1] if end <= len(spine) else spine[-1]
            ):
                self._merge_pending()
                spine = self._spine
                spine_pos = 0
                pending = self._pending  # now []
        elif spine_pos >= len(spine):
            # Fully empty: reset so the spine's memory is released and
            # new arrivals take the append fast path again.
            if spine:
                self._spine = []
                self._spine_pos = 0
            if self._window:
                self._window = []
            self.pos = 0
            self._threshold = _NEG_INF
            return None
        end = spine_pos + self.CHUNK
        self._window = spine[spine_pos:end]
        self.pos = 0
        self._spine_pos = min(end, len(spine))
        # Lower bound of everything left outside the window.
        if self._spine_pos < len(spine):
            threshold = spine[self._spine_pos][0]
            if pending and pending[0][0] < threshold:
                threshold = pending[0][0]
        elif pending:
            threshold = pending[0][0]
        else:
            threshold = self._window[-1][0]
        self._threshold = threshold
        return self._window

    def pop(self) -> Optional[Entry]:
        """Remove and return the smallest entry, or ``None`` when empty."""
        window = self.take_ready()
        if window is None:
            return None
        pos = self.pos
        self.pos = pos + 1
        return window[pos]

    def peek(self) -> Optional[Entry]:
        """Return the smallest entry without removing it (``None`` if empty)."""
        window = self.take_ready()
        return window[self.pos] if window is not None else None

    def __len__(self) -> int:
        return (
            len(self._window)
            - self.pos
            + len(self._spine)
            - self._spine_pos
            + len(self._pending)
        )

    def clear(self) -> None:
        """Drop every queued entry, consumed window entries included."""
        self._window.clear()
        self._spine.clear()
        self._pending.clear()
        self.pos = self._spine_pos = 0
        self._threshold = _NEG_INF

    def seqs(self) -> Iterator[int]:
        """Iterate the sequence numbers of all queued entries."""
        for entry in self._window[self.pos:]:
            yield entry[1]
        for entry in self._spine[self._spine_pos:]:
            yield entry[1]
        for entry in self._pending:
            yield entry[1]


#: Registered scheduler implementations, by selection name.
SCHEDULERS = {
    HeapScheduler.name: HeapScheduler,
    CalendarQueue.name: CalendarQueue,
}


def available_schedulers() -> Tuple[str, ...]:
    """Names accepted by :func:`make_scheduler` / ``Scenario(scheduler=...)``."""
    return tuple(sorted(SCHEDULERS))


def resolve_scheduler_name(name: Optional[str]) -> str:
    """Resolve an optional scheduler name: ``None`` means the heap."""
    if name is None:
        name = HeapScheduler.name
    if name not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        )
    return name


def make_scheduler(name: Optional[str] = None):
    """Build a scheduler instance from an optional selection name."""
    return SCHEDULERS[resolve_scheduler_name(name)]()
