"""Workload driver: the one client that replays a process's request stream.

A :class:`Client` sits on top of each process's allocator and owns three
things: a timer for the next *arrival*, a FIFO of arrived requests, and
the one request currently with the allocator (waiting for its grant or
inside its critical section).  It reports every lifecycle event to the
shared :class:`~repro.metrics.collector.MetricsCollector`, which also
performs the online safety check.

The closed and the open loop differ in one decision — *when the next
arrival is armed*:

* **closed loop** (Section 5.1: think -> request -> critical section ->
  release -> think -> ...): when the critical section completes, so
  ``RequestSpec.think_time`` is the gap since the previous *completion*
  and the FIFO never holds more than the request about to be dispatched;
* **open loop** (:class:`~repro.workload.spec.OpenLoopSpec` /
  :class:`~repro.workload.spec.TraceReplaySpec`): when the previous
  request *arrives*, so ``think_time`` is the gap since the previous
  arrival, a slow protocol builds a client-side backlog instead of
  throttling its own load, and waiting time measures arrival-to-grant,
  backlog included.

The client is also a crash-lifecycle participant
(:mod:`repro.sim.lifecycle`): when its node goes down it cancels the
two timers it owns (each is the sequence number
:meth:`~repro.sim.engine.Simulator.schedule` returned), drops its
backlog and reports an interrupted critical section to the collector
(:meth:`MetricsCollector.on_abort`); when the
node reboots it resumes from the next request of its stream — provided
the allocator came back idle (protocols without a reboot handler stop
issuing instead of crashing the run).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, Optional

from repro.allocator import MultiResourceAllocator
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.workload.generator import RequestSpec


def last_grant(clients: "Iterable[Client]") -> Optional[float]:
    """Simulated time of the latest grant across ``clients`` (``None``: none yet)."""
    return max((c.last_grant for c in clients if c.last_grant is not None), default=None)


class Client:
    """Drives one process through its workload.

    Parameters
    ----------
    sim:
        Simulation engine.
    process:
        Process id (matches the allocator's node id).
    allocator:
        The protocol endpoint of this process.
    requests:
        Iterator of :class:`RequestSpec` — an infinite workload stream or
        a finite scripted list (an exhausted iterator simply stops the
        client).
    metrics:
        Shared collector.  Its ``on_issue`` fires at *arrival* time.
    stop_issuing_at:
        No new request is issued at or after this simulated time; requests
        already issued run to completion.
    closed_loop:
        Whether the next arrival waits for the previous request's
        completion (see the module docstring).  The runner passes what the
        workload declares (``WorkloadSpec.closed_loop``).
    max_requests:
        Optional hard cap on the number of requests this client issues.
    """

    def __init__(
        self,
        sim: Simulator,
        process: int,
        allocator: MultiResourceAllocator,
        requests: Iterator[RequestSpec],
        metrics: MetricsCollector,
        stop_issuing_at: float,
        closed_loop: bool,
        max_requests: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.process = process
        self.allocator = allocator
        self.requests = iter(requests)
        self.metrics = metrics
        self.stop_issuing_at = stop_issuing_at
        self.closed_loop = closed_loop
        self.max_requests = max_requests
        self.issued = 0
        self.completed = 0
        #: Largest client-side backlog observed (arrived, not yet
        #: dispatched to the allocator) — an overload indicator; at most
        #: 1 in the closed loop.
        self.max_backlog = 0
        self.last_grant: Optional[float] = None  # time of the latest grant
        self.abandoned = 0  # issued requests that died with the node
        self._queue: Deque[RequestSpec] = deque()
        self._pending: Optional[RequestSpec] = None  # next arrival, timer armed
        self._current: Optional[RequestSpec] = None  # with the allocator / in CS
        self.stopped = False  # no longer admitting new arrivals
        self._in_cs = False
        # Seqs of the armed timers, which on_crash cancels.
        self._arrival_timer: Optional[int] = None
        self._cs_timer: Optional[int] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Arm the first arrival of this client."""
        self._arm_arrival()

    @property
    def waiting(self) -> int:
        """Issued requests this client still holds: the one with the allocator
        (awaiting its grant or in its critical section) plus the arrival
        FIFO.  A crash empties both into :attr:`abandoned`.
        """
        return (self._current is not None) + len(self._queue)

    @property
    def waiting_index(self) -> Optional[int]:
        """Stream index of the oldest request still held (``None`` if idle)."""
        held = self._current or (self._queue[0] if self._queue else None)
        return held.index if held is not None else None

    # ------------------------------------------------------------------ #
    # crash lifecycle
    # ------------------------------------------------------------------ #
    def on_crash(self, time: float) -> None:
        """The node went down: drop timers, backlog and any interrupted CS.

        Every request the client held is *abandoned* and will never
        complete: queued arrivals die with the node (their records stay
        ungranted); a request waiting for its grant is forgotten by the
        rebooting allocator; a request inside its critical section is also
        *aborted* — the collector frees its resources at the crash instant.
        """
        for timer in (self._arrival_timer, self._cs_timer):
            if timer is not None:
                self.sim.cancel(timer)
        self._arrival_timer = self._cs_timer = None
        spec = self._current
        if self._in_cs and spec is not None:
            self.metrics.on_abort(time, self.process, spec.index)
            self._in_cs = False
        self.abandoned += self.waiting
        self._current = None
        self._pending = None
        self._queue.clear()

    def on_recover(self, time: float) -> None:
        """The node rebooted: resume arrivals from the next stream entry.

        Runs after the allocator's own recovery handler (participants are
        notified allocator-first), so an idle allocator is ready for the
        next ``acquire``.  An allocator still inside a critical section
        here is parked in the one the crash aborted — only possible for
        a protocol without a reboot handler, which kept its CS across
        the outage — and is released first: nobody is running that CS,
        and the resources it holds would wedge every other node forever.
        If the allocator still did not come back idle, the client stops
        issuing instead of raising on the next acquire.
        """
        if self.stopped:
            return
        if self.allocator.in_critical_section:
            self.allocator.release()
        if not self.allocator.is_idle:
            self.stopped = True
            return
        self._arm_arrival()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _arm_arrival(self) -> None:
        if self.max_requests is not None and self.issued >= self.max_requests:
            self.stopped = True
            return
        try:
            spec = next(self.requests)
        except StopIteration:
            self.stopped = True
            return
        self._pending = spec
        self._arrival_timer = self.sim.schedule(spec.think_time, self._on_arrival)

    def _on_arrival(self) -> None:
        self._arrival_timer = None
        spec = self._pending
        self._pending = None
        if spec is None:  # pragma: no cover - defensive
            return
        if self.sim.now >= self.stop_issuing_at:
            self.stopped = True
            return
        self.issued += 1
        self.metrics.on_issue(self.sim.now, self.process, spec.index, spec.resources)
        self._queue.append(spec)
        if len(self._queue) > self.max_backlog:
            self.max_backlog = len(self._queue)
        # Open loop: arrivals keep coming whatever the service is doing.
        # The next one is armed before dispatch so a same-instant grant
        # cannot delay the arrival process.
        if not self.closed_loop:
            self._arm_arrival()
        if self._current is None:
            self._dispatch()

    def _dispatch(self) -> None:
        spec = self._queue.popleft()
        self._current = spec
        self.allocator.acquire(spec.resources, self._on_granted)

    def _on_granted(self) -> None:
        spec = self._current
        if spec is None:
            # The request was abandoned by a crash, but the allocator's
            # distributed acquisition completed anyway: an allocator
            # without a reboot handler keeps its grant callback across
            # the outage.  The grant is not recorded (the request died
            # with the crash) — but the resources must not stay held by
            # a critical section nobody is running, so release them
            # straight back to the protocol.
            self.allocator.release()
            return
        self.last_grant = self.sim.now
        self.metrics.on_grant(self.last_grant, self.process, spec.index)
        self._in_cs = True
        self._cs_timer = self.sim.schedule(spec.cs_duration, self._on_cs_done)

    def _on_cs_done(self) -> None:
        self._cs_timer = None
        spec = self._current
        if spec is None:  # pragma: no cover - defensive
            return
        # Record the release before letting the protocol hand resources to
        # the next process, so same-timestamp grants never look like
        # safety violations.
        self.metrics.on_release(self.sim.now, self.process, spec.index)
        self.completed += 1
        self._in_cs = False
        self._current = None
        self.allocator.release()
        if self.closed_loop:
            self._arm_arrival()
        elif self._queue:
            self._dispatch()
