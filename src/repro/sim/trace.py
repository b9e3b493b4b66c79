"""Execution tracing.

Algorithms and the workload driver can emit structured trace events
(state transitions, token movements, CS entry/exit).  The recorder is used
by the Gantt-diagram rendering (:mod:`repro.metrics.gantt`) that reproduces
the content of Figures 1 and 4 of the paper, and by debugging tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """A single trace record.

    Attributes
    ----------
    time:
        Simulated time at which the event occurred.
    node:
        Node id the event refers to (``-1`` for global events).
    kind:
        Short machine-readable event kind (e.g. ``"cs_enter"``).
    details:
        Free-form payload (kept small; copied defensively on record).
    """

    time: float
    node: int
    kind: str
    details: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only store of :class:`TraceEvent` records.

    A run without tracing has no recorder at all (``trace=None``, the
    runner's default when ``Scenario.collect_trace`` is unset), so the hot
    path pays one ``is None`` test instead of a call.
    """

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, time: float, node: int, kind: str, **details: Any) -> None:
        """Append one event."""
        self._events.append(TraceEvent(time=time, node=node, kind=kind, details=dict(details)))

    def events(self, kind: Optional[str] = None, node: Optional[int] = None) -> List[TraceEvent]:
        """Return recorded events, optionally filtered by kind and/or node."""
        out = self._events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if node is not None:
            out = [e for e in out if e.node == node]
        return list(out)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)
