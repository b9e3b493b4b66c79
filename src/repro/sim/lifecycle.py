"""Node crash/recovery lifecycle delivery.

The fault layer (:mod:`repro.sim.faults`) models the *network* side of a
crash — a down node's sends are lost, and messages due at it are held
until it reboots (lost, if it never does).  This module adds the
*process* side: every outage window a fault spec declares through
:meth:`~repro.sim.faults.FaultSpec.crash_windows` is turned into two
lifecycle events delivered to the node's participants (its protocol
allocator and its workload client):

* ``on_crash(time)`` at the start of the window — participants suspend
  their local timers (think-time clients) so a dead
  node stops computing;
* ``on_recover(time)`` at its end — participants discard volatile state
  and resume.

Listeners (e.g. the :class:`repro.core.recovery.RecoveryCoordinator`)
observe the same transitions *before* the participants do, so recovery
bookkeeping — cancelling a pending crash detection, fencing regenerated
tokens — is applied before a rebooting node acts on its own state.

Determinism: windows are scheduled up front (before the workload clients
start), so lifecycle events carry the lowest sequence numbers at their
timestamp and fire before any same-time protocol event — in every
process that runs the scenario.  When a fault model declares no windows
the lifecycle layer is never instantiated, which keeps the no-crash path
bit-identical to the pre-lifecycle substrate.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.metrics.columns import DowntimeColumns
from repro.sim.engine import Simulator

__all__ = ["LifecycleListener", "LifecycleParticipant", "NodeLifecycle"]


class LifecycleParticipant(Protocol):
    """Anything that reacts to its node going down and coming back."""

    def on_crash(self, time: float) -> None:
        """The participant's node halts at simulated ``time``."""

    def on_recover(self, time: float) -> None:
        """The participant's node reboots at simulated ``time``."""


class LifecycleListener(Protocol):
    """Observer of lifecycle transitions, notified before participants."""

    def node_crashed(self, node: int, time: float) -> None:
        """Node ``node`` went down at simulated ``time``."""

    def node_recovered(self, node: int, time: float) -> None:
        """Node ``node`` came back at simulated ``time``."""


class NodeLifecycle:
    """Schedules and delivers crash/recover events for one simulation run.

    Parameters
    ----------
    sim:
        Simulation engine; events are scheduled at construction time.
    windows:
        ``(node, at, recover_at)`` outage windows (``recover_at`` may be
        ``math.inf``), typically ``faults.crash_windows()``.
        Overlapping windows for one node nest: the node is down while at
        least one window covers the current time, and transitions are
        delivered only on the down/up edges.
    participants:
        ``node id -> participants`` delivered the transitions, in order
        (convention: protocol allocator first, then the workload client,
        so a rebooting allocator is consistent before its client issues).
    """

    def __init__(
        self,
        sim: Simulator,
        windows: Iterable[Tuple[int, float, float]],
        participants: Dict[int, Sequence[LifecycleParticipant]],
    ) -> None:
        self._sim = sim
        self._participants = {node: tuple(obs) for node, obs in participants.items()}
        self._listeners: List[LifecycleListener] = []
        # Nesting depth per node: down while > 0 (overlapping windows).
        self._depth: Dict[int, int] = {}
        self._down_since: Dict[int, float] = {}
        self._downtime: Dict[int, float] = {}
        self._crash_count: Dict[int, int] = {}
        # Per node, the times its outages actually *end* (right edges of
        # the merged crash windows, finite ones only): a recover event
        # nested inside a wider window — in particular inside a
        # permanent one — never brings the node back and must not count.
        # Lets observers ask whether waiting for a down node is ever
        # worthwhile, and until when.
        self._effective_reboots: Dict[int, List[float]] = {}
        spans_by_node: Dict[int, List[Tuple[float, float]]] = {}
        for node, at, recover_at in windows:
            sim.schedule_at(at, self._crash, node)
            if not math.isinf(recover_at):
                sim.schedule_at(recover_at, self._recover, node)
            spans_by_node.setdefault(node, []).append((at, recover_at))
        for node, spans in spans_by_node.items():
            spans.sort()
            merged: List[List[float]] = []
            for at, recover_at in spans:
                if merged and at < merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], recover_at)
                else:
                    merged.append([at, recover_at])
            self._effective_reboots[node] = [
                end for _, end in merged if not math.isinf(end)
            ]

    def add_listener(self, listener: LifecycleListener) -> None:
        """Register an observer notified before participants on each edge."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def is_down(self, node: int) -> bool:
        """Whether ``node`` is currently inside a crash window."""
        return self._depth.get(node, 0) > 0

    def next_reboot(self, node: int) -> Optional[float]:
        """Earliest future time an outage of ``node`` actually ends.

        ``None`` for a node that never comes back up again — down
        permanently (all its windows reach into one ending at infinity)
        or already past its last reboot.  A recover event nested inside
        a wider crash window does not count: it never raises the node.
        Reboots at exactly the current instant have already been
        delivered (lifecycle events are scheduled before any observer's)
        and are not returned.
        """
        for end in self._effective_reboots.get(node, ()):
            if end > self._sim.now:
                return end
        return None

    # ------------------------------------------------------------------ #
    # event delivery
    # ------------------------------------------------------------------ #
    def _crash(self, node: int) -> None:
        depth = self._depth.get(node, 0)
        self._depth[node] = depth + 1
        if depth > 0:  # already down (overlapping window): no edge
            return
        now = self._sim.now
        self._down_since[node] = now
        self._crash_count[node] = self._crash_count.get(node, 0) + 1
        for listener in self._listeners:
            listener.node_crashed(node, now)
        for participant in self._participants.get(node, ()):
            participant.on_crash(now)

    def _recover(self, node: int) -> None:
        depth = self._depth.get(node, 0)
        if depth == 0:  # pragma: no cover - defensive (unmatched recover)
            return
        self._depth[node] = depth - 1
        if depth > 1:  # still covered by another window: no edge
            return
        now = self._sim.now
        self._downtime[node] = self._downtime.get(node, 0.0) + now - self._down_since.pop(node)
        for listener in self._listeners:
            listener.node_recovered(node, now)
        for participant in self._participants.get(node, ()):
            participant.on_recover(now)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def downtime_columns(self, end: float) -> DowntimeColumns:
        """Per-node downtime accumulated so far, open windows closed at ``end``.

        Only nodes that actually went down appear; a run whose crash
        windows never fired reports empty columns.
        """
        totals = dict(self._downtime)
        for node, since in self._down_since.items():
            totals[node] = totals.get(node, 0.0) + max(0.0, end - since)
        nodes = sorted(totals)
        return DowntimeColumns.build(
            nodes=nodes,
            downtime=[totals[n] for n in nodes],
            crashes=[self._crash_count.get(n, 0) for n in nodes],
        )
