"""Crash detection and token regeneration.

The paper's algorithms are token-based: exactly one token exists per
resource, and a fail-silent crash of its holder retires the resource for
the rest of the run (``examples/fault_ablation.py`` shows every
completion rate collapsing once tokens can vanish).  This module closes
that gap with a deterministic recovery protocol layered on the lifecycle
events of :mod:`repro.sim.lifecycle`:

1. **Detection** — a scenario's
   :class:`~repro.sim.detectorspec.HeartbeatDetector` gives a
   ``detection_delay`` that models a heartbeat scheme's worst-case latency.
   Each crash schedules one detection event that far in the future; a
   node that recovers first cancels it (its heartbeats resumed), so an
   undetected blip never triggers regeneration.
2. **Token-loss adjudication** — at detection time the coordinator builds
   the holder map over every recovery-capable allocator (the wave a real
   implementation would run over per-node stable-storage logs).  A token
   held by the detected node is *lost* and regenerated immediately.  A
   token held by *nobody* is suspicious — either it was dropped in
   flight toward a down node, or it is merely mid-flight between two
   live survivors at this very instant (senders disown a token when they
   put it on the wire) — so it gets a *confirmation round*: one
   detection delay later, a still-holderless token is declared lost and
   regenerated, while a token that landed meanwhile is left alone.
   Tokens held by a survivor are alive; tokens held by a different down
   node are left to that node's own detection.
3. **Regeneration** — each lost token is rebuilt by the lowest-id
   *surviving requester* (falling back to the lowest-id survivor) from
   its own local request state (``recovery_regenerate``), under a fresh
   *epoch*: stale copies of the previous incarnation still in flight are
   discarded on arrival by their epoch, so regeneration can never yield
   two live tokens.  Every other survivor is repointed at the new owner
   and re-issues its outstanding request (``recovery_repoint``), and
   survivors whose probable-owner chain for an *alive* token ran through
   the dead node are repointed at the actual holder — requests no longer
   chase a black hole.
4. **Purging and fencing** — survivors drop the dead node's queued
   requests (``recovery_purge``), so no future token is granted to a
   node known to be down.  If the crashed node later reboots, it is told
   which tokens were regenerated while it was gone
   (``recovery_fence``) *before* its own recovery handler runs, so stale
   ownership is discarded instead of served.

A recovery sweep also runs right after an *undetected* blip heals (the
node recovered before its detection fired): tokens granted to the node
while it was down were dropped in flight and would otherwise be lost
with no detection left to notice — the sweep sends exactly the
holderless ones through the same confirmation round.  Even if a
confirmation ever misfires on a token that is somehow still in transit,
the epoch fence keeps it safe: the stale incarnation is discarded on
arrival, never resurrected beside the new one.

Every step is a deterministic function of the scenario (windows and the
detection delay are data; adjudication reads single-threaded simulation
state), so recovery runs are memoisable and bit-identical between
``workers=1`` and ``workers=N`` like everything else.

Allocators opt into recovery by providing the ``recovery_*`` methods
(duck-typed; see :class:`repro.core.node.CoreAllocatorNode` and
:class:`repro.baselines.incremental.IncrementalAllocatorNode`).  Nodes
without the interface — e.g. the Bouabdallah–Laforest baseline, whose
control token has no regeneration story — are simply skipped: their
crashes are still detected, but their tokens stay lost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.engine import Simulator
from repro.sim.lifecycle import NodeLifecycle

__all__ = ["RecoveryCoordinator", "supports_recovery"]

#: Methods an allocator must provide to take part in token recovery.
RECOVERY_INTERFACE = (
    "recovery_token_keys",
    "recovery_held_tokens",
    "recovery_requires",
    "recovery_purge",
    "recovery_regenerate",
    "recovery_repoint",
    "recovery_fence",
)


def supports_recovery(allocator: object) -> bool:
    """Whether ``allocator`` implements the crash-recovery interface."""
    return all(callable(getattr(allocator, name, None)) for name in RECOVERY_INTERFACE)


class RecoveryCoordinator:
    """Drives detection, adjudication, regeneration and fencing for one run.

    Registered as a :class:`~repro.sim.lifecycle.NodeLifecycle` listener,
    so it observes crash/recover edges before the participants act on
    them.  Aggregate outcomes are exposed for
    :class:`~repro.experiments.runner.ExperimentResult`:

    * :attr:`tokens_regenerated` — number of lost tokens rebuilt;
    * :attr:`recovery_time` — total simulated time from crash to
      regeneration, summed over lost tokens: typically one detection
      delay per token regenerated at its holder's detection, two per
      token that needed a confirmation round, more when a detection had
      to re-arm because no survivor was up yet (post-blip sweeps add
      nothing because the blip itself was never detected, leaving no
      crash to date the loss from).
    """

    def __init__(
        self,
        sim: Simulator,
        allocators: Sequence[object],
        lifecycle: NodeLifecycle,
        detector: HeartbeatDetector,
    ) -> None:
        self._sim = sim
        self._allocators = list(allocators)
        self._lifecycle = lifecycle
        self._detector = detector
        # Per down node, the seq of its armed detection timeout.
        self._pending: Dict[int, int] = {}
        self._crashed_at: Dict[int, float] = {}
        # Fencing epoch per token key, bumped on every regeneration; stale
        # incarnations still in flight identify themselves by a smaller
        # epoch and are discarded on arrival.
        self._epochs: Dict[object, int] = {}
        # Per down node: key -> (owner, epoch) regenerated while it was
        # gone, applied as fences when (if) it reboots.
        self._fenced: Dict[int, Dict[object, Tuple[int, int]]] = {}
        self.tokens_regenerated = 0
        self.recovery_time = 0.0
        #: Fencing-epoch updates pushed to rebooting nodes (telemetry).
        self.fences_applied = 0
        lifecycle.add_listener(self)

    # ------------------------------------------------------------------ #
    # lifecycle listener
    # ------------------------------------------------------------------ #
    def node_crashed(self, node: int, time: float) -> None:
        """Arm the detection timeout for a fresh outage."""
        self._crashed_at[node] = time
        self._fenced.setdefault(node, {})
        self._pending[node] = self._sim.schedule(
            self._detector.detection_delay, self._detect, node
        )

    def node_recovered(self, node: int, time: float) -> None:
        """Apply fences, cancel pending detection, sweep for in-flight losses.

        Runs before the node's own participants (listeners precede
        participants), so stale ownership is fenced away before the
        reboot handler serves its token queues.  When the outage went
        *undetected* (the node beat its detection timeout), tokens
        granted to it while it was down were dropped in flight with no
        detection left to notice — a zero-delay follow-up sweep (after
        the reboot handlers have run) regenerates exactly the holderless
        ones.
        """
        pending = self._pending.pop(node, None)
        allocator = self._allocators[node]
        fences = self._fenced.pop(node, {})
        if fences and supports_recovery(allocator):
            for key in sorted(fences, key=repr):
                owner, epoch = fences[key]
                allocator.recovery_fence(key, owner=owner, epoch=epoch)
                self.fences_applied += 1
        if pending is not None:
            self._sim.cancel(pending)
            self._sim.schedule(0.0, self._post_blip_sweep)

    # ------------------------------------------------------------------ #
    # detection + adjudication
    # ------------------------------------------------------------------ #
    def _capable(self) -> List[Tuple[int, object]]:
        return [
            (i, a) for i, a in enumerate(self._allocators) if supports_recovery(a)
        ]

    def _detect(self, node: int) -> None:
        """Detection timeout fired: the node is (still) down — adjudicate."""
        self._pending.pop(node, None)
        capable = self._capable()
        survivors = [
            a for i, a in capable if i != node and not self._lifecycle.is_down(i)
        ]
        if not survivors:
            # Nobody is up to adjudicate right now.  If another capable
            # node still has a reboot ahead, keep the detection armed —
            # a detection that fires once into a fully-down cluster and
            # gives up would leave this node's tokens lost forever even
            # after survivors return.  One retry is scheduled for a full
            # detection delay after the earliest such reboot (the
            # rebooted peer needs a heartbeat timeout of its own to
            # confirm this node is still dead), not polled every delay.
            # With no reboot ahead anywhere (all peers down permanently,
            # or no other capable node at all), retrying is pointless
            # and the timeout is dropped so the event queue can drain.
            reboots = [
                t
                for i, _ in capable
                if i != node
                for t in (self._lifecycle.next_reboot(i),)
                if t is not None
            ]
            if reboots:
                self._pending[node] = self._sim.schedule(
                    min(reboots) - self._sim.now + self._detector.detection_delay,
                    self._detect,
                    node,
                )
            return
        for allocator in survivors:
            allocator.recovery_purge(node)
        regenerated = self._adjudicate(dead=node, capable=capable, survivors=survivors)
        if regenerated:
            self.tokens_regenerated += regenerated
            # Per lost token, like _confirm_loss: crash-to-regeneration
            # latency accumulates once per rebuilt key, so the metric has
            # the same unit on both the immediate and the confirmed path.
            self.recovery_time += regenerated * (self._sim.now - self._crashed_at[node])

    def _post_blip_sweep(self) -> None:
        """Queue tokens dropped in flight during an undetected blip."""
        capable = self._capable()
        survivors = [a for i, a in capable if not self._lifecycle.is_down(i)]
        if not survivors:
            return
        self._adjudicate(dead=None, capable=capable, survivors=survivors)

    def _holder_map(self) -> Tuple[Dict[object, int], set]:
        """Current ``key -> holder`` map and key universe over capable nodes.

        A down node's claim to a key already fenced for it is *stale*:
        that key was regenerated away while the node was gone, and its
        local ownership only gets cleared by the fence at reboot.  Such
        claims are skipped here — otherwise a higher-id dead node would
        overwrite the true holder and, when the regenerator itself later
        crashes, adjudication would defer to a detection that has already
        fired, leaving the token lost forever.
        """
        holder_of: Dict[object, int] = {}
        universe = set()
        for i, allocator in self._capable():
            universe.update(allocator.recovery_token_keys())
            fenced = self._fenced.get(i, ())
            for key in allocator.recovery_held_tokens():
                if key in fenced:
                    continue  # regenerated elsewhere while i was down
                holder_of[key] = i
        return holder_of, universe

    def _adjudicate(
        self,
        dead: Optional[int],
        capable: List[Tuple[int, object]],
        survivors: List[object],
    ) -> int:
        """Classify every token: regenerate, confirm later, or repoint.

        ``dead`` is the freshly detected node, or ``None`` for a
        post-blip sweep.  Tokens held by ``dead`` are certainly lost and
        regenerate immediately; *holderless* tokens are only suspects —
        a sender disowns a token the instant it goes on the wire, so a
        transfer between two live survivors is holderless for one
        network latency — and are re-examined one detection delay later
        by :meth:`_confirm_loss` (a genuinely lost token is still
        holderless then; a live transfer has long landed).
        Alive-but-chained-through-``dead`` tokens get every survivor
        repointed at the real holder.  Returns the number of tokens
        regenerated *now* (confirmed losses count when they confirm).
        """
        holder_of, universe = self._holder_map()
        regenerated = 0
        for key in sorted(universe, key=repr):
            holder = holder_of.get(key)
            if holder is None:
                self._sim.schedule(
                    self._detector.detection_delay,
                    self._confirm_loss,
                    key,
                    dead,
                    self._crashed_at.get(dead) if dead is not None else None,
                )
                continue
            if holder != dead:
                if self._lifecycle.is_down(holder):
                    continue  # that node's own detection will handle it
                if dead is not None:
                    # Alive token: nobody must keep chasing it through the
                    # dead node.  Rebuild its waiting chain from the
                    # surviving requesters (requests that died inside the
                    # dead forwarder re-enter it) and repoint everyone —
                    # holder included — under the current epoch (nothing
                    # was regenerated).
                    epoch = self._epochs.get(key, 0)
                    requester_ids = tuple(
                        a.node_id for a in survivors if key in a.recovery_requires()
                    )
                    for allocator in survivors:
                        allocator.recovery_repoint(
                            key,
                            owner=holder,
                            crashed=dead,
                            epoch=epoch,
                            regenerated=False,
                            requesters=requester_ids,
                        )
                continue
            self._regenerate(key, dead=dead, survivors=survivors)
            regenerated += 1
        return regenerated

    def _confirm_loss(
        self, key: object, dead: Optional[int], crashed_at: Optional[float]
    ) -> None:
        """Confirmation round for a holderless token: still nobody? Rebuild.

        A token that was merely mid-flight at adjudication time has
        landed a full detection delay later and is left alone; one that
        is still holderless was dropped toward a down node and is
        regenerated at the lowest-id surviving requester, accounted like
        any other loss (with its originating crash when known).
        """
        holder_of, _ = self._holder_map()
        if key in holder_of:
            return  # the suspect landed: it was a live transfer
        survivors = [
            a for i, a in self._capable() if not self._lifecycle.is_down(i)
        ]
        if not survivors:
            return
        self._regenerate(key, dead=dead, survivors=survivors)
        self.tokens_regenerated += 1
        if crashed_at is not None:
            self.recovery_time += self._sim.now - crashed_at

    def _regenerate(self, key: object, dead: Optional[int], survivors: List[object]) -> None:
        epoch = self._epochs.get(key, 0) + 1
        self._epochs[key] = epoch
        requesters = [a for a in survivors if key in a.recovery_requires()]
        target = requesters[0] if requesters else survivors[0]
        owner = target.node_id
        # Re-scrub the regeneration source for every node already
        # detected dead: the target's local state may have absorbed such
        # a node's queue entries *after* that node's own purge (e.g. from
        # a token that was in flight at purge time), and serving the
        # rebuilt token to a detected-dead node would drop it with no
        # detection left to notice.  Purges are idempotent, so repeating
        # them here is safe.
        for i in range(len(self._allocators)):
            if i != dead and self._lifecycle.is_down(i) and i not in self._pending:
                target.recovery_purge(i)
        # Every currently-down node must fence this key on reboot — to the
        # *latest* owner if it is regenerated again (double-crash of the
        # regenerator) before they come back.
        for fences in self._fenced.values():
            fences[key] = (owner, epoch)
        requester_ids = tuple(a.node_id for a in requesters)
        target.recovery_regenerate(
            key,
            crashed=dead,
            counter_slack=len(self._allocators),
            epoch=epoch,
            requesters=requester_ids,
        )
        for allocator in survivors:
            if allocator is not target:
                allocator.recovery_repoint(
                    key,
                    owner=owner,
                    crashed=dead,
                    epoch=epoch,
                    regenerated=True,
                    requesters=requester_ids,
                )
