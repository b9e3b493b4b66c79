"""Crash detection and token regeneration.

The paper's algorithms are token-based: exactly one token exists per
resource, and a fail-silent crash of its holder retires the resource for
the rest of the run (``examples/fault_ablation.py`` shows every
completion rate collapsing once tokens can vanish).  This module closes
that gap, beyond the paper, with a deterministic recovery protocol
layered on the lifecycle events of :mod:`repro.sim.lifecycle`.  Its
model is stable storage: tokens and their queues are *durable* (but
unreachable while their holder is down), request state is *volatile*,
so a rebooted process (``on_recover``) drops its outstanding request and
buffers, then serves the queues of the tokens it still holds.

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

An allocator takes part through the lifecycle hooks and
:data:`RECOVERY_INTERFACE`, as :class:`RecoverableCoreNode` below and
:class:`~repro.baselines.incremental.RecoverableIncrementalNode` do; the
runner builds them only for a scenario that declares crash windows.
Nodes without the interface (Bouabdallah–Laforest, whose control token
has no regeneration story) are skipped: their crashes are detected, but
their tokens stay lost.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.allocator import AllocatorError
from repro.core.messages import ReqCnt, TokenEnvelope
from repro.core.node import CoreAllocatorNode, ProcessState
from repro.core.token import ResourceToken
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.engine import Simulator
from repro.sim.lifecycle import NodeLifecycle

# Records are built positionally, every field given, as in repro.core.node.
_tuple_new = tuple.__new__

__all__ = ["RecoverableCoreNode", "RecoveryCoordinator", "supports_recovery"]

#: Methods an allocator must provide to take part in token recovery.
RECOVERY_INTERFACE = (
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
    them.  ``num_resources`` is the number of tokens it watches, one per
    resource.  Aggregate outcomes are exposed for
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
        num_resources: int,
    ) -> None:
        self._sim = sim
        self._allocators = list(allocators)
        # ``node id -> allocator`` of the recovery-capable nodes, ascending.
        self._capable = {
            i: a for i, a in enumerate(self._allocators) if supports_recovery(a)
        }
        # Every token key, in the order adjudication visits them; none
        # without a capable node.
        self._keys = sorted(range(num_resources), key=repr) if self._capable else []
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
        allocator = self._capable.get(node)
        fences = self._fenced.pop(node, {})
        if fences and allocator is not None:
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
    def _detect(self, node: int) -> None:
        """Detection timeout fired: the node is (still) down — adjudicate."""
        self._pending.pop(node, None)
        survivors = [
            a for i, a in self._capable.items() if i != node and not self._lifecycle.is_down(i)
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
                for i in self._capable
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
        regenerated = self._adjudicate(dead=node, survivors=survivors)
        if regenerated:
            self.tokens_regenerated += regenerated
            # Per lost token, like _confirm_loss: crash-to-regeneration
            # latency accumulates once per rebuilt key, so the metric has
            # the same unit on both the immediate and the confirmed path.
            self.recovery_time += regenerated * (self._sim.now - self._crashed_at[node])

    def _post_blip_sweep(self) -> None:
        """Queue tokens dropped in flight during an undetected blip."""
        survivors = [a for i, a in self._capable.items() if not self._lifecycle.is_down(i)]
        if not survivors:
            return
        self._adjudicate(dead=None, survivors=survivors)

    def _holder_map(self) -> Dict[object, int]:
        """Current ``key -> holder`` map over capable nodes.

        A down node's claim to a key already fenced for it is *stale*:
        that key was regenerated away while the node was gone, and its
        local ownership only gets cleared by the fence at reboot.  Such
        claims are skipped here — otherwise a higher-id dead node would
        overwrite the true holder and, when the regenerator itself later
        crashes, adjudication would defer to a detection that has already
        fired, leaving the token lost forever.
        """
        holder_of: Dict[object, int] = {}
        for i, allocator in self._capable.items():
            fenced = self._fenced.get(i, ())
            for key in allocator.recovery_held_tokens():
                if key in fenced:
                    continue  # regenerated elsewhere while i was down
                holder_of[key] = i
        return holder_of

    def _adjudicate(
        self,
        dead: Optional[int],
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
        holder_of = self._holder_map()
        regenerated = 0
        for key in self._keys:
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
        if key in self._holder_map():
            return  # the suspect landed: it was a live transfer
        survivors = [
            a for i, a in self._capable.items() if not self._lifecycle.is_down(i)
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


class RecoverableCoreNode(CoreAllocatorNode):
    """The paper's process plus the crash-recovery extension.

    Adds the lifecycle hooks, the ``recovery_*`` interface and the epoch
    fence: the highest token epoch witnessed per resource, against which
    :meth:`_process_update` drops a stale copy of a regenerated token.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # All zero until a regeneration or a repoint witnesses an epoch.
        self._tok_epoch = [0] * self.num_resources

    def _process_update(self, incoming: ResourceToken) -> None:
        """Adopt a received token unless a newer incarnation was witnessed."""
        r = incoming.resource
        if incoming.epoch < self._tok_epoch[r]:
            # Stale copy of a lost-and-regenerated token still in flight:
            # adopting it would create a second live token.
            self._trace("stale_token_dropped", resource=r, epoch=incoming.epoch)
            return
        self._tok_epoch[r] = incoming.epoch
        CoreAllocatorNode._process_update(self, incoming)

    # ------------------------------------------------------------------ #
    # crash / recovery lifecycle (see the module docstring)
    # ------------------------------------------------------------------ #
    def on_crash(self, time: float) -> None:
        """The process halts (it has no local timer to suspend)."""
        self._trace("crash", tokens=sorted(self._t_owned))

    def on_recover(self, time: float) -> None:
        """The process reboots: drop volatile state, serve durable tokens.

        Any token that was regenerated elsewhere while this node was down
        has already been fenced away by the recovery coordinator (a
        lifecycle *listener*, notified before this participant callback),
        so serving the remaining queues can never emit a duplicate token.
        """
        self._set_state(ProcessState.IDLE)
        self._t_required = set()
        self._cnt_needed = set()
        self._my_vector = [0] * self.num_resources
        self._on_granted = None
        self._loan_asked = False
        self._single_fast_path = False
        self._req_buffer = {}
        self._cnt_buffer = {}
        self._tok_buffer = {}
        self._pending_req = {r: {} for r in range(self.num_resources)}
        owned = sorted(self._t_owned)
        self._trace("recover", tokens=owned)
        self._return_failed_loans(owned)
        self._serve_queues(owned)
        if self.config.enable_loan:
            self._process_pending_loans(owned)
        self._flush_responses()
        self._flush_requests(self._visited_self)

    # -- crash-recovery interface (RecoveryCoordinator) ----------------- #
    def recovery_held_tokens(self) -> FrozenSet[int]:
        """Tokens on this node's stable storage (lost while it is down)."""
        return frozenset(self._t_owned)

    def recovery_requires(self) -> FrozenSet[int]:
        """Tokens this node is currently waiting for (regeneration priority)."""
        if self._state in (ProcessState.WAIT_S, ProcessState.WAIT_CS):
            return frozenset(self._t_required - self._t_owned)
        return frozenset()

    def recovery_purge(self, crashed: int) -> None:
        """A peer was detected dead: forget its queued requests.

        Entries of ``crashed`` are dropped from *every* ``lastTok``
        snapshot — held tokens (so no future grant goes to a node known
        to be down; it would be dropped in flight and lose the token
        again) *and* stale snapshots of tokens currently elsewhere, which
        are exactly what ``recovery_regenerate`` rebuilds from: a dead
        requester surviving inside a stale snapshot would re-enter the
        regenerated queue and be served into the void, with every
        detection already spent.  The locally remembered request history
        is scrubbed too.  A rebooted node re-requests with a fresh id,
        which re-registers normally.
        """
        for r in range(self.num_resources):
            tok = self.last_tok[r]
            tok.remove_requests_of(crashed)
            tok.remove_loans_of(crashed)
        for pending in self._pending_req.values():
            for key in [k for k, req in pending.items() if req.sinit == crashed]:
                del pending[key]

    def recovery_regenerate(
        self,
        resource: int,
        crashed: Optional[int],
        counter_slack: int,
        epoch: int,
        requesters: Tuple[int, ...] = (),
    ) -> None:
        """Rebuild the lost token of ``resource`` from local request state.

        The regenerated token is this node's stale ``lastTok`` snapshot —
        queues and obsolescence vectors from the last time the token
        passed through here — minus the crashed node's entries, with the
        counter bumped by ``counter_slack`` (the coordinator passes
        ``N``) as slack against values the lost token handed out after
        the snapshot.  Counter collisions only perturb request
        priorities, never safety; the fresh ``epoch`` fences out any
        stale copy of the previous incarnation still in flight.  Adopting
        the rebuilt token reuses the ordinary token arrival path, so
        entering the CS, serving queues and loans all behave exactly as
        for a received token.  ``requesters`` (the surviving-requester
        ids) is part of the coordinator interface but unused here: this
        algorithm's queues travel inside the token.
        """
        if resource in self._t_owned:  # pragma: no cover - defensive
            raise AllocatorError(
                f"node {self.node_id}: regenerating token {resource} it already holds"
            )
        tok = self.last_tok[resource].copy()
        tok.lender = None
        tok.counter += counter_slack
        tok.epoch = epoch
        if crashed is not None:
            tok.remove_requests_of(crashed)
            tok.remove_loans_of(crashed)
        self._trace("token_regenerated", resource=resource, crashed=crashed, epoch=epoch)
        # A literal one-token envelope, built positionally like the
        # protocol's own (see repro.core.messages).
        self.on_TokenEnvelope(self.node_id, _tuple_new(TokenEnvelope, ((tok,),)))

    def recovery_repoint(
        self,
        resource: int,
        owner: int,
        crashed: Optional[int],
        epoch: int,
        regenerated: bool,
        requesters: Tuple[int, ...] = (),
    ) -> None:
        """The token of ``resource`` lives at ``owner``: chase it, not the dead.

        Called on every survivor both for regenerated tokens (``owner``
        is the regenerator, ``epoch`` is fresh) and for alive tokens
        whose probable-owner chain may have run through the crashed node
        (``owner`` is the actual holder).  The pointer is set straight to
        ``owner`` — the freshest information available at detection time
        — the witnessed epoch is advanced so stale incarnations get
        discarded, and any outstanding request of our own for the
        resource is re-issued: it may have died in the crashed node's
        queues or in flight to it.  Re-issues are idempotent
        (``lastReqC``/``lastCS`` and queue-membership dedup).
        ``regenerated`` and ``requesters``
        exist for algorithms that must rebuild distributed queues (the
        Naimi–Tréhel chain); this algorithm's queues travel inside the
        token, so both are ignored here.
        """
        if epoch > self._tok_epoch[resource]:
            self._tok_epoch[resource] = epoch
        if resource in self._t_owned or owner == self.node_id:
            return
        self.tok_dir[resource] = owner
        self._reissue_pending(resource, owner)
        self._flush_requests(self._visited_self)

    def recovery_fence(self, resource: int, owner: int, epoch: int) -> None:
        """Called on reboot for tokens regenerated while this node was down.

        Stale ownership (if any) is discarded in favour of the
        regenerator at ``owner`` — the rejoin handshake of a real
        implementation — and the witnessed epoch is advanced so a stale
        in-flight copy arriving after the reboot is discarded too.  Runs
        before :meth:`on_recover` (listeners precede participants), so
        the reboot handler never serves a fenced token's queues.
        """
        if epoch > self._tok_epoch[resource]:
            self._tok_epoch[resource] = epoch
        self._t_owned.discard(resource)
        self._t_lent.discard(resource)
        if owner != self.node_id:
            self.tok_dir[resource] = owner
        self._trace("token_fenced", resource=resource, owner=owner, epoch=epoch)

    def _reissue_pending(self, resource: int, dest: int) -> None:
        """Buffer a fresh copy of our outstanding request for ``resource``."""
        if self._state is ProcessState.WAIT_S:
            if resource in self._cnt_needed:
                self._buffer_request(
                    dest, _tuple_new(ReqCnt, (resource, self.node_id, self._cur_id, False))
                )
        elif self._state is ProcessState.WAIT_CS:
            if resource in self._t_required and resource not in self._t_owned:
                if self._single_fast_path:
                    self._buffer_request(
                        dest, _tuple_new(ReqCnt, (resource, self.node_id, self._cur_id, True))
                    )
                else:
                    self._buffer_request(dest, self._my_req_for(resource))
