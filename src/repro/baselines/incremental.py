"""Incremental multi-resource allocation baseline.

Described in Section 5 of the paper: "an algorithm, which we have denoted
*incremental algorithm*, which uses M instances of the Naimi-Tréhel
algorithm", one per resource.  A process locks its required resources one
at a time, in increasing resource-id order (the classic total-order
discipline of the incremental family, Section 2.1), which prevents
deadlocks but exposes the *domino effect*: a process may hold a low-id
resource idle for a long time while waiting for a higher-id one, dragging
the resource-use rate down as request sizes grow — exactly the flat curve
of Figure 5.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.allocator import AllocatorError, MultiResourceAllocator, validate_resources
from repro.mutex.naimi_trehel import NaimiTrehelInstance, NTRequest, NTToken
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.trace import TraceRecorder


class IncrementalAllocatorNode(Node, MultiResourceAllocator):
    """One process of the incremental baseline.

    Parameters
    ----------
    sim, network, node_id:
        Simulation plumbing.
    num_resources:
        Number of resources ``M`` (one Naimi–Tréhel instance each).
    initial_holder:
        Node holding every token at time zero.  Spreading the initial
        holders (``initial_holder=None``) assigns token ``r`` to node
        ``r mod N``, which matches a warmed-up system better and is the
        default used by the experiment harness.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        num_resources: int,
        num_processes: int,
        initial_holder: Optional[int] = 0,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        Node.__init__(self, sim, network, node_id)
        if num_resources < 1:
            raise ValueError("num_resources must be >= 1")
        self.num_resources = num_resources
        self.num_processes = num_processes
        self.trace = trace
        self._initial_holder = initial_holder
        self._instances: Dict[int, NaimiTrehelInstance] = {}
        for r in range(num_resources):
            holder = initial_holder if initial_holder is not None else r % num_processes
            self._instances[r] = NaimiTrehelInstance(
                instance_id=r,
                node_id=node_id,
                send_fn=self.send,
                initial_holder=holder,
            )
        self._pending: List[int] = []
        self._acquired: List[int] = []
        self._required: FrozenSet[int] = frozenset()
        self._on_granted: Optional[Callable[[], None]] = None
        self._in_cs = False

    # ------------------------------------------------------------------ #
    # MultiResourceAllocator interface
    # ------------------------------------------------------------------ #
    @property
    def in_critical_section(self) -> bool:
        return self._in_cs

    @property
    def is_idle(self) -> bool:
        return not self._in_cs and self._on_granted is None and not self._pending

    def acquire(self, resources: Iterable[int], on_granted: Callable[[], None]) -> None:
        if not self.is_idle:
            raise AllocatorError(
                f"node {self.node_id}: acquire() while a request is outstanding"
            )
        rset = validate_resources(resources, self.num_resources)
        self._required = rset
        # Lock in increasing resource-id order: the global total order that
        # makes the incremental approach deadlock-free.
        self._pending = sorted(rset)
        self._acquired = []
        self._on_granted = on_granted
        self._lock_next()

    def release(self) -> None:
        if not self._in_cs:
            raise AllocatorError(f"node {self.node_id}: release() outside critical section")
        self._in_cs = False
        for r in self._acquired:
            self._instances[r].release()
        self._acquired = []
        self._required = frozenset()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _lock_next(self) -> None:
        if not self._pending:
            self._enter_cs()
            return
        resource = self._pending[0]
        self._instances[resource].request(lambda r=resource: self._on_locked(r))

    def _on_locked(self, resource: int) -> None:
        if not self._pending or self._pending[0] != resource:  # pragma: no cover - defensive
            raise AllocatorError(
                f"node {self.node_id}: unexpected lock grant for resource {resource}"
            )
        self._pending.pop(0)
        self._acquired.append(resource)
        if self.trace is not None:
            self.trace.record(self.sim.now, self.node_id, "lock_acquired", resource=resource)
        self._lock_next()

    def _enter_cs(self) -> None:
        self._in_cs = True
        callback = self._on_granted
        self._on_granted = None
        if self.trace is not None:
            self.trace.record(
                self.sim.now, self.node_id, "cs_enter", resources=sorted(self._required)
            )
        if callback is not None:
            callback()

    # ------------------------------------------------------------------ #
    # crash / recovery lifecycle
    # ------------------------------------------------------------------ #
    def on_crash(self, time: float) -> None:
        """The process halts (no local timers to suspend in this baseline)."""
        if self.trace is not None:
            self.trace.record(time, self.node_id, "crash")

    def on_recover(self, time: float) -> None:
        """Reboot: abandon the in-progress request, keep durable tokens.

        Each per-resource Naimi–Tréhel instance resets its volatile
        request state and hands a held token to its queued successor
        (fenced instances were already cleared by the coordinator).  The
        interrupted multi-resource acquisition is abandoned — its locked
        instances release — and the closed-loop client issues a fresh
        request afterwards.
        """
        self._pending = []
        self._acquired = []
        self._required = frozenset()
        self._on_granted = None
        self._in_cs = False
        for r in sorted(self._instances):
            inst = self._instances[r]
            inst.reset_after_crash()
            if not inst.has_token and inst.owner is None:
                # The abandoned request left the instance a root-in-waiting
                # with no token coming: restore a valid probable-owner
                # pointer (any live node's pointer chain leads to the
                # current root; the recovery coordinator repoints it more
                # precisely when a detection fires).
                owner = self._initial_holder if self._initial_holder is not None else r % self.num_processes
                if owner == self.node_id:
                    owner = (self.node_id + 1) % self.num_processes
                inst.owner = owner
        if self.trace is not None:
            self.trace.record(time, self.node_id, "recover")

    # -- crash-recovery interface (RecoveryCoordinator) ----------------- #
    def recovery_token_keys(self) -> range:
        """Universe of token keys (one Naimi–Tréhel instance per resource)."""
        return range(self.num_resources)

    def recovery_held_tokens(self) -> FrozenSet[int]:
        """Resources whose Naimi–Tréhel token sits on this node."""
        return frozenset(r for r, inst in self._instances.items() if inst.has_token)

    def recovery_requires(self) -> FrozenSet[int]:
        """Resources this node is currently queued for.

        The incremental discipline locks one resource at a time, so this
        is at most a singleton — the head of the pending list.
        """
        return frozenset(r for r, inst in self._instances.items() if inst.requesting)

    def recovery_purge(self, crashed: int) -> None:
        """Forget the dead node's queue entries (no tokens into the void)."""
        for inst in self._instances.values():
            inst.purge_requester(crashed)

    def recovery_regenerate(
        self,
        resource: int,
        crashed: Optional[int],
        counter_slack: int,
        epoch: int,
        requesters: Tuple[int, ...] = (),
    ) -> None:
        """Rebuild the lost token of ``resource`` at this node.

        ``requesters`` is the coordinator's sorted list of surviving
        requesters; this node is its head and the next id (if any) is its
        successor in the rebuilt waiting chain.  ``counter_slack`` is
        part of the shared interface but meaningless here — Naimi–Tréhel
        tokens carry no counter.
        """
        successors = [p for p in requesters if p != self.node_id]
        self._instances[resource].regenerate_token(
            next_requester=successors[0] if successors else None,
            epoch=epoch,
            probable_owner=requesters[-1] if requesters else None,
        )
        if self.trace is not None:
            self.trace.record(
                self.sim.now, self.node_id, "token_regenerated", resource=resource
            )

    def recovery_repoint(
        self,
        resource: int,
        owner: int,
        crashed: Optional[int],
        epoch: int,
        regenerated: bool,
        requesters: Tuple[int, ...] = (),
    ) -> None:
        """Re-enter the rebuilt waiting chain / repoint at the live holder.

        The coordinator rebuilds the waiting chain of every affected
        token — regenerated or alive-but-crossed-by-the-crash — from the
        sorted surviving requesters, because Naimi–Tréhel's distributed
        ``next`` chain cannot be patched by re-sending requests
        (duplicates scramble the probable-owner pointers).  A surviving
        requester takes the slot after its own id in ``requesters``; the
        live *holder* of an alive token adopts the chain head as its
        successor (handing the token over immediately when idle);
        everyone else points their probable owner at the chain's last
        requester (or the holder/regenerator when the chain is empty).
        """
        inst = self._instances[resource]
        inst.note_epoch(epoch)
        tail = requesters[-1] if requesters else owner
        if inst.has_token:
            if not regenerated and requesters:
                successors = [p for p in requesters if p != self.node_id]
                inst.rebuild_as_holder(
                    successor=successors[0] if successors else None,
                    probable_owner=tail,
                )
            return
        if inst.requesting and self.node_id in requesters:
            pos = requesters.index(self.node_id)
            successor = requesters[pos + 1] if pos + 1 < len(requesters) else None
            inst.repoint_after_loss(
                owner=tail if successor is not None else None, next_requester=successor
            )
        elif regenerated or inst.owner == crashed:
            inst.repoint_after_loss(owner=tail, next_requester=None)

    def recovery_fence(self, resource: int, owner: int, epoch: int) -> None:
        """A token held at crash time was regenerated elsewhere: discard it."""
        self._instances[resource].fence_token(owner, epoch=epoch)
        if self.trace is not None:
            self.trace.record(
                self.sim.now, self.node_id, "token_fenced", resource=resource, owner=owner
            )

    # ------------------------------------------------------------------ #
    # message routing
    # ------------------------------------------------------------------ #
    def on_NTRequest(self, src: int, msg: NTRequest) -> None:
        """Route a Naimi–Tréhel request to the matching per-resource instance."""
        self._instances[msg.instance].receive_request(msg.requester)

    def on_NTToken(self, src: int, msg: NTToken) -> None:
        """Route a Naimi–Tréhel token to the matching per-resource instance."""
        self._instances[msg.instance].receive_token(msg)
