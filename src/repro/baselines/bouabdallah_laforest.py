"""Bouabdallah–Laforest token-based multi-resource allocation.

Reference [5] of the paper: A. Bouabdallah and C. Laforest, "A distributed
token-based algorithm for the dynamic resource allocation problem"
(Operating Systems Review, 2000).  This is the closest related algorithm
and the main comparison point of the evaluation.

Principle (Section 2.2 of the paper):

* a unique **control token** circulates among requesters, managed by a
  Naimi–Tréhel mutual-exclusion instance.  It carries a vector with one
  entry per resource containing either the resource token itself or the
  identity of the *latest requester* of that resource;
* before asking for any resource a process must first acquire the control
  token, register itself as latest requester of every resource it wants,
  grab the resource tokens still stored inside the control token and send
  an ``INQUIRE`` message to the previous latest requester of each of the
  others;
* a process receiving an ``INQUIRE`` hands the resource token over as soon
  as it no longer needs it (immediately if it is not using it, otherwise at
  the end of its critical section).

The control token serialises registrations, so the per-resource waiting
chains are globally consistent and deadlock-free — but every requester must
wait for the control token even when its resources conflict with nobody,
which is exactly the synchronisation cost the paper attacks.

Registration race
-----------------
Links are reliable and FIFO, but a message on a two-hop path may
overtake one sent directly (under jitter above 1/3).  So the control
token can reach a process A that still holds r before the INQUIRE of the
process that registered for r after A's previous request does.  A then
finds ``vector[r]`` naming another process while it owns r: it *owes* r
to that chain.  It does not count r towards its new entry, sends its own
INQUIRE as usual, and hands r over when the owed INQUIRE arrives.  An
INQUIRE carries the sender's registration number (the control vector
counts registrations in its last slot), so the owed one is told apart
from a later registrant's, which may overtake it too and queues behind
A's request.  Serving r to A's new request instead held r against an
earlier registrant: a wait cycle, or A registering again without the
token.  Under constant latency no message overtakes another and the
rule is never reached.

The published paper is not in this repository, so this rule was checked
only against the description above (Section 2.2 of the ICPP paper), which
does not say how an INQUIRE overtaken by the control token is handled,
nor that the algorithm assumes causal delivery.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Union

from repro.allocator import AllocatorError, MultiResourceAllocator, validate_resources
from repro.mutex.naimi_trehel import NaimiTrehelInstance, NTRequest, NTToken
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import Node, Record
from repro.sim.trace import TraceRecorder

# Both message classes are tuple-backed records, built at their send
# sites with one C call (see repro.sim.node.Record).
_tuple_new = tuple.__new__


class _TokenHere:
    """Sentinel marking that a resource token is stored in the control token."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TOKEN>"


#: Singleton sentinel used inside the control vector.
TOKEN_HERE = _TokenHere()

#: A control-vector entry: the resource token itself or the latest requester id.
ControlEntry = Union[_TokenHere, int]

#: Identifier of the control-token mutex instance.
CONTROL_INSTANCE = "BL-control"


class BLResourceToken(Record, namedtuple("BLResourceToken", "resource")):
    """The unique token granting access to ``resource``."""

    __slots__ = ()

    resource: int


class BLInquire(
    Record, namedtuple("BLInquire", "resource requester registration", defaults=(0,))
):
    """Ask the previous latest requester to forward ``resource``'s token to
    ``requester`` once it is done with it.

    ``registration`` numbers the requester's registration (see the
    control vector's last slot), so that a node owing a token can tell the
    INQUIRE of an earlier registration from that of a later one.
    """

    __slots__ = ()

    resource: int
    requester: int
    registration: int


class BLAllocatorNode(Node, MultiResourceAllocator):
    """One process of the Bouabdallah–Laforest algorithm.

    Node 0 holds the control token, and inside it every resource token,
    at time zero.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        num_resources: int,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        Node.__init__(self, sim, network, node_id)
        if num_resources < 1:
            raise ValueError("num_resources must be >= 1")
        self.num_resources = num_resources
        self.trace = trace
        self._control = NaimiTrehelInstance(
            instance_id=CONTROL_INSTANCE,
            node_id=node_id,
            send_fn=self.send,
            initial_holder=0,
        )
        if node_id == 0:
            # Initially every resource token is stored inside the control
            # token; the vector's last slot counts the registrations.
            self._control.token_payload = [TOKEN_HERE] * num_resources + [0]
        self._owned: set[int] = set()
        # Tokens still held here but owed to an earlier registration's
        # chain, not counted towards our own entry (see
        # _on_control_acquired), and the number of our latest registration.
        self._owed: set[int] = set()
        self._registration = 0
        self._needed: FrozenSet[int] = frozenset()
        self._waiting = False
        self._registered = False
        self._in_cs = False
        self._next_holder: Dict[int, int] = {}
        self._on_granted: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    # MultiResourceAllocator interface
    # ------------------------------------------------------------------ #
    @property
    def in_critical_section(self) -> bool:
        return self._in_cs

    @property
    def is_idle(self) -> bool:
        return not self._in_cs and not self._waiting

    @property
    def owned_tokens(self) -> FrozenSet[int]:
        """Resource tokens currently held by this process."""
        return frozenset(self._owned | self._owed)

    def acquire(self, resources: Iterable[int], on_granted: Callable[[], None]) -> None:
        if not self.is_idle:
            raise AllocatorError(
                f"node {self.node_id}: acquire() while a request is outstanding"
            )
        rset = validate_resources(resources, self.num_resources)
        self._needed = rset
        self._on_granted = on_granted
        self._waiting = True
        self._registered = False
        # Phase 1: acquire the global control token.
        self._control.request(self._on_control_acquired)

    def release(self) -> None:
        if not self._in_cs:
            raise AllocatorError(f"node {self.node_id}: release() outside critical section")
        self._in_cs = False
        finished = self._needed
        self._needed = frozenset()
        if self.trace is not None:
            self.trace.record(self.sim.now, self.node_id, "cs_exit", resources=sorted(finished))
        for r in sorted(finished):
            nxt = self._next_holder.pop(r, None)
            if nxt is not None:
                self._owned.discard(r)
                self.send(nxt, _tuple_new(BLResourceToken, (r,)))

    # ------------------------------------------------------------------ #
    # control-token phase
    # ------------------------------------------------------------------ #
    def _on_control_acquired(self) -> None:
        vector: List[ControlEntry] = self._control.token_payload
        if vector is None:  # pragma: no cover - defensive
            raise AllocatorError("control token arrived without its vector")
        registration = vector[-1] + 1
        vector[-1] = self._registration = registration
        for r in sorted(self._needed):
            entry = vector[r]
            if isinstance(entry, _TokenHere):
                # The resource token is free, stored in the control token.
                self._owned.add(r)
            elif entry == self.node_id:
                # We were already the latest requester: we still hold the
                # token from our previous critical section.
                if r not in self._owned:  # pragma: no cover - defensive
                    raise AllocatorError(
                        f"node {self.node_id}: registered as latest requester of {r} "
                        "but does not hold its token"
                    )
            else:
                if r in self._owned:
                    # Someone registered for r after our previous request
                    # and its INQUIRE has not reached us yet: the token is
                    # theirs first.  It waits here for that INQUIRE and
                    # comes back to us down the chain.
                    self._owned.discard(r)
                    self._owed.add(r)
                self.send(entry, _tuple_new(BLInquire, (r, self.node_id, registration)))
            vector[r] = self.node_id
        self._registered = True
        self._control.token_payload = vector
        # Phase 1 done: pass the control token on and wait for the tokens.
        self._control.release()
        self._check_enter()

    # ------------------------------------------------------------------ #
    # resource-token handling
    # ------------------------------------------------------------------ #
    def on_BLResourceToken(self, src: int, msg: BLResourceToken) -> None:
        """A resource token arrived (following an INQUIRE chain)."""
        self._owned.add(msg.resource)
        self._check_enter()

    def on_BLInquire(self, src: int, msg: BLInquire) -> None:
        """A later requester asks to be handed ``msg.resource`` when free."""
        r = msg.resource
        if r in self._owned and not self._resource_busy(r):
            self._owned.discard(r)
            self.send(msg.requester, _tuple_new(BLResourceToken, (r,)))
        elif r in self._owed and msg.registration < self._registration:
            # The INQUIRE the owed token waited for.  A later registrant's
            # may overtake it: that one queues behind our request below.
            self._owed.discard(r)
            self.send(msg.requester, _tuple_new(BLResourceToken, (r,)))
        else:
            self._next_holder[r] = msg.requester

    def on_NTRequest(self, src: int, msg: NTRequest) -> None:
        """A control-token request: the embedded Naimi–Tréhel instance serves it."""
        self._control.receive_request(msg.requester)

    def on_NTToken(self, src: int, msg: NTToken) -> None:
        """The control token arrived at the embedded Naimi–Tréhel instance."""
        self._control.receive_token(msg)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _resource_busy(self, resource: int) -> bool:
        """Whether the *registered* outstanding request still needs ``resource``.

        A request that has not yet acquired the control token is not part of
        the global registration order, so it must not retain tokens against
        an INQUIRE from an already-registered (hence earlier) request —
        doing so would create exactly the waiting cycles the control token
        exists to prevent.
        """
        if resource not in self._needed:
            return False
        if self._in_cs:
            return True
        return self._waiting and self._registered

    def _check_enter(self) -> None:
        if not self._waiting or not self._registered:
            return
        if self._needed <= self._owned:
            self._waiting = False
            self._in_cs = True
            callback = self._on_granted
            self._on_granted = None
            if self.trace is not None:
                self.trace.record(
                    self.sim.now, self.node_id, "cs_enter", resources=sorted(self._needed)
                )
            if callback is not None:
                callback()
