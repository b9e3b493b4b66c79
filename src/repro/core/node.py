"""Process-level implementation of the paper's algorithm (Annex A).

Every process runs one :class:`CoreAllocatorNode`.  Each resource has a
unique :class:`~repro.core.token.ResourceToken` managed over a dynamic tree
of probable-owner pointers (``tokDir``), following a simplified prioritised
Mueller scheme.  A critical-section request proceeds in two phases:

1. **counter phase** (``waitS``): the requester obtains, for every
   requested resource, the current value of the resource counter (either
   locally if it holds the token, or through a ``ReqCnt``/``Counter``
   exchange with the token holder).  The resulting vector, mapped through
   the scheduling function ``A``, gives the request its *mark*.
2. **acquisition phase** (``waitCS``): the requester sends ``ReqRes``
   messages along the trees; token holders arbitrate conflicts with the
   total order ``/`` (mark, then site id), yielding tokens to higher
   priority requests and queueing lower-priority ones inside the token.

When the loan mechanism is enabled, a process missing at most
``loan_threshold`` resources may ask the holders to *lend* it everything it
misses; a lender grants the loan only if it owns the full missing set, is
not in CS, has no other outstanding loan and does not itself hold borrowed
tokens — which is what makes the loan deadlock- and starvation-free
(Section 3.4).

Implementation notes (documented deviations)
--------------------------------------------
* Entries issued by a site are dropped from a token's queues when that site
  (re)gains ownership of the token, and a process skips its own stale
  entries when handing a token over; this avoids the send-to-self corner
  cases the pseudo-code leaves implicit.
* A borrower returning tokens after a *failed* loan re-registers its own
  ``ReqRes`` in the returned token so the request cannot be lost.
* A token the process does not need is handed to the head of its queue
  before the process enters its critical section on the arrival of the
  tokens it does need: ``Release_CS`` serves only the required tokens,
  so a spare token kept through the critical section would keep its
  queue for good.
* Links are the reliable FIFO channels of Section 3.1 on every run: the
  network turns injected faults into delay (:mod:`repro.sim.network`),
  so the process never re-sends a message.

The crash-recovery extension, beyond the paper, is the subclass
:class:`repro.core.recovery.RecoverableCoreNode`; only runs whose
scenario declares crash windows build it.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.allocator import AllocatorError, MultiResourceAllocator, validate_resources
from repro.core.config import CoreConfigSpec
from repro.core.messages import (
    CounterEnvelope,
    CounterValue,
    ReqCnt,
    ReqLoan,
    ReqRes,
    RequestEnvelope,
    RequestKind,
    TokenEnvelope,
)
from repro.core.ordering import mark, precedes, request_key
from repro.core.token import ResourceToken
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.trace import TraceRecorder

# Envelopes are assembled at four places below (the forwarder, the request
# flush and the two response flushes) where a non-empty payload is
# structural, so they are built positionally — one C call — instead of
# through the validating public constructor (see repro.core.messages).
_tuple_new = tuple.__new__


class ProcessState(str, Enum):
    """The four states of the machine of Figure 2."""

    IDLE = "idle"
    WAIT_S = "waitS"
    WAIT_CS = "waitCS"
    IN_CS = "inCS"


# The members, bound once: the handlers below test the state some thirty
# times, and ``ProcessState.X`` is a global load plus an attribute lookup
# on an ``Enum`` class each time.
_IDLE = ProcessState.IDLE
_WAIT_S = ProcessState.WAIT_S
_WAIT_CS = ProcessState.WAIT_CS
_IN_CS = ProcessState.IN_CS
_WAITING = (_WAIT_S, _WAIT_CS)


class CoreAllocatorNode(Node, MultiResourceAllocator):
    """One process of the paper's multi-resource allocation algorithm.

    Parameters
    ----------
    sim, network, node_id:
        Simulation plumbing (see :class:`repro.sim.node.Node`).
    num_resources:
        Total number of resources ``M``.
    num_processes:
        Total number of sites ``N``: the length of every token's
        obsolescence vectors.  ``node_id`` must lie in ``0..N-1``; site 0
        owns every token at time zero (the *elected node* of the
        initialisation pseudo-code).
    config:
        Algorithm configuration (loan on/off, loan threshold).
    trace:
        Optional trace recorder for Gantt rendering / debugging.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        num_resources: int,
        num_processes: int,
        config: CoreConfigSpec,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        Node.__init__(self, sim, network, node_id)
        if num_resources < 1:
            raise ValueError("num_resources must be >= 1")
        self.num_resources = num_resources
        if not 0 <= node_id < num_processes:
            raise ValueError(f"node_id {node_id} is not a site id in 0..{num_processes - 1}")
        self.config = config
        self.trace = trace

        owns_all = node_id == 0
        # tokDir: probable owner per resource (None <=> this node holds the token)
        self.tok_dir: List[Optional[int]] = [None if owns_all else 0] * num_resources
        # lastTok: a (possibly stale) snapshot of every token, its
        # obsolescence vectors indexed by site id.
        self.last_tok: List[ResourceToken] = [
            ResourceToken(r, 1, [0] * num_processes, [0] * num_processes)
            for r in range(num_resources)
        ]
        self._t_owned: Set[int] = set(range(num_resources)) if owns_all else set()

        self._state = _IDLE
        self._t_required: Set[int] = set()
        self._cnt_needed: Set[int] = set()
        self._my_vector: List[int] = [0] * num_resources
        self._cur_id = 0
        self._t_lent: Set[int] = set()
        self._loan_asked = False
        self._on_granted: Optional[Callable[[], None]] = None
        self._pending_req: Dict[int, Dict[Tuple[type, int, int], RequestKind]] = {
            r: {} for r in range(num_resources)
        }
        # A(MyVector) and our own ReqRes per resource, computed once per
        # waitCS phase (both are fixed while it lasts) and dropped by
        # _set_state.
        self._mark: Optional[float] = None
        self._my_reqs: Dict[int, ReqRes] = {}
        self._single_fast_path = False

        # Aggregation buffers (Section 4.2.2): request messages and response
        # messages addressed to the same site are combined per handler run.
        self._req_buffer: Dict[int, List[RequestKind]] = {}
        self._cnt_buffer: Dict[int, List[CounterValue]] = {}
        self._tok_buffer: Dict[int, List[ResourceToken]] = {}
        # Visited set for locally originated requests, allocated once: it
        # is passed on every flush and never mutated.
        self._visited_self: FrozenSet[int] = frozenset((self.node_id,))

    # ------------------------------------------------------------------ #
    # public interface (MultiResourceAllocator)
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> ProcessState:
        """Current protocol state (Figure 2)."""
        return self._state

    @property
    def in_critical_section(self) -> bool:
        return self._state is _IN_CS

    @property
    def is_idle(self) -> bool:
        return self._state is _IDLE

    @property
    def owned_tokens(self) -> FrozenSet[int]:
        """Resources whose token this process currently holds."""
        return frozenset(self._t_owned)

    @property
    def telemetry_queue_depth(self) -> int:
        """Requests queued on tokens this node holds (waiting + loan).

        Pull-style telemetry source (:mod:`repro.obs.runtime`): read only
        by the sampling probe of telemetry-enabled runs, never on the
        protocol's own path.
        """
        last_tok = self.last_tok
        return sum(
            len(last_tok[r].wqueue) + len(last_tok[r].wloan) for r in self._t_owned
        )

    def acquire(self, resources: Iterable[int], on_granted: Callable[[], None]) -> None:
        """Request exclusive access to ``resources`` (``Request_CS``)."""
        if self._state is not _IDLE:
            raise AllocatorError(
                f"node {self.node_id}: acquire() while a request is outstanding "
                f"(state={self._state.value})"
            )
        rset = validate_resources(resources, self.num_resources)
        self._cur_id += 1
        self._t_required = set(rset)
        self._on_granted = on_granted
        self._loan_asked = False
        self._my_vector = [0] * self.num_resources
        self._cnt_needed = set()
        self._single_fast_path = False
        if (
            self.config.single_resource_optimization
            and len(rset) == 1
            and self.tok_dir[next(iter(rset))] is not None
        ):
            # Section 4.6.1: single-resource requests skip the counter phase;
            # the holder applies A to the counter itself and treats this
            # ReqCnt as a resource request.
            resource = next(iter(rset))
            self._single_fast_path = True
            self._set_state(_WAIT_CS)
            self._buffer_request(
                self.tok_dir[resource], ReqCnt(resource, self.node_id, self._cur_id, True)
            )
            self._flush_requests(self._visited_self)
            return
        self._set_state(_WAIT_S)
        for r in sorted(rset):
            if self.tok_dir[r] is None:
                # Token held locally: reserve the counter value directly.
                self._my_vector[r] = self.last_tok[r].take_counter()
            else:
                self._cnt_needed.add(r)
                self._buffer_request(self.tok_dir[r], ReqCnt(r, self.node_id, self._cur_id))
        self._flush_requests(self._visited_self)
        if self._t_required <= self._t_owned:
            self._enter_cs()
        elif not self._cnt_needed:
            # All counters known locally but some tokens were given away
            # since: move straight to the acquisition phase.
            self._process_cnt_needed_empty()
            self._flush_requests(self._visited_self)

    def release(self) -> None:
        """Exit the critical section (``Release_CS``)."""
        if self._state is not _IN_CS:
            raise AllocatorError(
                f"node {self.node_id}: release() outside critical section "
                f"(state={self._state.value})"
            )
        self._set_state(_IDLE)
        self._loan_asked = False
        for r in sorted(self._t_required):
            tok = self.last_tok[r]
            tok.last_cs[self.node_id] = self._cur_id
            lender = tok.lender
            if lender is not None and lender != self.node_id:
                # Borrowed token: it goes straight back to its lender.
                tok.remove_requests_of(lender)
                tok.lender = None
                self._send_token(lender, r)
            elif tok.wqueue:
                nxt = self._pop_next_requester(tok)
                if nxt is not None:
                    self._send_token(nxt, r)
        self._t_required = set()
        self._my_vector = [0] * self.num_resources
        self._flush_responses()

    # ------------------------------------------------------------------ #
    # message handlers
    # ------------------------------------------------------------------ #
    def on_RequestEnvelope(self, src: int, env: RequestEnvelope) -> None:
        """Handle an aggregated request message (``Receive Request``).

        For each request this node is either the token *holder*
        (:meth:`_handle_request`) or a *forwarder* on the probable-owner
        tree (Section 4.2.1), handled here: remember the request so it can
        be replayed if the token passes through, then pass it on to the
        father unless the father has already seen it.  Most envelopes
        carry one request that is forwarded: request records and envelopes
        are immutable (tuple-backed), so the received tuple is re-sent as
        it is — and, being the tuple this loop iterates, it is not empty.
        """
        requests = env.requests
        visited = env.visited
        # Forwards of a multi-request envelope, aggregated per destination.
        forwards: Optional[Dict[int, List[RequestKind]]] = None
        for req in requests:
            r = req.resource
            tok = self.last_tok[r]
            sinit = req.sinit
            req_id = req.req_id
            cls = req.__class__
            # Obsolescence is judged on our (possibly stale) copy of the token.
            if cls is ReqCnt:
                if tok.is_obsolete_cnt(sinit, req_id):
                    continue
            elif tok.is_obsolete_cs(sinit, req_id):
                continue
            if r in self._t_owned:
                self._handle_request(req)
                continue
            self._pending_req[r][(cls, sinit, req_id)] = req
            father = self.tok_dir[r]
            if father is None or father in visited:
                # Forwarding stops; the request stays in our local history
                # and will be replayed when (if) the token passes through us.
                continue
            if len(requests) == 1:
                self.send(
                    father, _tuple_new(RequestEnvelope, (visited | self._visited_self, requests))
                )
            elif forwards is None:
                forwards = {father: [req]}
            else:
                forwards.setdefault(father, []).append(req)
        if forwards:
            visited = visited | self._visited_self
            for dest, reqs in forwards.items():
                self.send(dest, _tuple_new(RequestEnvelope, (visited, tuple(reqs))))
        if self._cnt_buffer or self._tok_buffer:
            self._flush_responses()

    def on_CounterEnvelope(self, src: int, env: CounterEnvelope) -> None:
        """Handle aggregated counter values (``Receive Counter``)."""
        for cnt in env.counters:
            r = cnt.resource
            if r not in self._cnt_needed:
                # Duplicate / stale counter (already satisfied through a
                # token or an earlier reply): ignore.
                continue
            self._my_vector[r] = cnt.value
            self._cnt_needed.discard(r)
            if self.tok_dir[r] is not None:
                # Path shortcut (Section 4.6.2): the replier held the token.
                self.tok_dir[r] = src
        if self._state is _WAIT_S and not self._cnt_needed:
            self._process_cnt_needed_empty()
        if self._req_buffer:
            self._flush_requests(self._visited_self)

    def on_TokenEnvelope(self, src: int, env: TokenEnvelope) -> None:
        """Handle aggregated resource tokens (``Receive Token``)."""
        for tok in env.tokens:
            self._process_update(tok)
        entering = (
            bool(self._t_required)
            and self._t_required <= self._t_owned
            and self._state in _WAITING
        )
        if not entering:
            # Return failed loans, advance the counter phase if complete,
            # serve the queues of the tokens we hold and possibly initiate
            # a loan request of our own.  Tokens only leave during these
            # steps, so one sorted snapshot of the owned set serves them all.
            owned = sorted(self._t_owned)
            self._return_failed_loans(owned)
            if self._state is _WAIT_S and not self._cnt_needed:
                self._process_cnt_needed_empty()
            self._serve_queues(owned)
            if self.config.enable_loan:
                self._process_pending_loans(owned)
                self._maybe_request_loan()
        elif self._t_owned != self._t_required:
            # Release_CS serves only the required tokens: hand the spare
            # ones on now, or their queues would wait for good.
            self._serve_queues(sorted(self._t_owned - self._t_required))
        if self._cnt_buffer or self._tok_buffer:
            self._flush_responses()
        if self._req_buffer:
            self._flush_requests(self._visited_self)
        if entering:
            self._enter_cs()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _handle_request(self, req: RequestKind) -> None:
        """Holder role: serve a live (non-obsolete) request for a token we own."""
        r = req.resource
        tok = self.last_tok[r]
        cls = req.__class__
        if cls is ReqLoan:
            self._process_req_loan(req)
        elif r not in self._t_required or (
            self._state is _WAIT_S and cls is not ReqCnt
        ):
            # Either we do not need the resource, or we are still in the
            # counter phase: hand the token over directly.
            self._send_token(req.sinit, r)
        elif cls is ReqCnt:
            tok.last_req_cnt[req.sinit] = req.req_id
            if req.single:
                # Section 4.6.1: stamp the request here and treat it as
                # a resource request right away.
                self._handle_request(
                    ReqRes(r, req.sinit, req.req_id, float(tok.take_counter()))
                )
            else:
                self._buffer_counter(req.sinit, CounterValue(r, tok.take_counter()))
        elif not tok.queue_contains(req.sinit, req.req_id):
            if self._state is _WAIT_CS:
                my_req = self._my_req_for(r)
                if precedes(req, my_req):
                    # The incoming request has priority: yield the token
                    # and queue our own request so it comes back.
                    tok.enqueue(my_req)
                    self._send_token(req.sinit, r)
                    return
            # We are in CS, or our request has priority: queue it.
            tok.enqueue(req)

    def _process_req_loan(self, req: ReqLoan) -> None:
        r = req.resource
        tok = self.last_tok[r]
        if tok.is_obsolete_cs(req.sinit, req.req_id):
            return
        if r not in self._t_owned:
            # Can happen when called on queued loans after the token moved.
            return
        if self._can_lend(req):
            self._t_lent = set(req.missing)
            for lent in sorted(self._t_lent):
                lent_tok = self.last_tok[lent]
                lent_tok.lender = self.node_id
                lent_tok.remove_loans_of(req.sinit)
                self._send_token(req.sinit, lent)
            if self.trace is not None:
                self._trace("loan_granted", borrower=req.sinit, resources=sorted(req.missing))
        else:
            if r not in self._t_required or self._state is _WAIT_S:
                self._send_token(req.sinit, r)
            elif not tok.loan_contains(req.sinit, req.req_id):
                tok.enqueue_loan(req)

    def _can_lend(self, req: ReqLoan) -> bool:
        """The ``canLend`` predicate (Section 4.5 / lines 117-132)."""
        if not self.config.enable_loan:
            return False
        if not req.missing <= self._t_owned:
            return False
        if any(self.last_tok[r].lender is not None for r in self._t_owned):
            return False
        if self._t_lent:
            return False
        if self._state is _IN_CS:
            return False
        if self._state is _WAIT_CS:
            if not self._loan_asked:
                return True
            return request_key(req) < (self._current_mark(), self.node_id)
        return True

    # ------------------------------------------------------------------ #
    # token handling
    # ------------------------------------------------------------------ #
    def _process_update(self, incoming: ResourceToken) -> None:
        """Adopt a received token as the authoritative state (``processUpdate``)."""
        r = incoming.resource
        tok = incoming
        if tok.lender == self.node_id:
            # One of our lent tokens coming home.
            tok.lender = None
        self.last_tok[r] = tok
        self._t_owned.add(r)
        self.tok_dir[r] = None
        self._t_lent.discard(r)
        if r in self._cnt_needed:
            self._my_vector[r] = tok.take_counter()
            self._cnt_needed.discard(r)
        # Our own entries are satisfied by ownership; drop them (but keep
        # them inside borrowed tokens so a failed loan can restore them).
        if tok.lender is None:
            tok.remove_requests_of(self.node_id)
        tok.remove_loans_of(self.node_id)
        if self.trace is not None:
            self._trace("token_received", resource=r, lender=tok.lender)
        # Replay the locally buffered requests that may never have reached
        # the previous holders (Section 4.2.1).
        pending = self._pending_req[r]
        if not pending:
            return
        self._pending_req[r] = {}
        me = self.node_id
        for req in pending.values():
            sinit = req.sinit
            if sinit == me:
                continue
            req_id = req.req_id
            cls = req.__class__
            if cls is ReqCnt:
                if tok.is_obsolete_cnt(sinit, req_id):
                    continue
                tok.last_req_cnt[sinit] = req_id
                if req.single:
                    if not tok.queue_contains(sinit, req_id):
                        tok.enqueue(ReqRes(r, sinit, req_id, float(tok.take_counter())))
                else:
                    self._buffer_counter(sinit, CounterValue(r, tok.take_counter()))
            elif tok.is_obsolete_cs(sinit, req_id):
                continue
            elif cls is ReqRes:
                if not tok.queue_contains(sinit, req_id):
                    tok.enqueue(req)
            elif not tok.loan_contains(sinit, req_id):
                tok.enqueue_loan(req)

    def _return_failed_loans(self, owned: List[int]) -> None:
        """Return borrowed tokens when the loan did not let us enter the CS.

        ``owned`` is the sorted owned set, snapshotted by the caller (as
        for the two methods below, which skip what has left it since).
        """
        for r in owned:
            tok = self.last_tok[r]
            lender = tok.lender
            if lender is None or lender == self.node_id:
                continue
            tok.lender = None
            # Keep our request registered so it is not lost with the loan.
            if (
                r in self._t_required
                and self._state in _WAITING
                and not tok.queue_contains(self.node_id, self._cur_id)
            ):
                tok.enqueue(self._my_req_for(r))
            self._send_token(lender, r)
            self._loan_asked = False
            self._trace("loan_failed", lender=lender, resource=r)

    def _serve_queues(self, owned: List[int]) -> None:
        """Grant owned tokens to higher-priority queued requests (lines 226-240)."""
        for r in owned:
            tok = self.last_tok[r]
            if not tok.wqueue or r not in self._t_owned:
                continue
            # Drop stale heads (our own entries or already-satisfied requests).
            head = tok.wqueue[0]
            while head is not None and (
                head.sinit == self.node_id or tok.is_obsolete_cs(head.sinit, head.req_id)
            ):
                tok.dequeue()
                head = tok.head()
            if head is None:
                continue
            if self._state in (_WAIT_S, _IDLE) or r not in self._t_required:
                tok.dequeue()
                self._send_token(head.sinit, r)
            elif self._state is _WAIT_CS:
                my_req = self._my_req_for(r)
                if precedes(head, my_req):
                    tok.dequeue()
                    tok.enqueue(my_req)
                    self._send_token(head.sinit, r)
            # IN_CS: queued requests wait until Release_CS.

    def _process_pending_loans(self, owned: List[int]) -> None:
        """Re-examine queued loan requests of the tokens we hold (lines 241-247)."""
        for r in owned:
            tok = self.last_tok[r]
            if not tok.wloan or r not in self._t_owned:
                continue
            pending = tok.wloan
            tok.wloan = []
            for req in pending:
                if r in self._t_owned:
                    self._process_req_loan(req)

    def _maybe_request_loan(self) -> None:
        """Initiate a loan request when few resources are missing (lines 248-252)."""
        if self._state is not _WAIT_CS or self._loan_asked:
            return
        missing = self._t_required - self._t_owned
        if not missing or len(missing) > self.config.loan_threshold:
            return
        self._loan_asked = True
        my_mark = self._current_mark()
        fmissing = frozenset(missing)
        for r in sorted(missing):
            father = self.tok_dir[r]
            if father is None:  # pragma: no cover - defensive
                continue
            self._buffer_request(
                father,
                ReqLoan(
                    resource=r,
                    sinit=self.node_id,
                    req_id=self._cur_id,
                    mark=my_mark,
                    missing=fmissing,
                ),
            )
        if self.trace is not None:
            self._trace("loan_requested", missing=sorted(missing))

    # ------------------------------------------------------------------ #
    # counter phase
    # ------------------------------------------------------------------ #
    def _process_cnt_needed_empty(self) -> None:
        """All counter values obtained: move to ``waitCS`` and request tokens."""
        self._set_state(_WAIT_CS)
        for r in sorted(self._t_required):
            if r in self._t_owned:
                continue
            father = self.tok_dir[r]
            if father is None:  # pragma: no cover - defensive
                continue
            self._buffer_request(father, self._my_req_for(r))

    def _current_mark(self) -> float:
        """``A(MyVector)`` for the outstanding request.

        ``MyVector`` and the required set are fixed for the whole ``waitCS``
        phase, so the value is kept until the next state change; in
        ``waitS`` (a borrowed token reaching a rebooted node) the vector is
        still filling up and the mark is computed afresh.
        """
        value = self._mark
        if value is None:
            value = mark(self._my_vector, self._t_required)
            if self._state is _WAIT_CS:
                self._mark = value
        return value

    def _my_req_for(self, resource: int) -> ReqRes:
        """Our own ``ReqRes`` entry for ``resource`` (``myReq``)."""
        req = self._my_reqs.get(resource)
        if req is None:
            req = ReqRes(resource, self.node_id, self._cur_id, self._current_mark())
            if self._state is _WAIT_CS:
                self._my_reqs[resource] = req
        return req

    # ------------------------------------------------------------------ #
    # send helpers / aggregation buffers
    # ------------------------------------------------------------------ #
    def _send_token(self, dest: int, resource: int) -> None:
        if resource not in self._t_owned:
            raise AllocatorError(
                f"node {self.node_id}: sending token {resource} it does not own"
            )
        if dest == self.node_id:
            raise AllocatorError(f"node {self.node_id}: sending token {resource} to itself")
        self._tok_buffer.setdefault(dest, []).append(self.last_tok[resource].copy())
        self.tok_dir[resource] = dest
        self._t_owned.discard(resource)
        if self.trace is not None:
            self._trace("token_sent", resource=resource, dest=dest)

    def _buffer_request(self, dest: int, req: RequestKind) -> None:
        self._req_buffer.setdefault(dest, []).append(req)

    def _buffer_counter(self, dest: int, cnt: CounterValue) -> None:
        self._cnt_buffer.setdefault(dest, []).append(cnt)

    def _flush_requests(self, visited: FrozenSet[int]) -> None:
        if not self._req_buffer:
            return
        buffered = self._req_buffer
        self._req_buffer = {}
        # A buffer entry exists only because setdefault(dest, []).append(x)
        # created it: no payload below (or in _flush_responses) is empty.
        for dest, reqs in buffered.items():
            self.send(dest, _tuple_new(RequestEnvelope, (visited, tuple(reqs))))

    def _flush_responses(self) -> None:
        if self._cnt_buffer:
            buffered = self._cnt_buffer
            self._cnt_buffer = {}
            for dest, counters in buffered.items():
                self.send(dest, _tuple_new(CounterEnvelope, (tuple(counters),)))
        if self._tok_buffer:
            buffered_toks = self._tok_buffer
            self._tok_buffer = {}
            for dest, toks in buffered_toks.items():
                self.send(dest, _tuple_new(TokenEnvelope, (tuple(toks),)))

    # ------------------------------------------------------------------ #
    # misc internals
    # ------------------------------------------------------------------ #
    def _pop_next_requester(self, tok: ResourceToken) -> Optional[int]:
        """Pop the next live foreign requester from a token queue.

        Skips the node's own stale entries and entries made obsolete by an
        already-completed critical section (e.g. requests satisfied through
        a loan)."""
        while tok.wqueue:
            req = tok.dequeue()
            if req.sinit == self.node_id:
                continue
            if tok.is_obsolete_cs(req.sinit, req.req_id):
                continue
            return req.sinit
        return None

    def _enter_cs(self) -> None:
        self._set_state(_IN_CS)
        callback = self._on_granted
        self._on_granted = None
        if self.trace is not None:
            self._trace("cs_enter", resources=sorted(self._t_required), req_id=self._cur_id)
        if callback is not None:
            callback()

    def _set_state(self, new_state: ProcessState) -> None:
        if new_state is self._state:
            return
        if self.trace is not None:
            self._trace("state", frm=self._state.value, to=new_state.value)
        self._state = new_state
        self._mark = None
        self._my_reqs = {}

    def _trace(self, kind: str, **details: object) -> None:
        if self.trace is not None:
            self.trace.record(self.sim.now, self.node_id, kind, **details)
