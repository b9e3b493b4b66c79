"""Per-resource token structure (the ``Token`` type of Figure 8).

Exactly one token exists per resource at any time; the process holding it
is the only one allowed to read and increment the resource counter and to
manipulate the waiting queues, which is what makes counter values unique
without any global lock.

The two obsolescence vectors ``lastReqC`` and ``lastCS`` are arrays with
one entry per site, as in Figure 8: plain lists of ``N`` ints indexed by
site id ``0..N-1``.  A node starts every snapshot with ``N`` zeros, and a
site outside that range fails with :class:`IndexError`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import ReqLoan, ReqRes

from repro.core.ordering import request_key


_object_new = object.__new__


def _insert_in_order(queue: List, req: Union["ReqRes", "ReqLoan"]) -> None:
    """Insert ``req`` into ``queue`` (sorted by ``/``), before any equal key."""
    queue.insert(bisect_left(queue, request_key(req), key=request_key), req)


@dataclass(slots=True)
class ResourceToken:
    """State carried by the unique token of one resource.

    Attributes
    ----------
    resource:
        Resource identifier this token controls.
    counter:
        Next counter value to hand out (strictly increasing).
    last_req_cnt:
        ``lastReqC`` array of the paper, indexed by site id: the id of the
        last ``ReqCnt`` of each site already answered — used to discard
        obsolete counter requests.
    last_cs:
        ``lastCS`` array, indexed by site id: the id of the last
        critical-section request of each site already satisfied — used to
        discard obsolete resource and loan requests.
    wqueue:
        Pending ``ReqRes`` entries in increasing ``/`` order (mark, site).
    wloan:
        Pending ``ReqLoan`` entries in increasing ``/`` order.
    lender:
        When the token has been lent, the identifier of the lender site.
    epoch:
        Fencing epoch of this token incarnation, bumped by every
        regeneration (:mod:`repro.core.recovery`).  A receiver discards
        tokens older than the epoch it last witnessed, so a stale copy of
        a lost-and-rebuilt token can never come back to life as a second
        token.  Always ``0`` in crash-free runs.
    """

    resource: int
    counter: int = 1
    last_req_cnt: List[int] = field(default_factory=list)
    last_cs: List[int] = field(default_factory=list)
    wqueue: List["ReqRes"] = field(default_factory=list)
    wloan: List["ReqLoan"] = field(default_factory=list)
    lender: Optional[int] = None
    epoch: int = 0

    # ------------------------------------------------------------------ #
    # counter handling
    # ------------------------------------------------------------------ #
    def take_counter(self) -> int:
        """Reserve and return the current counter value, then increment it."""
        value = self.counter
        self.counter += 1
        return value

    # ------------------------------------------------------------------ #
    # obsolescence (Section 4.2.1)
    # ------------------------------------------------------------------ #
    def is_obsolete_cnt(self, sinit: int, req_id: int) -> bool:
        """Whether a ``ReqCnt`` from ``sinit`` with ``req_id`` is obsolete."""
        return req_id <= self.last_req_cnt[sinit] or req_id <= self.last_cs[sinit]

    def is_obsolete_cs(self, sinit: int, req_id: int) -> bool:
        """Whether a ``ReqRes``/``ReqLoan`` from ``sinit`` is obsolete."""
        return req_id <= self.last_cs[sinit]

    # ------------------------------------------------------------------ #
    # waiting queues
    # ------------------------------------------------------------------ #
    def queue_contains(self, sinit: int, req_id: int) -> bool:
        """Whether the waiting queue already holds a request from ``sinit``
        for critical-section request ``req_id``."""
        for r in self.wqueue:
            if r.sinit == sinit and r.req_id == req_id:
                return True
        return False

    def enqueue(self, req: "ReqRes") -> None:
        """Insert a resource request keeping the queue sorted by ``/``."""
        _insert_in_order(self.wqueue, req)

    def dequeue(self) -> "ReqRes":
        """Pop the highest-priority (head) resource request."""
        return self.wqueue.pop(0)

    def head(self) -> Optional["ReqRes"]:
        """Return the highest-priority pending request, if any."""
        return self.wqueue[0] if self.wqueue else None

    def remove_requests_of(self, sinit: int) -> None:
        """Drop every queued resource request issued by ``sinit``."""
        if self.wqueue:
            self.wqueue = [r for r in self.wqueue if r.sinit != sinit]

    # ------------------------------------------------------------------ #
    # loan queue
    # ------------------------------------------------------------------ #
    def loan_contains(self, sinit: int, req_id: int) -> bool:
        """Whether the loan queue already holds this loan request."""
        for r in self.wloan:
            if r.sinit == sinit and r.req_id == req_id:
                return True
        return False

    def enqueue_loan(self, req: "ReqLoan") -> None:
        """Insert a loan request keeping the loan queue sorted by ``/``."""
        _insert_in_order(self.wloan, req)

    def remove_loans_of(self, sinit: int) -> None:
        """Drop every queued loan request issued by ``sinit``."""
        if self.wloan:
            self.wloan = [r for r in self.wloan if r.sinit != sinit]

    # ------------------------------------------------------------------ #
    # copying
    # ------------------------------------------------------------------ #
    def copy(self) -> "ResourceToken":
        """Deep-enough copy used when the token is put on the wire.

        Request entries are immutable, so copying the containers is
        sufficient to decouple the sender's stale snapshot from the live
        token travelling through the network.  There is one copy per
        token hop, so it skips the generated ``__init__`` frame: a bare
        instance and one store per slot, every field declared above.
        """
        token = _object_new(ResourceToken)
        token.resource = self.resource
        token.counter = self.counter
        token.last_req_cnt = self.last_req_cnt[:]
        token.last_cs = self.last_cs[:]
        token.wqueue = self.wqueue[:]
        token.wloan = self.wloan[:]
        token.lender = self.lender
        token.epoch = self.epoch
        return token
