"""Message types of the core algorithm (Figure 8 of the paper).

Three *request* message kinds travel along the per-resource trees towards
the token holder (``ReqCnt``, ``ReqRes``, ``ReqLoan``); two *response*
kinds travel directly to the requester (``Counter`` values and the resource
``Token`` itself).

The paper's aggregation mechanism (Section 4.2.2) combines messages of the
same family addressed to the same site into a single network message; the
``*Envelope`` classes are those combined network messages.  Individual
request records stay small and immutable so they can safely sit in token
waiting queues and per-node histories.

What the records are
--------------------
Every network message of the loan protocol is an envelope wrapping a tuple
of records, so the seven classes are *tuple-backed*: each is a
``collections.namedtuple`` subclassed with ``__slots__ = ()`` over
:class:`repro.sim.node.Record`, the base every protocol's messages share.
A record is built by one C call (``tuple.__new__``), its fields are read
through C-level tuple getters, and it is immutable because a tuple is, not
because ``__setattr__`` is overridden.  Guaranteed, and pinned by
``tests/core/test_messages.py``:

* class names, field names, field order and defaults are the protocol's
  vocabulary; positional and keyword construction agree, and
  ``message.__class__`` is the key network dispatch, the ``kinds=`` loss
  filters and the per-type message counters use;
* assigning or deleting an attribute raises ``AttributeError``;
* records are hashable, equal fields give equal hashes, and records of
  *different* classes never compare equal although their underlying tuples
  may (``ReqCnt(1, 2, 3, False) != ReqRes(1, 2, 3, 0.0)``);
* ``repr`` names the class and its fields; ``pickle`` and ``copy`` give
  back an equal record of the same class.

Where envelopes are validated
-----------------------------
An envelope with an empty payload is a protocol bug, so the public
constructors of the three envelopes raise ``ValueError`` on one.  The four
places of ``core/node.py`` that *assemble* envelopes (the forwarder, the
request flush and the two response flushes) do not go through them: there
non-emptiness is structural — the forwarder re-sends the tuple it is
iterating, a buffer entry exists only because something was appended to
it — so they build the record directly with ``tuple.__new__(cls, fields)``
and save one Python frame per message (as does the token regenerator, for
a literal one-token payload).  Both ways produce the same class.
``tests/properties/test_envelope_properties.py`` checks on whole runs that
no empty envelope ever reaches the network, and
``tests/integration/test_call_contracts.py`` that no run enters this module.

How records are built on the hot path
-------------------------------------
The request and counter records are built the same way wherever a run
makes them, in ``core/node.py`` and ``core/recovery.py``:
``tuple.__new__(cls, fields)`` with every field given.  The public
constructors are each namedtuple's generated ``__new__``, code compiled
from a string that costs one Python frame per record, and they are
where the defaults live (``single=False``, ``missing=frozenset()``), so
a positional ``ReqCnt`` spells out its ``single``.  The public
constructors remain the vocabulary of tests and hand-built records.
``tests/integration/test_generated_frames.py`` checks that a run's
generated frames do not grow with its length.
"""

from __future__ import annotations

from collections import namedtuple
from typing import FrozenSet, Tuple, Union

from repro.core.token import ResourceToken
from repro.sim.node import Record

_tuple_new = tuple.__new__


class ReqCnt(Record, namedtuple("ReqCnt", "resource sinit req_id single", defaults=(False,))):
    """Request for the current counter value of ``resource``.

    Sent by ``sinit`` for its critical-section request ``req_id`` while in
    the ``waitS`` state.

    ``single`` marks the single-resource fast path of Section 4.6.1: the
    request asks for exactly one resource, so the token holder may apply
    the scheduling function itself and treat this message directly as a
    resource request instead of replying with a counter value.
    """

    __slots__ = ()

    resource: int
    sinit: int
    req_id: int
    single: bool


class ReqRes(Record, namedtuple("ReqRes", "resource sinit req_id mark")):
    """Request for the right to access ``resource``.

    ``mark`` is the value of the scheduling function ``A`` applied to the
    requester's counter vector; together with ``sinit`` it defines the
    request's position in the total order ``/``.
    """

    __slots__ = ()

    resource: int
    sinit: int
    req_id: int
    mark: float


class ReqLoan(
    Record,
    namedtuple("ReqLoan", "resource sinit req_id mark missing", defaults=(frozenset(),)),
):
    """Request to *borrow* ``resource`` (and the rest of ``missing``).

    Sent by a ``waitCS`` process that misses at most ``loan_threshold``
    resources; the receiver may lend the whole ``missing`` set at once if
    the conditions of ``canLend`` hold (Section 4.5).
    """

    __slots__ = ()

    resource: int
    sinit: int
    req_id: int
    mark: float
    missing: FrozenSet[int]


#: Union of the three request kinds (the paper's "request messages" family).
RequestKind = Union[ReqCnt, ReqRes, ReqLoan]


class CounterValue(Record, namedtuple("CounterValue", "resource value")):
    """Reply to a ``ReqCnt``: the counter value reserved for the request."""

    __slots__ = ()

    resource: int
    value: int


class RequestEnvelope(Record, namedtuple("RequestEnvelope", "visited requests")):
    """Aggregated request message forwarded along the trees.

    ``visited`` is the set of sites already traversed by these requests;
    forwarding stops when the probable owner is already in ``visited``
    (Section 4.2.1), which prevents messages from cycling forever while the
    trees reshape themselves.
    """

    __slots__ = ()

    visited: FrozenSet[int]
    requests: Tuple[RequestKind, ...]

    def __new__(
        cls, visited: FrozenSet[int], requests: Tuple[RequestKind, ...]
    ) -> "RequestEnvelope":
        if not requests:
            raise ValueError("a request envelope must carry at least one request")
        return _tuple_new(cls, (visited, requests))


class CounterEnvelope(Record, namedtuple("CounterEnvelope", "counters")):
    """Aggregated ``Counter`` replies sent directly to one requester."""

    __slots__ = ()

    counters: Tuple[CounterValue, ...]

    def __new__(cls, counters: Tuple[CounterValue, ...]) -> "CounterEnvelope":
        if not counters:
            raise ValueError("a counter envelope must carry at least one value")
        return _tuple_new(cls, (counters,))


class TokenEnvelope(Record, namedtuple("TokenEnvelope", "tokens")):
    """Aggregated resource tokens sent directly to one site."""

    __slots__ = ()

    tokens: Tuple[ResourceToken, ...]

    def __new__(cls, tokens: Tuple[ResourceToken, ...]) -> "TokenEnvelope":
        if not tokens:
            raise ValueError("a token envelope must carry at least one token")
        return _tuple_new(cls, (tokens,))
