"""FIFO message-passing network: the reliable channel of the paper's model.

Implements the communication model assumed in Section 3.1 of the paper:

* reliable links — no loss, no duplication;
* FIFO links — messages between a given ordered pair of nodes are
  delivered in the order they were sent, even if the latency model is
  jittered (delivery times are clamped to be non-decreasing per link);
* complete communication graph — any node can message any other node.

An optional fault layer (a fault spec of :mod:`repro.sim.faults`, bound
to the run) keeps that model and turns faults into *delay*: its one
hook, ``handover``, is asked once, at send time, when the channel hands
the message over.  A try lost to Bernoulli loss is re-sent :data:`RTO`
later, a message due over a partitioned link is held until the link
heals, and one due at a down node is held until the node reboots; each
lost try counts in :class:`MessageStats` (``dropped``, ``resent``).  A
message is lost for good (the hook says ``math.inf``) only when nothing
could ever deliver it: a down sender, a sure loss (``p == 1``), a
partition that never heals, a receiver that never reboots.  The FIFO
clamp applies after the delay, so a held or re-sent message holds back
the later messages of its link (head-of-line blocking), and a lost one
holds back nothing.  With no fault layer (``faults=None``) the hot path
is exactly the reliable one.

The network also keeps per-message-type counters so experiments can report
message complexity alongside the paper's two primary metrics.

``send`` is the hottest call site of every distributed run, so it is
**bound once at construction** instead of branching per message:
``Network.__init__`` looks at the latency spec's type and installs one
of two functions as the instance attribute ``send``.

* exactly :class:`~repro.sim.latency.ConstantLatencySpec` (the paper's
  default configuration): a constant latency can never reorder a link,
  so an unexposed message needs no per-link FIFO clamp, and the latency
  is hoisted to two floats.  Better still, every unexposed message
  between two distinct nodes is due ``gamma`` after it is sent, so this
  network's deliveries are sent in the order they fire: the network
  claims the simulator's FIFO lane (:meth:`Simulator.claim_lane
  <repro.sim.engine.Simulator.claim_lane>`) for them, and they skip the
  heap.  A self-send (``local``) and an exposed message still go on the
  heap.
* any other latency spec (or a subclass): a latency draw through a bound
  method hoisted at construction, plus the per-link FIFO clamp.

Both resolve the delivery callback *per (destination, message class)*
once (an unknown destination raises ``KeyError`` there, before anything
is counted), update one flat counter, and queue the delivery through the
simulator's sequence counter and its push, or the lane's, directly (see
:mod:`repro.sim.engine`), with no ``Simulator.schedule_at`` frame.
They skip its past-time check: every latency spec rejects a negative or
non-finite delay at construction (``tests/sim/test_latency.py``) and the
FIFO clamp only moves a delivery later, so a delivery is never before
``now``.  A node's ``send`` enters the bound function directly
(:class:`~repro.sim.node.Node`), so a message costs one Python frame of
``sim`` on the constant send.  And both apply the same **exposure
test** before involving the fault layer: a message is exposed when it
is due at or after the layer's ``quiet_until()`` *and* its source
or destination is one of the layer's ``exposed_nodes()`` (``None``:
every node).  Only an exposed message is put to ``handover`` and goes
through the clamp table on both sends; every other message is due when
its latency says, because the hook contractually returns that time for
it.  Both declarations depend on the fault spec alone, so deciding at
send time cannot race a crash that begins while the message is in
flight: a message to or from a node that can crash is always exposed,
whenever it is sent.  On the constant send, once a link's messages are
due past ``quiet_until()`` every later one is too, so its unexposed
messages never need the clamp.  A reliable network is quiet forever.

Both sends produce bit-identical simulations where both apply; the
differential tests in ``tests/sim/test_network.py`` pin that, and pin
the production network against a reference that consults the hook
for every message.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatencySpec, LatencySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.faults import FaultSpec
    from repro.sim.node import Node

#: Compact ``Network._last_delivery`` once it holds this many links.
_LAST_DELIVERY_COMPACT_THRESHOLD = 4096

#: Retransmission timeout of the channel (simulated ms): a try lost to
#: Bernoulli loss is re-sent this long after it was due.
RTO = 5.0


class MessageStats:
    """Aggregate message accounting for one simulation run.

    ``total`` counts every message sent; ``dropped`` counts the tries
    that injected faults lost: every try the channel re-sent (``resent``
    of them) plus one per message lost for good.

    Sent messages are counted in one dict keyed by message class,
    updated with a single store per send, and read through the ``total``
    and ``by_type`` views, so the hot send path pays one counter update
    per message and builds no key.
    """

    __slots__ = ("_sent", "dropped", "dropped_by_type", "resent")

    def __init__(self) -> None:
        # message class -> sent count; the single hot-path counter.
        self._sent: Dict[type, int] = {}
        self.dropped: int = 0
        self.dropped_by_type: Dict[str, int] = defaultdict(int)
        self.resent: int = 0

    def record(self, src: int, message: Any) -> None:
        """Record one sent message."""
        cls = message.__class__
        sent = self._sent
        sent[cls] = sent.get(cls, 0) + 1

    def record_dropped(self, src: int, message: Any) -> None:
        """Record one message lost for good to an injected fault (already counted sent)."""
        self.dropped += 1
        self.dropped_by_type[message.__class__.__name__] += 1

    def record_resent(self, src: int, message: Any) -> None:
        """Record one lost try of a message that the channel re-sends."""
        self.record_dropped(src, message)
        self.resent += 1

    # ------------------------------------------------------------------ #
    # merged views (cold path: reports, assertions, snapshots)
    # ------------------------------------------------------------------ #
    @property
    def total(self) -> int:
        """Number of send attempts recorded so far."""
        return sum(self._sent.values())

    @property
    def by_type(self) -> Dict[str, int]:
        """Sent counts per message class name (merged on demand)."""
        merged: Dict[str, int] = defaultdict(int)
        for cls, count in self._sent.items():
            merged[cls.__name__] += count
        return merged

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy of the per-type counters."""
        return dict(self.by_type)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageStats(total={self.total}, dropped={self.dropped}, "
            f"resent={self.resent}, by_type={dict(self.by_type)!r})"
        )


class Network:
    """Message router between registered :class:`~repro.sim.node.Node` objects.

    Parameters
    ----------
    sim:
        Simulation engine used to schedule deliveries.
    latency:
        Latency spec, bound to the run (``LatencySpec.bind``: no ``None``
        gamma left); defaults to the paper's constant ``gamma = 0.6``.
    faults:
        Optional fault layer, a :class:`~repro.sim.faults.FaultSpec` bound
        to the run (``FaultSpec.bind``); ``None`` (default) keeps the
        reliable Section 3.1 links.

    Notes
    -----
    ``send`` is an *instance attribute* bound in ``__init__`` to one of
    two functions (see the module docstring).  Swap :attr:`faults` or
    :attr:`latency` only by constructing a new network — the binding is
    selected once, deliberately, to keep the constant-latency path free
    of per-send configuration branches.
    """

    __slots__ = (
        "sim",
        "latency",
        "stats",
        "faults",
        "send",
        "_nodes",
        "_sent",
        "_delivery_cache",
        "_gamma",
        "_local",
        "_post",
        "_last_delivery",
        "_compact_at",
        "_quiet_until",
        "_exposed_nodes",
        "_latency_of",
    )

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencySpec] = None,
        faults: Optional["FaultSpec"] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else ConstantLatencySpec(gamma=0.6)
        self.faults = faults
        self.stats = MessageStats()
        self._nodes: Dict[int, "Node"] = {}
        # The stats object's flat sent-counter, aliased so the sends do
        # one inline dict update instead of a method call.
        self._sent = self.stats._sent
        # (dst, message class) -> delivery callable, resolved once.
        self._delivery_cache: Dict[Tuple[int, type], Callable[[int, Any], None]] = {}
        # Last scheduled delivery time per directed link, used to enforce
        # per-link FIFO even under jittered latencies and fault delays.
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        # Size at which the clamp table is next compacted; doubled past
        # the live-entry count after each sweep (hysteresis) so a table
        # of still-future deliveries cannot trigger a rebuild per send.
        self._compact_at = _LAST_DELIVERY_COMPACT_THRESHOLD
        # Hoisted constant latencies (only read by the constant send).
        self._gamma = 0.0
        self._local = 0.0
        # The fault layer's scope, read once (it is a function of the
        # spec): the layer cannot move anything due before _quiet_until,
        # nor anything whose source and destination are both outside
        # _exposed_nodes (None: every node is exposed).  A reliable
        # network is quiet forever.
        self._quiet_until = faults.quiet_until() if faults is not None else math.inf
        self._exposed_nodes = faults.exposed_nodes() if faults is not None else None
        # The latency draw of the general send, bound once.
        self._latency_of = self.latency.latency
        if type(self.latency) is ConstantLatencySpec:
            self._gamma = self.latency.gamma
            self._local = self.latency.local
            # Unexposed deliveries between distinct nodes are due `_gamma`
            # after they are sent, so they are sent in the order they fire.
            self._post = sim.claim_lane()
            self.send = self._send_constant
        else:
            self.send = self._send_general

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, node: "Node") -> None:
        """Attach a node to the network; its id must be unique."""
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already registered")
        self._nodes[node.node_id] = node

    # ------------------------------------------------------------------ #
    # message passing
    # ------------------------------------------------------------------ #
    def _resolve_delivery(self, dst: int, cls: type) -> Callable[[int, Any], None]:
        """Resolve (and cache) the delivery callable for ``(dst, cls)``.

        For nodes using the stock :meth:`~repro.sim.node.Node.deliver`,
        this is the bound ``on_<ClassName>`` handler itself, so the
        sends schedule the handler directly and the dispatch
        ``getattr`` happens once per (destination, class) instead of once
        per message.  Nodes that override ``deliver`` keep their override
        in the loop.  Raises ``KeyError`` for an unknown destination.
        """
        node = self._nodes.get(dst)
        if node is None:
            raise KeyError(f"unknown destination node {dst}")
        from repro.sim.node import Node as _Node

        if type(node).deliver is _Node.deliver:
            try:
                target = node._resolve_handler(cls)
            except NotImplementedError:
                # No handler: the error surfaces at *delivery* time, from
                # Node.deliver, not at send time.
                target = node.deliver
        else:
            target = node.deliver
        self._delivery_cache[(dst, cls)] = target
        return target

    def _send_constant(self, src: int, dst: int, message: Any) -> float:
        """Constant-latency send: latency from two hoisted floats.

        An unexposed message (see the module docstring; every message,
        without a fault layer) is queued for its handler with no FIFO
        clamp, on the FIFO lane if it is not a self-send and this
        network holds the lane; an exposed one is clamped, then put to
        the fault layer, and queued on the heap.  Returns the delivery
        time (``math.inf``: lost).
        """
        cls = message.__class__
        target = self._delivery_cache.get((dst, cls))
        if target is None:
            target = self._resolve_delivery(dst, cls)
        sent = self._sent
        sent[cls] = sent.get(cls, 0) + 1
        sim = self.sim
        now = sim.now
        # Never in the past: latencies are non-negative (module docstring).
        if src != dst:
            delivery = now + self._gamma
            post = self._post
        else:
            delivery = now + self._local
            post = sim._push
        if delivery >= self._quiet_until:
            exposed = self._exposed_nodes
            if exposed is None or src in exposed or dst in exposed:
                link = (src, dst)
                last = self._last_delivery
                prev = last.get(link, -1.0)
                if delivery < prev:
                    delivery = prev
                delivery = self.faults.handover(now, delivery, src, dst, message, self.stats)
                if delivery == math.inf:
                    # Lost for good: never scheduled, and the clamp is
                    # untouched, so it cannot delay later messages.
                    self.stats.record_dropped(src, message)
                    return delivery
                last[link] = delivery
                if len(last) >= self._compact_at:
                    self._compact_last_delivery()
                # Clamped or delayed: out of the lane's order.
                post = sim._push
        post((delivery, sim._next_seq(), target, (src, message)))
        return delivery

    def _send_general(self, src: int, dst: int, message: Any) -> float:
        """General send: a latency draw plus the per-link FIFO clamp.

        The order of side effects is fixed: count, draw the latency (so
        the latency RNG advances even for a message that is then lost),
        clamp, ``handover`` if exposed, post.  Returns the delivery time
        (``math.inf``: lost).
        """
        cls = message.__class__
        target = self._delivery_cache.get((dst, cls))
        if target is None:
            target = self._resolve_delivery(dst, cls)
        sent = self._sent
        sent[cls] = sent.get(cls, 0) + 1
        sim = self.sim
        now = sim.now
        delivery = now + self._latency_of(src, dst)
        # FIFO per directed link: never deliver before a previously sent
        # message on the same link.
        link = (src, dst)
        last = self._last_delivery
        prev = last.get(link, -1.0)
        due = delivery if delivery >= prev else prev
        if due >= self._quiet_until:
            exposed = self._exposed_nodes
            if exposed is None or src in exposed or dst in exposed:
                due = self.faults.handover(now, due, src, dst, message, self.stats)
                if due == math.inf:
                    # Lost for good: never scheduled, and the clamp is
                    # untouched, so it cannot delay later messages.
                    self.stats.record_dropped(src, message)
                    return due
        last[link] = due
        if len(last) >= self._compact_at:
            self._compact_last_delivery()
        # Never in the past: latencies are non-negative, and the clamp and
        # the fault layer only move a delivery later (module docstring).
        sim._push((due, sim._next_seq(), target, (src, message)))
        return due

    def _compact_last_delivery(self) -> None:
        """Drop FIFO-clamp entries whose delivery is already in the past.

        A clamp entry only matters while a later message on the same link
        could still be scheduled *before* it; once ``delivery <= now`` any
        new message is scheduled at ``now + latency >= delivery`` anyway
        (latencies are non-negative), so past entries can never clamp
        again and dropping them changes no delivery.  The table is keyed
        by directed link, so it never holds more than N² entries: with
        the threshold at 4 096, a run of fewer than 64 nodes never
        compacts, and a larger cluster keeps only the links that still
        have a delivery ahead.
        """
        now = self.sim.now
        self._last_delivery = {
            key: delivery for key, delivery in self._last_delivery.items() if delivery > now
        }
        self._compact_at = max(
            _LAST_DELIVERY_COMPACT_THRESHOLD, 2 * len(self._last_delivery)
        )
