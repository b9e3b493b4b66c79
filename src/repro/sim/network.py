"""FIFO message-passing network, reliable by default.

Implements the communication model assumed in Section 3.1 of the paper:

* reliable links — no loss, no duplication;
* FIFO links — messages between a given ordered pair of nodes are
  delivered in the order they were sent, even if the latency model is
  jittered (delivery times are clamped to be non-decreasing per link);
* complete communication graph — any node can message any other node.

Reliability is a default, not an axiom: an optional fault layer (a
fault spec of :mod:`repro.sim.faults`, bound to the run) may drop a
message at send time (crashed sender, Bernoulli link loss) or at
delivery time (partition window, crashed receiver); dropped messages
never reach node delivery and are accounted separately in
:class:`MessageStats`.  With no fault layer (``faults=None``) the hot
path is exactly the reliable one.

The network also keeps per-message-type counters so experiments can report
message complexity alongside the paper's two primary metrics.

``send`` is the hottest call site of every distributed run, so it is
**bound once at construction** instead of branching per message:
``Network.__init__`` looks at the latency spec's type and installs one
of two functions as the instance attribute ``send``.

* exactly :class:`~repro.sim.latency.ConstantLatencySpec` (the paper's
  default configuration): a constant latency can never reorder a link,
  so there is no per-link FIFO clamp and the latency is hoisted to two
  floats.
* any other latency spec (or a subclass): a latency draw through a bound
  method hoisted at construction, plus the per-link FIFO clamp.

Both resolve the delivery callback *per (destination, message class)*
once (an unknown destination raises ``KeyError`` there, before anything
is counted), update one flat counter, and queue the delivery through the
simulator's push and sequence counter directly (see
:mod:`repro.sim.engine`), with no ``Simulator.schedule_at`` frame.
They skip its past-time check: every latency spec rejects a negative
delay at construction (``tests/sim/test_latency.py``) and the FIFO clamp
only moves a delivery later, so a delivery is never before ``now``.  A
node's ``send`` enters the bound function directly
(:class:`~repro.sim.node.Node`), so a message costs one Python frame of
``sim`` on the constant send.  And both
apply the same **exposure test** before involving the fault layer: a
message is exposed when it is delivered at or after the layer's
``quiet_until()`` *and* its source or destination is one of the layer's
``exposed_nodes()`` (``None``: every node).  Only an exposed message is
put to ``drop_on_send`` and routed through ``_deliver`` →
``drop_on_delivery``; every other message is posted straight to the
resolved handler, because both hooks are contractually ``False`` for it.
Both declarations depend on the fault spec alone, so deciding at send
time cannot race a crash that begins while the message is in flight: a
message to or from a node that can crash is always exposed, whenever it
is sent.  A reliable network is quiet forever.

Both sends produce bit-identical simulations where both apply; the
differential tests in ``tests/sim/test_network.py`` pin that, and pin
the production network against a reference that consults both hooks
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


class MessageStats:
    """Aggregate message accounting for one simulation run.

    ``total`` counts every send attempt; ``dropped`` counts the subset
    lost to injected faults (so ``dropped <= total`` and
    ``total - dropped`` messages were actually delivered).

    Sent-message counters are kept *flat* — one dict keyed by
    ``(message class, sender)`` updated with a single store per send —
    and merged into the classic ``total`` / ``by_type`` / ``by_sender``
    views lazily, so the hot send path never pays for three separate
    counter updates per message.
    """

    __slots__ = ("_sent", "dropped", "dropped_by_type")

    def __init__(self) -> None:
        # (message class, src) -> sent count; the single hot-path counter.
        self._sent: Dict[Tuple[type, int], int] = {}
        self.dropped: int = 0
        self.dropped_by_type: Dict[str, int] = defaultdict(int)

    def record(self, src: int, message: Any) -> None:
        """Record one sent message."""
        key = (message.__class__, src)
        sent = self._sent
        sent[key] = sent.get(key, 0) + 1

    def record_dropped(self, src: int, message: Any) -> None:
        """Record one message lost to an injected fault (already counted sent)."""
        self.dropped += 1
        self.dropped_by_type[message.__class__.__name__] += 1

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
        for (cls, _src), count in self._sent.items():
            merged[cls.__name__] += count
        return merged

    @property
    def by_sender(self) -> Dict[int, int]:
        """Sent counts per sender id (merged on demand)."""
        merged: Dict[int, int] = defaultdict(int)
        for (_cls, src), count in self._sent.items():
            merged[src] += count
        return merged

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy of the per-type counters."""
        return dict(self.by_type)

    def dropped_snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy of the per-type dropped counters."""
        return dict(self.dropped_by_type)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageStats):
            return NotImplemented
        return (
            self.total == other.total
            and self.dropped == other.dropped
            and dict(self.by_type) == dict(other.by_type)
            and dict(self.by_sender) == dict(other.by_sender)
            and dict(self.dropped_by_type) == dict(other.dropped_by_type)
        )

    def __hash__(self) -> int:
        """Value hash consistent with ``__eq__``.

        The counters are mutable, so the hash changes as messages are
        recorded: hash a stats object only once its run has finished (do
        not mutate it while it serves as a dict key / set member).
        """
        return hash(
            (
                self.total,
                self.dropped,
                frozenset(self.by_type.items()),
                frozenset(self.by_sender.items()),
                frozenset(self.dropped_by_type.items()),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageStats(total={self.total}, dropped={self.dropped}, "
            f"by_type={dict(self.by_type)!r})"
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
        "_node_ids",
        "_sent",
        "_delivery_cache",
        "_gamma",
        "_local",
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
        # Sorted-ids cache for the node_ids property (None = stale).
        self._node_ids: Optional[Tuple[int, ...]] = None
        # The stats object's flat sent-counter, aliased so the sends do
        # one inline dict update instead of a method call.
        self._sent = self.stats._sent
        # (dst, message class) -> delivery callable, resolved once.
        self._delivery_cache: Dict[Tuple[int, type], Callable[[int, Any], None]] = {}
        # Last scheduled delivery time per directed link, used to enforce
        # per-link FIFO even under jittered latencies.
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        # Size at which the clamp table is next compacted; doubled past
        # the live-entry count after each sweep (hysteresis) so a table
        # of still-future deliveries cannot trigger a rebuild per send.
        self._compact_at = _LAST_DELIVERY_COMPACT_THRESHOLD
        # Hoisted constant latencies (only read by the constant send).
        self._gamma = 0.0
        self._local = 0.0
        # The fault layer's scope, read once (it is a function of the
        # spec): the layer cannot drop anything delivered before
        # _quiet_until, nor anything whose source and destination are both
        # outside _exposed_nodes (None: every node is exposed).  A
        # reliable network is quiet forever.
        self._quiet_until = faults.quiet_until() if faults is not None else math.inf
        self._exposed_nodes = faults.exposed_nodes() if faults is not None else None
        # The latency draw of the general send, bound once.
        self._latency_of = self.latency.latency
        if type(self.latency) is ConstantLatencySpec:
            self._gamma = self.latency.gamma
            self._local = self.latency.local
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
        self._node_ids = None

    def node(self, node_id: int) -> "Node":
        """Return the node registered under ``node_id``."""
        return self._nodes[node_id]

    @property
    def node_ids(self) -> list[int]:
        """Sorted list of registered node ids (cached between registrations)."""
        ids = self._node_ids
        if ids is None:
            ids = self._node_ids = tuple(sorted(self._nodes))
        return list(ids)

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
        """Constant-latency send: no FIFO clamp, latency from two hoisted floats.

        An unexposed message (see the module docstring; every message,
        without a fault layer) is queued straight to the resolved handler.
        """
        cls = message.__class__
        target = self._delivery_cache.get((dst, cls))
        if target is None:
            target = self._resolve_delivery(dst, cls)
        key = (cls, src)
        sent = self._sent
        sent[key] = sent.get(key, 0) + 1
        sim = self.sim
        now = sim.now
        # Never in the past: latencies are non-negative (module docstring).
        delivery = now + (self._gamma if src != dst else self._local)
        if delivery >= self._quiet_until:
            exposed = self._exposed_nodes
            if exposed is None or src in exposed or dst in exposed:
                if self.faults.drop_on_send(now, src, dst, message):
                    # Lost before entering the link: never scheduled.
                    self.stats.record_dropped(src, message)
                    return delivery
                sim._push(
                    (delivery, sim._next_seq(), self._deliver, (target, src, dst, message))
                )
                return delivery
        sim._push((delivery, sim._next_seq(), target, (src, message)))
        return delivery

    def _send_general(self, src: int, dst: int, message: Any) -> float:
        """General send: a latency draw plus the per-link FIFO clamp.

        The order of side effects is fixed: count, draw the latency (so
        the latency RNG advances even for a message that is then
        dropped), ``drop_on_send`` if exposed, clamp, post.
        """
        cls = message.__class__
        target = self._delivery_cache.get((dst, cls))
        if target is None:
            target = self._resolve_delivery(dst, cls)
        key = (cls, src)
        sent = self._sent
        sent[key] = sent.get(key, 0) + 1
        sim = self.sim
        now = sim.now
        delivery = now + self._latency_of(src, dst)
        # FIFO per directed link: never deliver before a previously sent
        # message on the same link.
        link = (src, dst)
        last = self._last_delivery
        prev = last.get(link, -1.0)
        due = delivery if delivery >= prev else prev
        deliver = None
        if due >= self._quiet_until:
            exposed = self._exposed_nodes
            if exposed is None or src in exposed or dst in exposed:
                if self.faults.drop_on_send(now, src, dst, message):
                    # Lost before entering the link (crashed sender,
                    # Bernoulli loss): never scheduled, and the FIFO clamp
                    # is untouched — a dropped message cannot delay later
                    # ones.
                    self.stats.record_dropped(src, message)
                    return delivery
                deliver = self._deliver
        last[link] = due
        if len(last) >= self._compact_at:
            self._compact_last_delivery()
        # Never in the past: latencies are non-negative and the clamp only
        # moves a delivery later (module docstring).
        if deliver is None:
            sim._push((due, sim._next_seq(), target, (src, message)))
        else:
            sim._push((due, sim._next_seq(), deliver, (target, src, dst, message)))
        return due

    def _compact_last_delivery(self) -> None:
        """Drop FIFO-clamp entries whose delivery is already in the past.

        A clamp entry only matters while a later message on the same link
        could still be scheduled *before* it; once ``delivery <= now`` any
        new message is scheduled at ``now + latency >= delivery`` anyway
        (latencies are non-negative), so past entries can never clamp
        again and would otherwise accumulate for the whole run.
        """
        now = self.sim.now
        self._last_delivery = {
            key: delivery for key, delivery in self._last_delivery.items() if delivery > now
        }
        self._compact_at = max(
            _LAST_DELIVERY_COMPACT_THRESHOLD, 2 * len(self._last_delivery)
        )

    def _deliver(
        self, target: Callable[[int, Any], None], src: int, dst: int, message: Any
    ) -> None:
        """Delivery of an exposed message: the fault layer's second say.

        Only the sends post this, so the fault layer exists and ``target``
        is the handler they resolved for ``(dst, message class)``.
        """
        if self.faults.drop_on_delivery(self.sim.now, src, dst, message):
            # Lost in flight (partition window, crashed receiver): the
            # message dies here instead of reaching node delivery.
            self.stats.record_dropped(src, message)
            return
        target(src, message)
