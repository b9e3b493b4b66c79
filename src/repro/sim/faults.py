"""Fault injection: frozen fault specs that are also the network's fault layer.

Section 3.1 of the paper assumes reliable FIFO links, and every run keeps
them: a fault delays a message, and loses it only where nothing could
ever deliver it (:mod:`repro.sim.network` states the channel's
contract).  Each spec is a frozen, picklable, content-hashable value,
and its :meth:`FaultSpec.handover` is the one hook ``Network`` consults,
once, when the message is sent: given the send time and the
(FIFO-clamped) time the message is due, it returns when the channel
hands the message over, ``math.inf`` for never.  The hook returns
``due`` itself before ``quiet_until()`` and for a message with neither
endpoint in ``exposed_nodes()`` (``None``: any message); these two
declarations depend on the spec alone, so the network decides once per
message whether to ask, and the defaults (``0.0``, ``None``) are safe
for a custom spec.  ``crash_windows()`` declares the node outages the
runner turns into lifecycle events (:mod:`repro.sim.lifecycle`).

:meth:`FaultSpec.bind` prepares a spec for one run: it validates node ids
against the workload and returns ``None`` when the spec injects nothing
(the network keeps its reliable fast path), the spec itself when it is
deterministic, or a :class:`BoundBernoulliLoss` holding the loss's own
RNG, seeded from the spec — the only randomness, so fault sweeps stay
bit-identical between ``workers=1`` and ``workers=N``.  A ``None`` window
end means "never": the hook reads it as ``math.inf``, and the field, which
``Scenario.key()`` hashes, keeps ``None``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, FrozenSet, Iterable, Optional, Tuple

from repro.sim.network import RTO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import MessageStats
    from repro.workload.params import WorkloadParams

__all__ = [
    "FaultSpec", "NoFaults", "BernoulliLoss", "BoundBernoulliLoss",
    "LinkPartition", "NodeCrash", "CompositeFaults",
]


def _check_nodes(fault: str, nodes: Iterable[int], params: "WorkloadParams") -> None:
    # A node outside the workload would inject nothing, silently passing the run.
    for node in nodes:
        if not 0 <= node < params.num_processes:
            raise ValueError(
                f"{fault} names node {node}, but the workload has "
                f"processes 0..{params.num_processes - 1}"
            )


class FaultSpec:
    """A fault process; the defaults delay nothing and declare the safe scope."""

    def bind(self, params: "WorkloadParams") -> Optional["FaultSpec"]:
        """The fault layer of one run under ``params`` (``None``: reliable links)."""
        return self

    def normalized(self, params: "WorkloadParams") -> "FaultSpec":
        """Canonical spec (one scenario key) for the run this spec produces.

        Anything that binds to ``None`` is :class:`NoFaults`; a spec that
        :meth:`bind` rejects fails here.
        """
        return self if self.bind(params) is not None else NoFaults()

    def handover(
        self, sent: float, due: float, src: int, dst: int, message: Any, stats: "MessageStats"
    ) -> float:
        """When the channel hands over a message sent at ``sent`` and due at ``due``.

        Never before ``due``; ``math.inf`` when the message is lost for
        good (the network counts that loss).  A spec that re-sends lost
        tries records each in ``stats``.
        """
        return due

    def crash_windows(self) -> Tuple[Tuple[int, float, float], ...]:
        """Node outages ``(node, at, recover_at)``, ``math.inf`` for good; no RNG."""
        return ()

    def quiet_until(self) -> float:
        """First due time :meth:`handover` could move a message from."""
        return 0.0

    def exposed_nodes(self) -> Optional[FrozenSet[int]]:
        """Nodes whose traffic :meth:`handover` could ever move (``None``: any)."""
        return None

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return repr(self)


@dataclass(frozen=True)
class NoFaults(FaultSpec):
    """Reliable links — the paper's model, and what ``faults=None`` normalises to."""

    def bind(self, params: "WorkloadParams") -> None:
        """Nothing to inject: the network keeps its reliable fast path."""
        return None

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return "no faults"


@dataclass(frozen=True)
class BernoulliLoss(FaultSpec):
    """Independent loss of each try with probability ``p``, drawn at send time.

    The channel re-sends a lost try :data:`~repro.sim.network.RTO` later,
    so loss becomes delay; with ``p == 1`` no try ever arrives and the
    message is lost.  ``kinds`` restricts the loss to messages whose
    *class name* is listed (normalised to a sorted tuple); ``None`` puts
    every message at risk.  Kinds cannot be validated up front: a misspelt
    or wrong-algorithm name loses nothing, so check that
    ``messages_dropped`` is plausible.
    """

    p: float
    seed: int = 0
    kinds: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"loss probability must lie in [0, 1], got {self.p!r}")
        if self.kinds is not None:
            object.__setattr__(self, "kinds", tuple(sorted(set(self.kinds))))
            if not self.kinds:
                raise ValueError("kinds must name at least one message type (or be None)")

    def bind(self, params: "WorkloadParams") -> Optional["BoundBernoulliLoss"]:
        """A fresh :class:`BoundBernoulliLoss` (``None`` when ``p == 0``)."""
        return BoundBernoulliLoss(self) if self.p > 0.0 else None

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        if self.kinds is not None:
            return f"loss(p={self.p:g}, kinds={list(self.kinds)})"
        return f"loss(p={self.p:g})"


class BoundBernoulliLoss(FaultSpec):
    """One run's :class:`BernoulliLoss`, drawing from ``random.Random(seed)``.

    The losses depend only on the spec and the (deterministic) order of
    sends; only messages at risk consume draws, one per try, and a sure
    loss (``p == 1``) consumes none.
    """

    def __init__(self, spec: BernoulliLoss) -> None:
        self.p = spec.p
        self.kinds = frozenset(spec.kinds) if spec.kinds is not None else None
        self._rng = random.Random(spec.seed)

    def handover(
        self, sent: float, due: float, src: int, dst: int, message: Any, stats: "MessageStats"
    ) -> float:
        """``due`` plus ``RTO`` per try drawn below ``p``; never when ``p == 1``."""
        if self.kinds is not None and type(message).__name__ not in self.kinds:
            return due
        p = self.p
        if p >= 1.0:
            return math.inf
        draw = self._rng.random
        while draw() < p:
            stats.record_resent(src, message)
            due += RTO
        return due


@dataclass(frozen=True)
class LinkPartition(FaultSpec):
    """Bidirectional partition of node ``pairs`` during ``[start, end)``.

    ``pairs`` is normalised (each pair sorted, pairs sorted), so
    ``((1, 0),)`` and ``((0, 1),)`` share a key.  ``end=None`` never heals.
    A message over a cut link that is *due* inside the window is held
    until ``end``, when the link delivers what it held in FIFO order; a
    partition that never heals loses it.
    """

    pairs: Tuple[Tuple[int, int], ...]
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        normalised = []
        for pair in self.pairs:
            a, b = pair
            if a == b:
                raise ValueError(f"partition pair must name two distinct nodes, got {pair!r}")
            normalised.append((min(a, b), max(a, b)))
        object.__setattr__(self, "pairs", tuple(sorted(set(normalised))))
        if not self.pairs:
            raise ValueError("partition needs at least one node pair")
        if not 0 <= self.start < math.inf:
            raise ValueError(f"start must be finite and >= 0, got {self.start!r}")
        if self.end is not None and not self.start < self.end < math.inf:
            raise ValueError(
                f"end must be None or finite and after start ({self.start!r}), got {self.end!r}"
            )

    def bind(self, params: "WorkloadParams") -> "LinkPartition":
        """The spec itself, once every pair's nodes are in the workload."""
        _check_nodes("partition", (node for pair in self.pairs for node in pair), params)
        return self

    def handover(
        self, sent: float, due: float, src: int, dst: int, message: Any, stats: "MessageStats"
    ) -> float:
        """``end`` (never, unhealed) when due inside the window over a cut link."""
        end = self.end
        if due < self.start or (end is not None and due >= end):
            return due
        if ((src, dst) if src < dst else (dst, src)) not in self.pairs:
            return due
        return math.inf if end is None else end

    def quiet_until(self) -> float:
        """No message can hit the cut before the partition starts."""
        return self.start

    def exposed_nodes(self) -> FrozenSet[int]:
        """Only links between the partitioned pairs' endpoints are cut."""
        return frozenset(node for pair in self.pairs for node in pair)

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        end = f"{self.end:g}" if self.end is not None else "inf"
        return f"partition({list(self.pairs)}, [{self.start:g}, {end}))"


@dataclass(frozen=True)
class NodeCrash(FaultSpec):
    """Fail-silent crash of ``node`` during ``[at, recover_at)`` (``None``: for good).

    While down the node neither sends nor receives: what it sends is
    lost, and a message due at it is held until it reboots (lost, if it
    never does).  Its local timers halt too: the window is also a
    :meth:`crash_windows` entry, delivered
    as ``on_crash``/``on_recover`` by :mod:`repro.sim.lifecycle`.  A crash
    mid-critical-section aborts that request.  Tokens survive a reboot;
    pair the crash with a ``Scenario.detector``
    (:mod:`repro.sim.detectorspec`) to regenerate tokens lost for good.
    """

    node: int
    at: float
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"node must be a valid site id, got {self.node!r}")
        if not 0 <= self.at < math.inf:
            raise ValueError(f"at must be finite and >= 0, got {self.at!r}")
        if self.recover_at is not None and not self.at < self.recover_at < math.inf:
            raise ValueError(
                f"recover_at must be None or finite and after at ({self.at!r}), "
                f"got {self.recover_at!r}"
            )

    def bind(self, params: "WorkloadParams") -> "NodeCrash":
        """The spec itself, once the node is in the workload."""
        _check_nodes("crash", (self.node,), params)
        return self

    def crashed(self, time: float) -> bool:
        """Whether the node is down at simulated ``time``."""
        recover_at = self.recover_at
        return self.at <= time and (recover_at is None or time < recover_at)

    def handover(
        self, sent: float, due: float, src: int, dst: int, message: Any, stats: "MessageStats"
    ) -> float:
        """Never from a down sender; the reboot (never, if none) for a down receiver."""
        node = self.node
        if src == node and self.crashed(sent):
            return math.inf
        if dst == node and self.crashed(due):
            return math.inf if self.recover_at is None else self.recover_at
        return due

    def crash_windows(self) -> Tuple[Tuple[int, float, float], ...]:
        """The single outage window this crash produces."""
        recover_at = math.inf if self.recover_at is None else self.recover_at
        return ((self.node, float(self.at), float(recover_at)),)

    def quiet_until(self) -> float:
        """No message is affected before the crash instant."""
        return self.at

    def exposed_nodes(self) -> FrozenSet[int]:
        """Only messages the crashed node sends or receives are moved."""
        return frozenset((self.node,))

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        recover = f"{self.recover_at:g}" if self.recover_at is not None else "inf"
        return f"crash(node={self.node}, [{self.at:g}, {recover}))"


@dataclass(frozen=True)
class CompositeFaults(FaultSpec):
    """Union of fault specs: a message is handed over once *every* child lets it.

    The children are asked in order, and again until a full round moves
    the message no further (a hold that ends inside another child's
    window is held again); a child that loses it loses it.
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"CompositeFaults takes FaultSpec children, got {spec!r}")

    def bind(self, params: "WorkloadParams") -> Optional[FaultSpec]:
        """The children's layers, minus ``None``s; one is itself, none is ``None``."""
        bound = [b for b in (spec.bind(params) for spec in self.specs) if b is not None]
        if len(bound) < 2:
            return bound[0] if bound else None
        return CompositeFaults(tuple(bound))

    def normalized(self, params: "WorkloadParams") -> FaultSpec:
        """Flatten nested composites and drop ineffective children; a lone child is itself."""
        effective = []
        for spec in self.specs:
            child = spec.normalized(params)
            if isinstance(child, NoFaults):
                continue
            if isinstance(child, CompositeFaults):
                effective.extend(child.specs)
            else:
                effective.append(child)
        if not effective:
            return NoFaults()
        if len(effective) == 1:
            return effective[0]
        return CompositeFaults(tuple(effective))

    def handover(
        self, sent: float, due: float, src: int, dst: int, message: Any, stats: "MessageStats"
    ) -> float:
        """The first time no child moves the message from (``math.inf``: lost)."""
        while True:
            start = due
            for spec in self.specs:
                due = spec.handover(sent, due, src, dst, message, stats)
                if due == math.inf:
                    return due
            if due == start:
                return due

    def crash_windows(self) -> Tuple[Tuple[int, float, float], ...]:
        """The children's windows, sorted by (at, node) whatever their order."""
        windows = [w for spec in self.specs for w in spec.crash_windows()]
        return tuple(sorted(windows, key=lambda w: (w[1], w[0], w[2])))

    def quiet_until(self) -> float:
        """Quiet only while every child is quiet."""
        return min((spec.quiet_until() for spec in self.specs), default=math.inf)

    def exposed_nodes(self) -> Optional[FrozenSet[int]]:
        """Union of the children's sets; ``None`` as soon as one child says so."""
        scopes = [spec.exposed_nodes() for spec in self.specs]
        if None in scopes:
            return None
        return frozenset().union(*scopes)

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        if not self.specs:
            return "no faults"
        return " + ".join(spec.describe() for spec in self.specs)


# benchmarks/e2e/e2ebench/probes.py imports this name; ROADMAP item 8's benchmark PR retires it.
NodeCrashModel = NodeCrash
