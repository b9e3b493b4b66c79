"""Live fault layer, consulted by the network for messages that can meet a fault.

The models below are the *thawed* counterparts of the declarative specs in
:mod:`repro.sim.faultspec`, exactly as :mod:`repro.sim.latency` models are
the thawed counterparts of :mod:`repro.sim.latencyspec` specs: they may
carry live state (a :class:`random.Random`) and therefore never serve as
experiment parameters themselves — a spec builds one per run, inside the
process that runs the experiment.

A fault model answers two questions:

* :meth:`FaultModel.drop_on_send` — evaluated by ``Network.send`` at send
  time: is the message lost before it ever enters the link (crashed
  sender, Bernoulli link loss)?
* :meth:`FaultModel.drop_on_delivery` — evaluated by ``Network._deliver``
  at delivery time: has the link or the destination gone down while the
  message was in flight (partition window, crashed receiver)?

and makes two *scoping* declarations that say which messages the network
need not ask about at all:

* :meth:`FaultModel.quiet_until` — in time: both hooks return ``False``
  for every instant strictly before it;
* :meth:`FaultModel.exposed_nodes` — in space: both hooks return
  ``False`` for every message whose source and destination are both
  outside the returned set (``None``: any message may be dropped).

The network consults the hooks only for a message that is *exposed* —
delivered at or after ``quiet_until()`` **and** touching an exposed
node — and posts every other message straight to its handler.  Both
declarations are functions of the spec alone, never of the simulation
history, so the decision made once at send time holds for the whole
flight of the message.  A custom model must honour both contracts; the
inherited defaults (``0.0`` and ``None``: always ask, about everything)
are the safe ones, so a model that overrides neither is consulted on
every send and delivery.

The hooks' answers must be deterministic functions of the spec and the
(single threaded, deterministic) simulation history: randomness enters only
through a dedicated ``random.Random`` seeded from the spec, and send /
delivery events happen in the same order in every run of the same
scenario — which is what keeps fault sweeps bit-identical between
``workers=1`` and ``workers=N``.

A fault model additionally *declares* the node outages it produces via
:meth:`FaultModel.crash_windows`: the runner turns every window into
crash/recover lifecycle events delivered through
:class:`repro.sim.lifecycle.NodeLifecycle`, so a crashed node stops its
local timers too (resend timers, think-time clients) instead of silently
computing while its network is cut.  Models producing no windows cost
nothing: the lifecycle layer is only instantiated when at least one
window exists, keeping the no-crash path untouched.
"""

from __future__ import annotations

import math
import random
from typing import Any, FrozenSet, Optional, Sequence, Tuple


class FaultModel:
    """Interface of the live fault layer (default: no faults).

    Subclasses override one or both hooks; returning ``True`` drops the
    message (the network records it in ``MessageStats.dropped``).

    A subclass that can say *when* or *to whom* its hooks may ever
    return ``True`` narrows :meth:`quiet_until` / :meth:`exposed_nodes`
    accordingly, and the network then skips the hooks for every message
    outside that scope.  Narrowing is a promise: a hook that would have
    returned ``True`` outside the declared scope is simply never asked.
    Leaving both at their defaults is always correct.
    """

    __slots__ = ()

    def drop_on_send(self, time: float, src: int, dst: int, message: Any) -> bool:
        """Whether a message sent now from ``src`` to ``dst`` is lost."""
        return False

    def drop_on_delivery(self, time: float, src: int, dst: int, message: Any) -> bool:
        """Whether a message arriving now at ``dst`` from ``src`` is lost."""
        return False

    def crash_windows(self) -> Tuple[Tuple[int, float, float], ...]:
        """Node outages this model produces, as ``(node, at, recover_at)``.

        ``recover_at`` is ``math.inf`` for a crash that never heals.  The
        runner schedules one lifecycle crash event per window (and a
        recovery event when ``recover_at`` is finite); an empty tuple —
        the default — means no lifecycle machinery is installed at all.
        Windows must be deterministic in the spec (no RNG), so the
        lifecycle schedule is identical in every process running the
        scenario.
        """
        return ()

    def quiet_until(self) -> float:
        """First simulated instant either drop hook could return ``True``.

        Both hooks are guaranteed to return ``False`` for any ``time``
        strictly before this value, so the network may skip consulting
        them for messages whose send *and* delivery both precede it —
        which is what makes an armed-but-far-future crash window cost
        (almost) nothing on the hot path.  The conservative default is
        ``0.0``: always consult.  Randomised models (Bernoulli loss) must
        keep that default; deterministic windowed models return their
        window start.
        """
        return 0.0

    def exposed_nodes(self) -> Optional[FrozenSet[int]]:
        """Nodes whose traffic either drop hook could ever drop.

        Both hooks are guaranteed to return ``False`` for a message whose
        ``src`` and ``dst`` are *both* outside this set, at any time, so
        the network consults them only for messages that touch it — which
        is what makes one crashed node cost a fault check on its own
        traffic instead of on everyone's.  The set is a function of the
        spec, not of time, so the network reads it once and decides per
        message at send time.  The conservative default is ``None``: any
        message may be dropped.  Models that are not tied to particular
        nodes (Bernoulli loss) must keep that default.
        """
        return None

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return type(self).__name__


class BernoulliLossModel(FaultModel):
    """Each message is lost independently with probability ``p``.

    The decision is made at send time from a dedicated RNG, so the drop
    sequence depends only on ``(p, seed, kinds)`` and the (deterministic)
    order of sends — never on which process runs the experiment.  When
    ``kinds`` is given, only messages whose class name is in it are at
    risk (and only they consume an RNG draw); others pass untouched.
    """

    __slots__ = ("p", "kinds", "_rng")

    def __init__(
        self, p: float, seed: int = 0, kinds: Optional[Sequence[str]] = None
    ) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must lie in [0, 1], got {p!r}")
        self.p = float(p)
        self.kinds: Optional[FrozenSet[str]] = frozenset(kinds) if kinds is not None else None
        self._rng = random.Random(seed)

    def drop_on_send(self, time: float, src: int, dst: int, message: Any) -> bool:
        if self.kinds is not None and type(message).__name__ not in self.kinds:
            return False
        return self._rng.random() < self.p

    def describe(self) -> str:
        if self.kinds is not None:
            return f"loss(p={self.p:g}, kinds={sorted(self.kinds)})"
        return f"loss(p={self.p:g})"


class LinkPartitionModel(FaultModel):
    """Bidirectional partition of given node pairs during ``[start, end)``.

    A message is dropped when it would be *delivered* while the partition
    is active — the in-flight message hits the cut, whichever side it was
    sent from.
    """

    __slots__ = ("pairs", "start", "end")

    def __init__(
        self, pairs: Sequence[Tuple[int, int]], start: float = 0.0, end: float = math.inf
    ) -> None:
        self.pairs: FrozenSet[FrozenSet[int]] = frozenset(frozenset(p) for p in pairs)
        self.start = float(start)
        self.end = float(end)

    def drop_on_delivery(self, time: float, src: int, dst: int, message: Any) -> bool:
        if not self.start <= time < self.end:
            return False
        pair = frozenset((src, dst))
        return pair in self.pairs

    def quiet_until(self) -> float:
        """No message can hit the cut before the partition starts."""
        return self.start

    def exposed_nodes(self) -> FrozenSet[int]:
        """Only links between the partitioned pairs' endpoints are cut."""
        return frozenset(node for pair in self.pairs for node in pair)

    def describe(self) -> str:
        links = sorted(tuple(sorted(p)) for p in self.pairs)
        return f"partition({links}, [{self.start:g}, {self.end:g}))"


class NodeCrashModel(FaultModel):
    """Fail-silent crash of one node during ``[at, recover_at)``.

    While crashed, the node neither sends (messages it emits are lost at
    send time) nor receives (messages arriving for it are lost at delivery
    time); messages already delivered before the crash are unaffected.
    The window is also reported through :meth:`crash_windows`, so the
    runner halts the node's *local* computation too: its timers are
    suspended by an ``on_crash`` lifecycle callback and resumed by
    ``on_recover`` (see :mod:`repro.sim.lifecycle`) — a full fail-silent
    crash, not just a network cut.
    """

    __slots__ = ("node", "at", "recover_at")

    def __init__(self, node: int, at: float, recover_at: float = math.inf) -> None:
        if recover_at <= at:
            raise ValueError(f"recover_at ({recover_at!r}) must be after at ({at!r})")
        self.node = int(node)
        self.at = float(at)
        self.recover_at = float(recover_at)

    def crashed(self, time: float) -> bool:
        """Whether the node is down at simulated ``time``."""
        return self.at <= time < self.recover_at

    def drop_on_send(self, time: float, src: int, dst: int, message: Any) -> bool:
        return src == self.node and self.crashed(time)

    def drop_on_delivery(self, time: float, src: int, dst: int, message: Any) -> bool:
        return dst == self.node and self.crashed(time)

    def crash_windows(self) -> Tuple[Tuple[int, float, float], ...]:
        """The single outage window this crash produces."""
        return ((self.node, self.at, self.recover_at),)

    def quiet_until(self) -> float:
        """No message is affected before the crash instant."""
        return self.at

    def exposed_nodes(self) -> FrozenSet[int]:
        """Only messages the crashed node sends or receives are lost."""
        return frozenset((self.node,))

    def describe(self) -> str:
        window = f"[{self.at:g}, {self.recover_at:g})"
        return f"crash(node={self.node}, {window})"


class CompositeFaultModel(FaultModel):
    """Union of several fault models: a message is dropped if *any* drops it.

    Children are consulted in spec order; ``any`` short-circuits, which is
    fine for determinism because the whole simulation is single-threaded
    and replays identically.
    """

    __slots__ = ("models",)

    def __init__(self, models: Sequence[FaultModel]) -> None:
        self.models: Tuple[FaultModel, ...] = tuple(models)

    def drop_on_send(self, time: float, src: int, dst: int, message: Any) -> bool:
        return any(m.drop_on_send(time, src, dst, message) for m in self.models)

    def drop_on_delivery(self, time: float, src: int, dst: int, message: Any) -> bool:
        return any(m.drop_on_delivery(time, src, dst, message) for m in self.models)

    def crash_windows(self) -> Tuple[Tuple[int, float, float], ...]:
        """Union of the children's outage windows, sorted by (at, node).

        Sorting makes the lifecycle schedule independent of the order the
        composite's children were given in, so equivalent composites
        produce identical event sequences.
        """
        windows = [w for m in self.models for w in m.crash_windows()]
        return tuple(sorted(windows, key=lambda w: (w[1], w[0], w[2])))

    def quiet_until(self) -> float:
        """Quiet only while every child is quiet."""
        return min((m.quiet_until() for m in self.models), default=math.inf)

    def exposed_nodes(self) -> Optional[FrozenSet[int]]:
        """Union of the children's sets; ``None`` as soon as one child says so."""
        scopes = [m.exposed_nodes() for m in self.models]
        if None in scopes:
            return None
        return frozenset().union(*scopes)

    def describe(self) -> str:
        return " + ".join(m.describe() for m in self.models)
