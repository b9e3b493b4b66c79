"""Network latency: frozen latency specs that are also the network's latency model.

Each spec is a frozen, picklable, content-hashable value whose
``latency(src, dst)`` is a one-way delay in simulated ms: constant (the
paper's cluster, ``gamma ~= 0.6``), uniformly jittered (``Network`` still
keeps each link FIFO), or hierarchical (the cloud topologies of the
paper's Section 6).  :meth:`LatencySpec.bind` prepares a spec for one run:
a ``None`` gamma resolves to ``params.gamma`` and a cluster map is checked
against the workload.  It returns the resolved spec, or for jitter a
:class:`UniformJitterLatency` drawing from the spec's own seeded RNG.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.params import WorkloadParams

__all__ = [
    "LatencySpec", "ConstantLatencySpec", "UniformJitterLatencySpec",
    "UniformJitterLatency", "HierarchicalLatencySpec",
]


class LatencySpec:
    """A latency model: frozen description and the network's delay hook in one."""

    def bind(self, params: "WorkloadParams") -> "LatencySpec":
        """The latency model of one run under ``params``."""
        return self

    def latency(self, src: int, dst: int) -> float:
        """One-way delay of a message from ``src`` to ``dst``."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return repr(self)


@dataclass(frozen=True)
class ConstantLatencySpec(LatencySpec):
    """Every message takes exactly ``gamma`` (``None`` = ``params.gamma``).

    A message a node sends to itself takes ``local``.  ``Network`` binds
    its clamp-free constant send for exactly this type.
    """

    gamma: Optional[float] = None
    local: float = 0.0

    def __post_init__(self) -> None:
        # One comparison each, so NaN fails too.
        if self.gamma is not None and not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma!r}")
        if not 0 <= self.local < math.inf:
            raise ValueError(f"local must be finite and non-negative, got {self.local!r}")

    def bind(self, params: "WorkloadParams") -> "ConstantLatencySpec":
        """The spec, with ``gamma`` resolved against ``params``."""
        return self if self.gamma is not None else replace(self, gamma=params.gamma)

    def latency(self, src: int, dst: int) -> float:
        """``local`` for a self-message, ``gamma`` otherwise."""
        return self.local if src == dst else self.gamma


@dataclass(frozen=True)
class UniformJitterLatencySpec(LatencySpec):
    """Uniform multiplicative jitter around ``gamma`` (``None`` = ``params.gamma``).

    The jitter models queueing variability on the switch.  The spec draws
    nothing itself: :meth:`bind` returns a :class:`UniformJitterLatency`
    seeded with ``seed``, independent of the workload's randomness.
    """

    gamma: Optional[float] = None
    jitter: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must lie in [0, 1), got {self.jitter!r}")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma!r}")

    def bind(self, params: "WorkloadParams") -> "UniformJitterLatency":
        """A fresh :class:`UniformJitterLatency` for one run."""
        gamma = self.gamma if self.gamma is not None else params.gamma
        return UniformJitterLatency(gamma, self.jitter, self.seed)


# benchmarks/e2e/e2ebench/probes.py builds this by name; ROADMAP item 8's benchmark PR retires that.
class UniformJitterLatency(LatencySpec):
    """One run's :class:`UniformJitterLatencySpec`: its bounds and its own RNG.

    ``Random.uniform(lo, hi)`` is ``lo + (hi - lo) * random()``; hoisting
    the operands draws the same floats without a ``uniform`` frame.
    """

    def __init__(self, gamma: float, jitter: float, seed: int = 0) -> None:
        self._lo = gamma * (1.0 - jitter)
        self._span = gamma * (1.0 + jitter) - self._lo
        self._rng = random.Random(seed)
        self._random = self._rng.random

    def latency(self, src: int, dst: int) -> float:
        """A fresh draw for every message between distinct nodes."""
        if src == dst:
            return 0.0
        return self._lo + self._span * self._random()


@dataclass(frozen=True)
class HierarchicalLatencySpec(LatencySpec):
    """Two-level per-link latency: cheap intra-cluster, expensive inter-cluster.

    Either give an explicit ``cluster_of`` map (a cluster id per node) or a
    ``num_clusters`` count, which assigns nodes round-robin (node ``i`` to
    cluster ``i % num_clusters``).  ``gamma_local=None`` is
    ``params.gamma``.  A self-message is free.
    """

    gamma_local: Optional[float] = None
    gamma_remote: float = 20.0
    num_clusters: Optional[int] = 2
    cluster_of: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.cluster_of is not None and not isinstance(self.cluster_of, tuple):
            object.__setattr__(self, "cluster_of", tuple(self.cluster_of))
        if self.cluster_of is None and (self.num_clusters is None or self.num_clusters <= 0):
            raise ValueError("either cluster_of or a positive num_clusters must be given")
        if self.gamma_local is not None and not 0 <= self.gamma_local < math.inf:
            raise ValueError(
                f"gamma_local must be finite and non-negative, got {self.gamma_local!r}"
            )
        if not 0 <= self.gamma_remote < math.inf:
            raise ValueError(
                f"gamma_remote must be finite and non-negative, got {self.gamma_remote!r}"
            )

    def bind(self, params: "WorkloadParams") -> "HierarchicalLatencySpec":
        """The spec, with ``gamma_local`` resolved; a cluster map must cover every node."""
        clusters = self.cluster_of
        if clusters is not None and len(clusters) < params.num_processes:
            raise ValueError(
                f"cluster_of gives a cluster to {len(clusters)} nodes, but the workload has "
                f"processes 0..{params.num_processes - 1}: node {len(clusters)} has none"
            )
        return self if self.gamma_local is not None else replace(self, gamma_local=params.gamma)

    def latency(self, src: int, dst: int) -> float:
        """``gamma_local`` within a cluster, ``gamma_remote`` across clusters."""
        if src == dst:
            return 0.0
        clusters = self.cluster_of
        if clusters is None:
            same = src % self.num_clusters == dst % self.num_clusters
        else:
            same = clusters[src] == clusters[dst]
        return self.gamma_local if same else self.gamma_remote


# benchmarks/e2e/e2ebench/probes.py imports this name; ROADMAP item 8's benchmark PR retires it.
ConstantLatency = ConstantLatencySpec
