"""Network latency models.

The paper reports ``gamma ~= 0.6 ms`` for its 10 Gb/s Ethernet cluster and
suggests (Section 6) evaluating the algorithm on hierarchical topologies
such as clouds.  Three models are provided:

* :class:`ConstantLatency` — every message takes exactly ``gamma``.
* :class:`UniformJitterLatency` — latency drawn uniformly from
  ``[gamma*(1-jitter), gamma*(1+jitter)]``; FIFO order per link is still
  enforced by :class:`repro.sim.network.Network`.
* :class:`HierarchicalLatency` — cluster-aware latency (intra-cluster
  ``gamma_local``, inter-cluster ``gamma_remote``), used by the topology
  ablation (A3 in DESIGN.md).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional, Sequence


class LatencyModel(ABC):
    """Strategy object mapping a (source, destination) pair to a delay."""

    @abstractmethod
    def latency(self, src: int, dst: int) -> float:
        """Return the one-way delay (simulated time units) for a message."""

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return type(self).__name__


class ConstantLatency(LatencyModel):
    """Constant one-way latency for every pair of distinct nodes.

    Parameters
    ----------
    gamma:
        One-way delay.  The paper's testbed corresponds to ``0.6`` (ms).
    local:
        Delay for a message a node sends to itself (defaults to 0, such
        messages are rare and only used by baselines for uniformity).
    """

    def __init__(self, gamma: float = 0.6, local: float = 0.0) -> None:
        if gamma < 0 or local < 0:
            raise ValueError("latencies must be non-negative")
        self.gamma = float(gamma)
        self.local = float(local)

    def latency(self, src: int, dst: int) -> float:
        return self.local if src == dst else self.gamma

    def describe(self) -> str:
        return f"ConstantLatency(gamma={self.gamma})"


class UniformJitterLatency(LatencyModel):
    """Latency with multiplicative uniform jitter around ``gamma``.

    The jitter models queueing variability on the switch.  A dedicated
    :class:`random.Random` instance keeps the model deterministic for a
    given seed and independent from workload randomness.
    """

    def __init__(self, gamma: float = 0.6, jitter: float = 0.2, seed: int = 0) -> None:
        if not 0 <= jitter < 1:
            raise ValueError("jitter must lie in [0, 1)")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        self.jitter = float(jitter)
        self._rng = random.Random(seed)
        # ``Random.uniform(lo, hi)`` is ``lo + (hi - lo) * random()``:
        # the same expression on hoisted operands draws the same floats
        # without a ``uniform`` frame per message.
        lo = self.gamma * (1.0 - self.jitter)
        hi = self.gamma * (1.0 + self.jitter)
        self._lo = lo
        self._span = hi - lo
        self._random = self._rng.random

    def latency(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self._lo + self._span * self._random()

    def describe(self) -> str:
        return f"UniformJitterLatency(gamma={self.gamma}, jitter={self.jitter})"


class HierarchicalLatency(LatencyModel):
    """Two-level (cluster / inter-cluster) latency model.

    Nodes are partitioned into clusters; messages within a cluster cost
    ``gamma_local`` and messages between clusters cost ``gamma_remote``.
    This models the "hierarchical physical topology such as Clouds"
    scenario from the paper's conclusion.

    Parameters
    ----------
    cluster_of:
        Sequence mapping node id -> cluster id.  If omitted,
        ``num_clusters`` must be given and nodes are assigned round-robin.
    """

    def __init__(
        self,
        gamma_local: float = 0.6,
        gamma_remote: float = 20.0,
        cluster_of: Optional[Sequence[int]] = None,
        num_nodes: Optional[int] = None,
        num_clusters: Optional[int] = None,
    ) -> None:
        if gamma_local < 0 or gamma_remote < 0:
            raise ValueError("latencies must be non-negative")
        if cluster_of is None:
            if num_nodes is None or num_clusters is None or num_clusters <= 0:
                raise ValueError(
                    "either cluster_of or (num_nodes, num_clusters) must be provided"
                )
            cluster_of = [i % num_clusters for i in range(num_nodes)]
        self.gamma_local = float(gamma_local)
        self.gamma_remote = float(gamma_remote)
        self.cluster_of = list(cluster_of)

    def latency(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        try:
            same = self.cluster_of[src] == self.cluster_of[dst]
        except IndexError as exc:  # pragma: no cover - defensive
            raise ValueError(f"node id out of range for cluster map: {src}, {dst}") from exc
        return self.gamma_local if same else self.gamma_remote

    def describe(self) -> str:
        return (
            f"HierarchicalLatency(local={self.gamma_local}, remote={self.gamma_remote}, "
            f"clusters={len(set(self.cluster_of))})"
        )
