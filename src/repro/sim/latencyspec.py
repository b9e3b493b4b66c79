"""Declarative latency specifications.

The models in :mod:`repro.sim.latency` are live strategy objects — a
:class:`~repro.sim.latency.UniformJitterLatency` carries a
:class:`random.Random`, a :class:`~repro.sim.latency.HierarchicalLatency`
a cluster map — so they cannot serve as content-hashable experiment
parameters or cross worker-process boundaries deterministically.  Each
spec below is the frozen, picklable counterpart of one model: a pure
value that *thaws* into the equivalent model via :meth:`LatencySpec.build`
inside whatever process actually runs the experiment.

Fields defaulting to ``None`` (``gamma``, ``gamma_local``) resolve to the
``gamma`` carried by the :class:`~repro.workload.params.WorkloadParams` at
build time, so one spec composes with any workload parameterisation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim.latency import (
    ConstantLatency,
    HierarchicalLatency,
    LatencyModel,
    UniformJitterLatency,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.params import WorkloadParams

__all__ = [
    "LatencySpec",
    "ConstantLatencySpec",
    "UniformJitterLatencySpec",
    "HierarchicalLatencySpec",
]


class LatencySpec(ABC):
    """Frozen description of a latency model, thawed per-run."""

    @abstractmethod
    def build(self, params: "WorkloadParams") -> LatencyModel:
        """Instantiate the equivalent :class:`LatencyModel` for ``params``."""

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return repr(self)


@dataclass(frozen=True)
class ConstantLatencySpec(LatencySpec):
    """Every message takes exactly ``gamma`` (``None`` = ``params.gamma``)."""

    gamma: Optional[float] = None
    local: float = 0.0

    def build(self, params: "WorkloadParams") -> ConstantLatency:
        gamma = self.gamma if self.gamma is not None else params.gamma
        return ConstantLatency(gamma=gamma, local=self.local)


@dataclass(frozen=True)
class UniformJitterLatencySpec(LatencySpec):
    """Uniform multiplicative jitter around ``gamma``.

    The thawed model draws from a dedicated :class:`random.Random` seeded
    with ``seed``, so two runs built from equal specs observe identical
    per-message latencies regardless of which process builds them.
    """

    gamma: Optional[float] = None
    jitter: float = 0.2
    seed: int = 0

    def build(self, params: "WorkloadParams") -> UniformJitterLatency:
        gamma = self.gamma if self.gamma is not None else params.gamma
        return UniformJitterLatency(gamma=gamma, jitter=self.jitter, seed=self.seed)


@dataclass(frozen=True)
class HierarchicalLatencySpec(LatencySpec):
    """Two-level per-link latency: cheap intra-cluster, expensive inter-cluster.

    Either give an explicit ``cluster_of`` map (tuple of cluster ids, one
    per node) or a ``num_clusters`` count, in which case the
    ``params.num_processes`` nodes are assigned round-robin — matching
    :class:`~repro.sim.latency.HierarchicalLatency`'s own convention.
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

    def build(self, params: "WorkloadParams") -> HierarchicalLatency:
        gamma_local = self.gamma_local if self.gamma_local is not None else params.gamma
        if self.cluster_of is not None:
            return HierarchicalLatency(
                gamma_local=gamma_local,
                gamma_remote=self.gamma_remote,
                cluster_of=list(self.cluster_of),
            )
        return HierarchicalLatency(
            gamma_local=gamma_local,
            gamma_remote=self.gamma_remote,
            num_nodes=params.num_processes,
            num_clusters=self.num_clusters,
        )
