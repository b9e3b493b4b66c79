"""Declarative arrival processes for open-loop workloads.

A closed-loop workload (:class:`~repro.workload.spec.SyntheticSpec`)
derives its timing from the think-time loop; an *open-loop* workload
instead issues requests at externally driven instants, whether or not
earlier requests have completed.  Each :class:`ArrivalSpec` below is the
frozen, picklable description of one such arrival process; its
:meth:`ArrivalSpec.gaps` draws an infinite inter-arrival-gap generator
inside the process running the experiment.

All specs are *rate-normalised*: ``rate`` is the per-process mean arrival
rate in requests per simulated millisecond, and every family draws gaps
with mean ``1/rate`` — so swapping Poisson for the Markov-modulated
process changes the burst structure of the load while holding its mean
offered rate fixed, which is what makes the burstiness ablations an
apples-to-apples comparison.  ``rate=None`` resolves to
``1 / params.beta`` at build time: the mean think rate of the equivalent
closed loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.params import WorkloadParams

__all__ = [
    "ArrivalSpec",
    "PoissonArrivals",
    "MarkovModulatedArrivals",
]


class ArrivalSpec(ABC):
    """Frozen description of a per-process arrival process."""

    #: Per-process mean arrival rate (requests / ms); ``None`` resolves to
    #: ``1 / params.beta`` at build time.
    rate: Optional[float]

    def mean_rate(self, params: "WorkloadParams") -> float:
        """Effective per-process mean rate (requests / ms) under ``params``."""
        if self.rate is not None:
            return self.rate
        beta = params.beta
        if beta <= 0:
            raise ValueError(
                "rate=None needs params.beta > 0 to derive a default arrival rate"
            )
        return 1.0 / beta

    @abstractmethod
    def gaps(self, rng: Random, params: "WorkloadParams") -> Iterator[float]:
        """Infinite stream of inter-arrival gaps (ms) drawn from ``rng``.

        The first gap is the absolute arrival time of the process's first
        request; every later gap is relative to the *previous arrival*
        (not the previous completion — that is the open-loop property).
        """

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return repr(self)

    def _check_rate(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive (or None for 1/beta)")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalSpec):
    """Memoryless arrivals: exponential gaps with mean ``1/rate``."""

    rate: Optional[float] = None

    def __post_init__(self) -> None:
        self._check_rate()

    def gaps(self, rng: Random, params: "WorkloadParams") -> Iterator[float]:
        """Exponential inter-arrival gaps."""
        rate = self.mean_rate(params)
        while True:
            yield rng.expovariate(rate)


@dataclass(frozen=True)
class MarkovModulatedArrivals(ArrivalSpec):
    """Two-state MMPP: Poisson arrivals whose rate jumps between burst and calm.

    The process alternates between a *burst* state (rate multiplied by
    ``burst_factor``) and a *calm* state, with exponentially distributed
    dwell times; ``burst_fraction`` is the long-run fraction of time spent
    bursting and ``dwell`` the mean burst length in ms.  Rates are chosen
    so the long-run mean rate is exactly ``rate`` — burstiness without a
    change in offered load.
    """

    rate: Optional[float] = None
    burst_factor: float = 8.0
    burst_fraction: float = 0.1
    dwell: float = 200.0

    def __post_init__(self) -> None:
        self._check_rate()
        if self.burst_factor <= 1.0:
            raise ValueError("burst_factor must be > 1 (1 is plain Poisson)")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must lie in (0, 1)")
        if self.dwell <= 0:
            raise ValueError("dwell must be positive")

    def gaps(self, rng: Random, params: "WorkloadParams") -> Iterator[float]:
        """Exponential gaps modulated by a two-state Markov chain.

        Crossing a state boundary exploits memorylessness: the residual
        wait is redrawn at the new state's rate, which is distributionally
        exact for an MMPP.
        """
        mean = self.mean_rate(params)
        f = self.burst_fraction
        calm_rate = mean / (1.0 + f * (self.burst_factor - 1.0))
        burst_rate = self.burst_factor * calm_rate
        dwell_burst = self.dwell
        dwell_calm = self.dwell * (1.0 - f) / f
        in_burst = rng.random() < f
        remaining = rng.expovariate(1.0 / (dwell_burst if in_burst else dwell_calm))
        while True:
            gap = 0.0
            while True:
                draw = rng.expovariate(burst_rate if in_burst else calm_rate)
                if draw <= remaining:
                    remaining -= draw
                    gap += draw
                    break
                gap += remaining
                in_burst = not in_burst
                remaining = rng.expovariate(
                    1.0 / (dwell_burst if in_burst else dwell_calm)
                )
            yield gap

