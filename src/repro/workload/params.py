"""Experiment parameters.

The paper characterises an experiment by (Section 5.1):

* ``N``     — number of processes (32),
* ``M``     — number of resources (80),
* ``alpha`` — critical-section duration (5 ms to 35 ms, growing with the
              number of resources in the request),
* ``beta``  — mean think time between releasing a CS and issuing the next
              request,
* ``gamma`` — one-way network latency (~0.6 ms),
* ``rho``   — ``beta / (alpha + gamma)``, inversely proportional to load,
* ``phi``   — maximum number of resources a single request may ask for.

All times in this library are expressed in *milliseconds* of simulated
time, matching the paper's units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional


class LoadLevel(str, Enum):
    """Named load scenarios used throughout the paper's evaluation.

    ``rho`` is inversely proportional to the load: the *high* load scenario
    uses a small think time relative to the CS duration, the *medium* one a
    larger think time.  The exact cluster values are not published, so the
    defaults below were chosen to land in the qualitative regimes the paper
    describes (high load keeps nearly all processes requesting; medium load
    leaves processes idle a significant fraction of the time).
    """

    MEDIUM = "medium"
    HIGH = "high"
    LOW = "low"

    @property
    def default_rho(self) -> float:
        """Default ``rho = beta / (alpha + gamma)`` for this level."""
        return {LoadLevel.HIGH: 0.5, LoadLevel.MEDIUM: 4.0, LoadLevel.LOW: 12.0}[self]


def cs_duration_for_size(
    size: int,
    num_resources: int,
    alpha_min: float = 5.0,
    alpha_max: float = 35.0,
) -> float:
    """Deterministic component of the CS duration for a request of ``size``.

    Section 5.1: "the critical section time of the request depends on the
    value of x: the greater its value, the higher the probability of a long
    critical section time".  We model the mean CS duration as a linear
    interpolation between ``alpha_min`` (single resource) and ``alpha_max``
    (all ``M`` resources); the workload generator adds multiplicative noise
    around this mean.
    """
    if size < 1:
        raise ValueError("request size must be >= 1")
    if num_resources < 1:
        raise ValueError("num_resources must be >= 1")
    if num_resources == 1:
        return float(alpha_max)
    frac = (min(size, num_resources) - 1) / (num_resources - 1)
    return alpha_min + (alpha_max - alpha_min) * frac


@dataclass(frozen=True)
class WorkloadParams:
    """Full parameterisation of one experiment run.

    Attributes mirror the paper's notation; see the module docstring.

    ``requests_per_process`` bounds the closed-loop workload: each process
    issues at most that many CS requests (the simulation also stops issuing
    new requests after ``duration`` simulated milliseconds, whichever comes
    first).  ``warmup`` cuts the initial transient out of the metrics.
    """

    num_processes: int = 32
    num_resources: int = 80
    phi: int = 4
    alpha_min: float = 5.0
    alpha_max: float = 35.0
    gamma: float = 0.6
    load: LoadLevel = LoadLevel.MEDIUM
    rho: Optional[float] = None
    duration: float = 20_000.0
    warmup: float = 1_000.0
    requests_per_process: Optional[int] = None
    cs_noise: float = 0.2
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if self.num_resources < 1:
            raise ValueError("num_resources must be >= 1")
        if not 1 <= self.phi <= self.num_resources:
            raise ValueError("phi must lie in [1, num_resources]")
        if not 0 < self.alpha_min < math.inf:
            raise ValueError(f"alpha_min must be finite and > 0, got {self.alpha_min!r}")
        if not self.alpha_min <= self.alpha_max < math.inf:
            raise ValueError(
                f"alpha_max must be finite and >= alpha_min, got {self.alpha_max!r}"
            )
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma!r}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and > 0, got {self.duration!r}")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must lie in [0, duration)")
        if not 0 <= self.cs_noise < 1:
            raise ValueError("cs_noise must lie in [0, 1)")
        if self.rho is not None and not 0 <= self.rho < math.inf:
            raise ValueError(
                f"rho must be finite and non-negative (it is beta / (alpha + gamma)), "
                f"got {self.rho!r}"
            )
        if self.requests_per_process is not None and self.requests_per_process < 1:
            raise ValueError("requests_per_process must be >= 1 (or None for unbounded)")

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @cached_property
    def mean_alpha(self) -> float:
        """Mean CS duration over the request-size distribution U(1, phi).

        Cached: the generator draws ``beta`` (and through it this sum) on
        every request, and all fields feeding it are frozen.  The cache
        lives in the instance ``__dict__``, invisible to the field-based
        ``__eq__``/``__hash__``/``replace`` of the dataclass.
        """
        return sum(
            cs_duration_for_size(s, self.num_resources, self.alpha_min, self.alpha_max)
            for s in range(1, self.phi + 1)
        ) / self.phi

    @property
    def effective_rho(self) -> float:
        """``rho`` actually used (explicit value, or the load level's default)."""
        return self.rho if self.rho is not None else self.load.default_rho

    @cached_property
    def beta(self) -> float:
        """Mean think time derived from ``rho = beta / (alpha + gamma)``."""
        return self.effective_rho * (self.mean_alpha + self.gamma)

    def with_phi(self, phi: int) -> "WorkloadParams":
        """Return a copy with a different maximum request size."""
        return replace(self, phi=phi)

    def with_load(self, load: LoadLevel) -> "WorkloadParams":
        """Return a copy with a different load level (rho reset to default)."""
        return replace(self, load=load, rho=None)

    def with_seed(self, seed: int) -> "WorkloadParams":
        """Return a copy with a different master seed."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """One-line summary used in reports.

        Includes every knob that distinguishes runs in practice — in
        particular ``requests_per_process``, so two report lines differing
        only in it are not conflated.
        """
        requests = self.requests_per_process if self.requests_per_process is not None else "all"
        return (
            f"N={self.num_processes} M={self.num_resources} phi={self.phi} "
            f"load={self.load.value} rho={self.effective_rho:g} "
            f"alpha=[{self.alpha_min},{self.alpha_max}]ms gamma={self.gamma}ms "
            f"duration={self.duration:g}ms requests={requests} seed={self.seed}"
        )
