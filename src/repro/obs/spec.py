"""Declarative telemetry axis: ``Scenario(telemetry=TelemetrySpec(...))``.

A :class:`TelemetrySpec` is frozen, picklable and content-hashable like
every other scenario axis (latency, faults, workload, scheduler).  The
axis is **hash-neutral when unset**: ``Scenario(telemetry=None)`` keys
identically to a scenario written before the axis existed, because a
run without telemetry *is* that run — the instrumentation executes zero
frames (pinned by ``tests/integration/test_call_contracts.py``).
The scenario is the only switch: nothing outside it turns telemetry on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.obs.metrics import DEFAULT_WAIT_BUCKETS_MS

__all__ = ["TelemetrySpec"]


@dataclass(frozen=True)
class TelemetrySpec:
    """How a run samples itself.

    Attributes
    ----------
    sample_interval:
        Simulated milliseconds between firings of the sampling probe,
        which only counts itself (``repro_telemetry_samples_total``);
        every other counter and gauge is read once, at the final sample
        (see :mod:`repro.obs.runtime`).
    node_gauges:
        Collect per-node queue-depth and token-wait series.  Off for
        very large clusters where per-node label cardinality would
        dominate the snapshot.
    wait_buckets:
        Upper bounds of the request-waiting-time histogram, in simulated
        milliseconds (finite and strictly increasing; ``+Inf`` is
        implicit).
    stall_after:
        Grant-progress health budget: the run degrades when the event
        clock advances more than this many simulated ms without any
        grant completing (see :func:`repro.obs.health.grant_progress`).
    """

    sample_interval: float = 50.0
    node_gauges: bool = True
    wait_buckets: Tuple[float, ...] = DEFAULT_WAIT_BUCKETS_MS
    stall_after: float = 500.0

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be > 0, got {self.sample_interval!r}"
            )
        if self.stall_after <= 0:
            raise ValueError(f"stall_after must be > 0, got {self.stall_after!r}")
        if not isinstance(self.wait_buckets, tuple):
            object.__setattr__(self, "wait_buckets", tuple(self.wait_buckets))
        if not self.wait_buckets:
            raise ValueError("wait_buckets must not be empty")
        if any(b2 <= b1 for b1, b2 in zip(self.wait_buckets, self.wait_buckets[1:])):
            raise ValueError("wait_buckets must be strictly increasing")
        if not all(math.isfinite(b) for b in self.wait_buckets):
            raise ValueError("wait_buckets must be finite (+Inf is implicit)")

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [f"telemetry@{self.sample_interval:g}ms"]
        if not self.node_gauges:
            parts.append("no-node-gauges")
        if self.wait_buckets != DEFAULT_WAIT_BUCKETS_MS:
            parts.append(f"{len(self.wait_buckets)}buckets")
        if self.stall_after != 500.0:
            parts.append(f"stall>{self.stall_after:g}ms")
        return ",".join(parts)

