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
    """What a run's end-of-run snapshot reports.

    Every counter and gauge is read once, at the final sample (see
    :mod:`repro.obs.runtime`); the knobs only shape what that sample
    holds and how its health is judged.

    Attributes
    ----------
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

    node_gauges: bool = True
    wait_buckets: Tuple[float, ...] = DEFAULT_WAIT_BUCKETS_MS
    stall_after: float = 500.0

    def __post_init__(self) -> None:
        if not 0 < self.stall_after < math.inf:
            raise ValueError(
                f"stall_after must be finite and > 0, got {self.stall_after!r}"
            )
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
        parts = ["telemetry"]
        if not self.node_gauges:
            parts.append("no-node-gauges")
        if self.wait_buckets != DEFAULT_WAIT_BUCKETS_MS:
            parts.append(f"{len(self.wait_buckets)}buckets")
        if self.stall_after != 500.0:
            parts.append(f"stall>{self.stall_after:g}ms")
        return ",".join(parts)

