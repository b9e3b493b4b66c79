"""Declarative crash detection.

Token regeneration needs *failure detection*: survivors must learn that a
node is down before they can adjudicate which tokens died with it.  Each
spec below is a frozen, picklable, content-hashable value carried on
:attr:`repro.experiments.scenario.Scenario.detector` and read directly by
:class:`repro.core.recovery.RecoveryCoordinator`.

A detector is an *abstract heartbeat scheme*: instead of flooding the
message plane with ``N x (N-1)`` periodic heartbeats (which would perturb
the paper's message-complexity metrics), it rides the fault layer's
deterministic outage windows and delivers one *detection* event per
outage, ``detection_delay`` after the crash — exactly when a peer's
heartbeat timeout would have fired in the worst case.  A node that
recovers before its detection fires is never reported (its heartbeats
resumed in time), so such a blip regenerates nothing.
:meth:`~repro.experiments.scenario.Scenario.normalized` drops a detector
that binds to ``None`` or whose fault spec declares no crash windows, so
the scenario shares its key with the detector-less run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.params import WorkloadParams

__all__ = ["DetectorSpec", "NoDetector", "HeartbeatDetector"]


class DetectorSpec:
    """Frozen description of a crash-detection process."""

    def bind(self, params: "WorkloadParams") -> Optional["DetectorSpec"]:
        """The detector of one run; ``None`` when crashes go unannounced."""
        return self

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return repr(self)


@dataclass(frozen=True)
class NoDetector(DetectorSpec):
    """No failure detection — crashes go unnoticed, lost tokens stay lost.

    This is what ``Scenario.detector=None`` means; the explicit form
    normalises to ``None`` so both share one cache key.
    """

    def bind(self, params: "WorkloadParams") -> None:
        """Nothing detects: lost tokens are never regenerated."""
        return None

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return "no detector"


@dataclass(frozen=True)
class HeartbeatDetector(DetectorSpec):
    """Timeout-based heartbeat detection.

    Every node pings its peers each ``interval`` ms (positive) and declares
    a peer dead after ``timeout`` ms (non-negative) of silence past the
    heartbeat it expected.  The worst case — a heartbeat sent just before
    the crash, then a full timeout on the next — is
    :attr:`detection_delay`.
    """

    interval: float = 25.0
    timeout: float = 75.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"heartbeat interval must be > 0, got {self.interval!r}")
        if self.timeout < 0:
            raise ValueError(f"heartbeat timeout must be >= 0, got {self.timeout!r}")

    @property
    def detection_delay(self) -> float:
        """Crash-to-detection time at every survivor: ``interval + timeout``."""
        return self.interval + self.timeout

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return f"heartbeat(interval={self.interval:g}ms, timeout={self.timeout:g}ms)"
