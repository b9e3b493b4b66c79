"""Health checks: liveness heartbeat and grant-stall detection.

A :class:`HealthCheck` wraps a probe callable returning a
:class:`HealthReport`; a :class:`HealthMonitor` runs a set of checks and
aggregates the worst status.  Two stateful built-ins cover the run
itself:

* :class:`HeartbeatCheck` — liveness of the event clock.  Fed the
  simulator's current time at every telemetry sample; reports
  ``HEALTHY`` while the clock advances between samples, ``UNHEALTHY``
  once it has observed two consecutive samples at the same time (the
  run has wedged), ``UNKNOWN`` before the first beat.
* :class:`StallCheck` — progress of the protocol, not just the clock.
  Fed ``(now, last_grant)``; ``DEGRADED`` once the clock is more than
  ``stall_after`` simulated ms past the run's last grant (events are
  flowing but nobody gets the resource), ``UNHEALTHY`` at twice that.

Statuses order by severity (``HEALTHY < DEGRADED < UNHEALTHY``;
``UNKNOWN`` sits between healthy and degraded — no data is worse than
good data but better than known-bad data), so a monitor's overall
status is simply ``max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "HealthCheck",
    "HealthMonitor",
    "HealthReport",
    "HealthStatus",
    "HeartbeatCheck",
    "StallCheck",
]


class HealthStatus:
    """Ordered health states (string-valued enum; severity-comparable)."""

    HEALTHY = "healthy"
    UNKNOWN = "unknown"
    DEGRADED = "degraded"
    UNHEALTHY = "unhealthy"

    #: Severity ordering used by :meth:`HealthMonitor.overall`.
    ORDER = (HEALTHY, UNKNOWN, DEGRADED, UNHEALTHY)

    @classmethod
    def severity(cls, status: str) -> int:
        """Numeric severity of ``status`` (raises on unknown strings)."""
        return cls.ORDER.index(status)

    @classmethod
    def worst(cls, statuses: "List[str] | Tuple[str, ...]") -> str:
        """Most severe of ``statuses`` (``HEALTHY`` when empty)."""
        if not statuses:
            return cls.HEALTHY
        return max(statuses, key=cls.severity)


@dataclass(frozen=True)
class HealthReport:
    """One check's verdict at a point in simulated time (picklable)."""

    name: str
    status: str
    detail: str = ""
    checked_at: float = 0.0


class HealthCheck:
    """Named wrapper around a probe callable.

    The probe returns ``(status, detail)``; a probe that raises is
    reported as ``UNKNOWN`` with the exception text — a broken check
    must never take down the run it is watching.
    """

    def __init__(
        self, name: str, probe: Callable[[], Tuple[str, str]]
    ) -> None:
        self.name = name
        self._probe = probe

    def run(self, now: float = 0.0) -> HealthReport:
        """Execute the probe, shielding the caller from probe errors."""
        try:
            status, detail = self._probe()
        except Exception as exc:  # noqa: BLE001 - shield by contract
            return HealthReport(
                name=self.name,
                status=HealthStatus.UNKNOWN,
                detail=f"probe raised {type(exc).__name__}: {exc}",
                checked_at=now,
            )
        if status not in HealthStatus.ORDER:
            return HealthReport(
                name=self.name,
                status=HealthStatus.UNKNOWN,
                detail=f"probe returned invalid status {status!r}",
                checked_at=now,
            )
        return HealthReport(name=self.name, status=status, detail=detail, checked_at=now)


class HealthMonitor:
    """Runs a set of :class:`HealthCheck` and aggregates the worst status."""

    def __init__(self) -> None:
        self._checks: Dict[str, HealthCheck] = {}

    def register(self, check: HealthCheck) -> HealthCheck:
        """Add ``check`` (replacing any previous check of the same name)."""
        self._checks[check.name] = check
        return check

    def run_all(self, now: float = 0.0) -> Tuple[HealthReport, ...]:
        """Run every check, in registration order."""
        return tuple(check.run(now) for check in self._checks.values())

    def overall(self, now: float = 0.0) -> str:
        """Most severe status across all checks."""
        return HealthStatus.worst([r.status for r in self.run_all(now)])


class HeartbeatCheck(HealthCheck):
    """Liveness of the event clock, fed by :meth:`beat` at each sample."""

    def __init__(self, name: str = "heartbeat") -> None:
        super().__init__(name, self._status)
        self._last_time: Optional[float] = None
        self._stuck_beats = 0

    def beat(self, now: float) -> None:
        """Record a sample of the simulator clock."""
        if self._last_time is not None and now <= self._last_time:
            self._stuck_beats += 1
        else:
            self._stuck_beats = 0
        self._last_time = now

    def _status(self) -> Tuple[str, str]:
        if self._last_time is None:
            return HealthStatus.UNKNOWN, "no heartbeat observed yet"
        if self._stuck_beats >= 2:
            return (
                HealthStatus.UNHEALTHY,
                f"event clock stuck at {self._last_time:g} for "
                f"{self._stuck_beats} samples",
            )
        return HealthStatus.HEALTHY, f"last beat at {self._last_time:g}"


class StallCheck(HealthCheck):
    """Grant-progress watchdog: clock advances but no grants complete.

    ``stall_after`` is the simulated-ms budget between grants; beyond it
    the check degrades, and at twice the budget it is unhealthy.
    :meth:`update` is fed ``(now, last_grant)`` at each telemetry sample;
    a run with no grant yet is judged from ``t = 0``.
    """

    def __init__(self, stall_after: float, name: str = "grant_progress") -> None:
        if stall_after <= 0:
            raise ValueError(f"stall_after must be > 0, got {stall_after!r}")
        super().__init__(name, self._status)
        self.stall_after = float(stall_after)
        self._sample: Optional[Tuple[float, Optional[float]]] = None

    def update(self, now: float, last_grant: Optional[float]) -> None:
        """Record the time of the last grant as of simulated time ``now``."""
        self._sample = (now, last_grant)

    def _status(self) -> Tuple[str, str]:
        if self._sample is None:
            return HealthStatus.UNKNOWN, "no samples observed yet"
        now, last_grant = self._sample
        idle = now - (last_grant or 0.0)
        if idle > self.stall_after:
            return (
                HealthStatus.UNHEALTHY if idle > 2 * self.stall_after else HealthStatus.DEGRADED,
                f"no grant completed for {idle:g} ms (budget {self.stall_after:g} ms)",
            )
        return HealthStatus.HEALTHY, f"{idle:g} ms since the last grant"
