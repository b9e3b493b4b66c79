"""Health verdicts of a run: event-clock liveness and grant progress.

Both checks are plain functions of what the run's final telemetry
sample saw, each returning a :class:`HealthReport`:

* :func:`heartbeat` — liveness of the event clock, named after the
  run's last sample.  The probe fires at strictly increasing simulated
  times and only the final sample can land on the last probe's time, so
  the clock is never seen stuck for the two consecutive samples that
  would make it unhealthy: the verdict is always ``HEALTHY``.
* :func:`grant_progress` — progress of the protocol, not just the
  clock.  ``DEGRADED`` once the clock is more than ``stall_after``
  simulated ms past the run's last grant (events are flowing but nobody
  gets the resource), ``UNHEALTHY`` at twice that.

Statuses order by severity (``HEALTHY < DEGRADED < UNHEALTHY``;
``UNKNOWN`` sits between healthy and degraded — no data is worse than
good data but better than known-bad data); the severity index is what
the ``repro_health`` gauge reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["HealthReport", "HealthStatus", "grant_progress", "heartbeat"]


class HealthStatus:
    """Ordered health states (string-valued enum; severity-comparable)."""

    HEALTHY = "healthy"
    UNKNOWN = "unknown"
    DEGRADED = "degraded"
    UNHEALTHY = "unhealthy"

    #: Severity ordering used by :meth:`severity`.
    ORDER = (HEALTHY, UNKNOWN, DEGRADED, UNHEALTHY)

    @classmethod
    def severity(cls, status: str) -> int:
        """Numeric severity of ``status`` (raises on unknown strings)."""
        return cls.ORDER.index(status)


@dataclass(frozen=True)
class HealthReport:
    """One check's verdict at a point in simulated time (picklable)."""

    name: str
    status: str
    detail: str = ""
    checked_at: float = 0.0


def heartbeat(last_beat: float) -> HealthReport:
    """Liveness of the event clock, whose last sample was at ``last_beat``."""
    return HealthReport("heartbeat", HealthStatus.HEALTHY, f"last beat at {last_beat:g}", last_beat)


def grant_progress(now: float, last_grant: Optional[float], stall_after: float) -> HealthReport:
    """Grant-progress watchdog at simulated time ``now``.

    ``last_grant`` is the time of the run's latest grant (a run with no
    grant yet is judged from ``t = 0``); ``stall_after`` is the
    simulated-ms budget between grants.
    """
    idle = now - (last_grant or 0.0)
    if idle > stall_after:
        status = HealthStatus.UNHEALTHY if idle > 2 * stall_after else HealthStatus.DEGRADED
        detail = f"no grant completed for {idle:g} ms (budget {stall_after:g} ms)"
    else:
        status, detail = HealthStatus.HEALTHY, f"{idle:g} ms since the last grant"
    return HealthReport("grant_progress", status, detail, now)
