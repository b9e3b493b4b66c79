"""Health verdict of a run: grant progress.

:func:`grant_progress` is a plain function of what the run's final
telemetry sample saw, returning a :class:`HealthReport`: ``DEGRADED``
once the clock is more than ``stall_after`` simulated ms past the run's
last grant (events are flowing but nobody gets the resource),
``UNHEALTHY`` at twice that.

Statuses order by severity (``HEALTHY < DEGRADED < UNHEALTHY``;
``UNKNOWN`` sits between healthy and degraded — no data is worse than
good data but better than known-bad data); the severity index is what
the ``repro_health`` gauge reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["HealthReport", "HealthStatus", "grant_progress"]


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
