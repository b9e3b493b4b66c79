"""Run-time observability: metric registry, health checks, telemetry axis.

The package gives a running experiment a *live interior*: counters,
gauges and histograms collected into a :class:`~repro.obs.metrics.MetricsRegistry`
(Prometheus text exposition via ``render_text()``), health probes
(:mod:`repro.obs.health`) watching the run's heartbeat and grant
progress, and a sampling :class:`~repro.obs.runtime.TelemetryRuntime`
wired into the simulator, network, allocator nodes and recovery layer.

Telemetry is a declarative scenario axis
(:class:`~repro.obs.spec.TelemetrySpec`, ``Scenario(telemetry=...)``)
that is **hash-neutral when unset** and provably inert when disabled:
default runs execute zero frames from this package (pinned by
``scripts/profile_run.py --check``), and the whole package stays
importable *optional* — the runner only imports it when a run actually
asks for telemetry, so a deployment may strip ``repro/obs`` entirely
without touching default results (pinned by the differential test in
``tests/obs/test_zero_overhead.py``).
"""

from repro.obs.health import HealthCheck, HealthMonitor, HealthReport, HealthStatus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetrySnapshot,
)
from repro.obs.runtime import TelemetryRuntime
from repro.obs.spec import TelemetrySpec

__all__ = [
    "Counter",
    "Gauge",
    "HealthCheck",
    "HealthMonitor",
    "HealthReport",
    "HealthStatus",
    "Histogram",
    "MetricsRegistry",
    "TelemetryRuntime",
    "TelemetrySnapshot",
    "TelemetrySpec",
]
