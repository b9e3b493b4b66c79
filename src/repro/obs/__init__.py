"""Run-time observability: telemetry axis, sampling runtime, snapshot, health.

The package gives a running experiment a *live interior*.  Its public
API is five names:

* :class:`~repro.obs.spec.TelemetrySpec` — the declarative scenario
  axis (``Scenario(telemetry=...)``);
* :class:`~repro.obs.runtime.TelemetryRuntime` — wired by the runner
  into the simulator, network, allocator nodes and recovery layer; a
  probe counts samples, a push hook feeds the wait histogram, and the
  end of the run reads every total once;
* :class:`~repro.obs.metrics.TelemetrySnapshot` — the picklable result
  (``ExperimentResult.telemetry``), Prometheus text exposition via
  ``render_text()``;
* :class:`~repro.obs.health.HealthReport` and
  :class:`~repro.obs.health.HealthStatus` — the verdicts of the two
  health checks (event-clock heartbeat, grant progress).

The axis is **hash-neutral when unset** and provably inert when
disabled: default runs execute zero frames from this package (pinned by
``tests/integration/test_call_contracts.py``), and the whole package stays
importable *optional* — the runner only imports it when a run actually
asks for telemetry, so a deployment may strip ``repro/obs`` entirely
without touching default results (pinned by the differential test in
``tests/obs/test_zero_overhead.py``).
"""

from repro.obs.health import HealthReport, HealthStatus
from repro.obs.metrics import TelemetrySnapshot
from repro.obs.runtime import TelemetryRuntime
from repro.obs.spec import TelemetrySpec

__all__ = [
    "HealthReport",
    "HealthStatus",
    "TelemetryRuntime",
    "TelemetrySnapshot",
    "TelemetrySpec",
]
