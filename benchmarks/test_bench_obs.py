"""Telemetry cost contract on the closed-loop benchmark scenario.

``test_enabled_telemetry_overhead_under_ceiling``: switching telemetry
*on* (50 ms sampling probe, per-grant histogram pushes, per-node gauges)
costs work per grant and per probe sample, never per message: the
pull-style design reads counters the hot layers already maintain.  The
budget is counted, not timed (the Python calls a run makes into
``repro/obs/``, counted with ``scripts/count_work.py``'s call counter),
so it is deterministic and does not move when the plain run gets faster.

The other side of the seam, a default run that enters no ``repro/obs``
code at all, is pinned by ``tests/integration/test_call_contracts.py``
and by ``tests/obs/test_zero_overhead.py``'s no-import check.
"""

from __future__ import annotations

import os

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.obs import TelemetrySpec

#: ``repro/obs/`` frames a telemetered run may execute per probe sample,
#: beside one (``observe_grant``) per grant.  A probe firing costs its own
#: frame plus a generator over the clients (at most one resume per client
#: of the 10-process benchmark, and one to finish); the end-of-run
#: snapshot's fixed cost (about 150 frames) fits in what the run's ~30
#: samples leave over.  Telemetry that did work per message (~10 per
#: grant) or a second frame per grant would not fit.
OBS_FRAMES_PER_SAMPLE = 12


def test_enabled_telemetry_overhead_under_ceiling(bench_params, bench_max_events, count_work):
    """Full telemetry (probe + gauges + histogram) costs frames per grant and sample only."""
    plain = Scenario(
        algorithm="with_loan", params=bench_params, max_events=bench_max_events
    )
    telemetered = plain.replace(telemetry=TelemetrySpec())

    plain_result = run(plain)
    result, calls = count_work.count_calls(run, telemetered)

    # The probe must observe without perturbing the protocol.
    assert result.metrics == plain_result.metrics
    snapshot = result.telemetry
    assert snapshot is not None
    grants = snapshot.value("repro_grants_total")
    assert grants == float(plain_result.metrics.completed)

    samples = snapshot.value("repro_telemetry_samples_total")
    obs = os.path.join("repro", "obs") + os.sep
    frames = sum(n for (file, *_rest), n in calls.items() if obs in file)
    budget = grants + samples * OBS_FRAMES_PER_SAMPLE
    assert 0 < frames <= budget, (
        f"telemetry ran {frames} repro/obs frames for {grants:.0f} grants, "
        f"{samples:.0f} probe samples and {result.metrics.messages_total} messages "
        f"(budget: {budget:.0f})"
    )
