"""Telemetry cost contracts on the closed-loop benchmark scenario.

Two guards, one per side of the observability seam:

* ``test_disabled_telemetry_is_free`` — the seam itself (a ``None``
  attribute on the collector, an env-string compare in the runner) must
  not cost anything measurable on default runs.  The structural version
  of this pin (zero ``repro/obs/`` frames at all) is
  ``scripts/profile_run.py --check``; the wall-clock version here backs
  it with a <5% ceiling — generous against scheduler noise on a
  self-vs-self comparison, but far below any real per-event work.  It
  uses the interleaved min-of-rounds idiom of ``test_bench_engine.py``:
  pairs alternate within one process, the minimum over rounds is
  compared, and a failed ratio gets one free re-measurement at triple
  the rounds before it counts as a regression.
* ``test_enabled_telemetry_overhead_under_ceiling`` — switching
  telemetry *on* (50 ms sampling probe, per-grant histogram pushes,
  per-node gauges) costs work per grant and per probe sample, never per
  message: the pull-style design reads counters the hot layers already
  maintain.  The budget is counted, not timed — the Python frames a
  profiled run executes in ``repro/obs/`` — so it is deterministic and
  does not move when the plain run gets faster.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time

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

#: The *disabled* seam may cost at most this factor (it does nothing).
DISABLED_OVERHEAD_CEILING = 1.05

#: Timed rounds per measurement (plus one untimed warmup round).
OVERHEAD_ROUNDS = 7


def _measure_pair(scenarios, rounds):
    """Interleaved min-of-rounds wall-clock ratio of two scenarios.

    Returns ``(ratio second/first, results dict)``; round 0 warms caches
    and is untimed.
    """
    names = [name for name, _ in scenarios]
    timings = {name: [] for name in names}
    results = {}
    for round_index in range(rounds + 1):
        for name, scenario in scenarios:
            start = time.perf_counter()
            results[name] = run(scenario)
            if round_index > 0:
                timings[name].append(time.perf_counter() - start)
    return min(timings[names[1]]) / min(timings[names[0]]), results


def _obs_frames(profile: cProfile.Profile) -> int:
    """Python frames the profiled code executed in ``repro/obs/``."""
    obs = os.path.join("repro", "obs") + os.sep
    return sum(
        ncalls
        for (filename, _line, _name), (_cc, ncalls, *_rest) in pstats.Stats(profile).stats.items()
        if obs in filename
    )


def test_enabled_telemetry_overhead_under_ceiling(bench_params, bench_max_events):
    """Full telemetry (probe + gauges + histogram) costs frames per grant and sample only."""
    plain = Scenario(
        algorithm="with_loan", params=bench_params, max_events=bench_max_events
    )
    telemetered = plain.replace(telemetry=TelemetrySpec())

    plain_result = run(plain)
    profile = cProfile.Profile()
    profile.enable()
    result = run(telemetered)
    profile.disable()

    # The probe must observe without perturbing the protocol.
    assert result.metrics == plain_result.metrics
    snapshot = result.telemetry
    assert snapshot is not None
    grants = snapshot.value("repro_grants_total")
    assert grants == float(plain_result.metrics.completed)

    samples = snapshot.value("repro_telemetry_samples_total")
    frames = _obs_frames(profile)
    budget = grants + samples * OBS_FRAMES_PER_SAMPLE
    assert 0 < frames <= budget, (
        f"telemetry ran {frames} repro/obs frames for {grants:.0f} grants, "
        f"{samples:.0f} probe samples and {result.metrics.messages_total} messages "
        f"(budget: {budget:.0f})"
    )


def test_disabled_telemetry_is_free(bench_params, bench_max_events):
    """The nullable seam costs nothing measurable when telemetry is off.

    Compares the benchmark scenario against itself: both runs are
    telemetry-less, so the ratio distribution is centred on 1.0 and the
    5% ceiling guards against the seam growing real per-event work (a
    genuine regression would shift *every* round, not one).
    """
    plain = Scenario(
        algorithm="with_loan", params=bench_params, max_events=bench_max_events
    )
    pair = (("reference", plain), ("seam", plain))
    ratio, results = _measure_pair(pair, OVERHEAD_ROUNDS)
    if ratio >= DISABLED_OVERHEAD_CEILING:
        ratio, results = _measure_pair(pair, 3 * OVERHEAD_ROUNDS)

    assert results["seam"].telemetry is None
    assert results["seam"].metrics == results["reference"].metrics
    assert ratio < DISABLED_OVERHEAD_CEILING, (
        f"disabled-telemetry seam shows {100.0 * (ratio - 1.0):.1f}% drift "
        f"(ceiling {100.0 * (DISABLED_OVERHEAD_CEILING - 1.0):.0f}%)"
    )
