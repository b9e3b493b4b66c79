"""Telemetry through the sweep pipeline: pickling and caching.

Pins the acceptance contract of the axis: ``ExperimentResult.telemetry``
survives the ``workers=N`` pickle path bit-identically to ``workers=1``,
and snapshots are cached like any other result field.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.obs import TelemetrySpec
from repro.parallel import RunCache, run_sweep
from repro.workload.params import WorkloadParams


@pytest.fixture()
def params() -> WorkloadParams:
    return WorkloadParams(
        num_processes=5, num_resources=10, phi=3, duration=300.0, warmup=50.0, seed=4
    )


class TestWorkersPickleParity:
    def test_snapshot_bit_identical_workers_1_vs_2(self, params):
        grid = Scenario(
            algorithm="with_loan", params=params, telemetry=TelemetrySpec()
        ).sweep(seed=(1, 2, 3))
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=2)
        for a, b in zip(serial, parallel):
            assert a.telemetry is not None
            assert a.telemetry == b.telemetry
            # Bit-identical serialized form.  One loads/dumps roundtrip
            # first: raw dumps() bytes of a freshly built object and of
            # one that already crossed the pool differ only in pickle's
            # identity-based memoization (sharing), not in content.
            norm = lambda snap: pickle.dumps(pickle.loads(pickle.dumps(snap)))
            assert norm(a.telemetry) == norm(b.telemetry)

    def test_snapshot_survives_cache_roundtrip(self, params):
        scenario = Scenario(
            algorithm="with_loan", params=params, telemetry=TelemetrySpec()
        )
        cache = RunCache()
        (first,) = run_sweep([scenario], workers=1, cache=cache)
        (second,) = run_sweep([scenario], workers=1, cache=cache)  # cache hit
        assert first.telemetry is not None
        assert second.telemetry == first.telemetry


class TestSnapshotContents:
    def test_counters_match_result_fields(self, params):
        result = run(
            Scenario(algorithm="with_loan", params=params, telemetry=TelemetrySpec())
        )
        snapshot = result.telemetry
        assert snapshot.value("repro_events_dispatched_total") == float(
            result.events_processed
        )
        issued = snapshot.value("repro_requests_issued_total")
        completed = snapshot.value("repro_requests_completed_total")
        grants = snapshot.value("repro_grants_total")
        assert issued == completed == grants  # closed loop ran to completion
        # The wait histogram saw every grant.
        assert snapshot.value("repro_request_wait_ms")[2] == int(grants)

    def test_message_counters_match_network_stats(self, params):
        result = run(
            Scenario(algorithm="with_loan", params=params, telemetry=TelemetrySpec())
        )
        sample = result.telemetry.sample("repro_messages_sent_total")
        total = sum(
            value for _, value in sample.series
        )
        assert total == float(result.metrics.messages_total)

    def test_health_reports_present_and_healthy(self, params):
        result = run(
            Scenario(algorithm="with_loan", params=params, telemetry=TelemetrySpec())
        )
        health = {r.name: r.status for r in result.telemetry.health}
        assert health == {"heartbeat": "healthy", "grant_progress": "healthy"}

    def test_exposition_of_real_run_parses(self, params):
        from tests.obs.test_exposition import parse_exposition

        result = run(
            Scenario(algorithm="with_loan", params=params, telemetry=TelemetrySpec())
        )
        families = parse_exposition(result.telemetry.render_text())
        assert "repro_events_dispatched_total" in families
        assert "repro_node_queue_depth" in families

    def test_node_gauges_off_emits_no_per_node_series(self, params):
        result = run(
            Scenario(
                algorithm="with_loan",
                params=params,
                telemetry=TelemetrySpec(node_gauges=False),
            )
        )
        snapshot = result.telemetry
        assert snapshot.sample("repro_node_queue_depth").series == ()
        assert snapshot.sample("repro_node_token_wait_ms").series == ()
        # Everything else is unaffected by the per-node switch.
        assert snapshot.value("repro_grants_total") == float(
            result.metrics.completed
        )


class TestFaultTelemetry:
    """Recovery and fault-layer instrumentation on a real crash run."""

    def test_crash_run_counts_regenerations_and_fences(self, params):
        from repro.sim.detectorspec import HeartbeatDetector
        from repro.sim.faultspec import NodeCrash

        # A reboot-shaped outage: long enough for detection to fire
        # (tokens regenerate), short enough that the node comes back and
        # gets fenced — the only path that applies fencing epochs.
        detector = HeartbeatDetector()
        crash_at = 0.25 * params.duration
        result = run(
            Scenario(
                algorithm="with_loan",
                params=params,
                faults=NodeCrash(
                    node=0,
                    at=crash_at,
                    recover_at=crash_at + 4.0 * detector.detection_delay,
                ),
                detector=detector,
                telemetry=TelemetrySpec(),
            )
        )
        snapshot = result.telemetry
        assert snapshot.value("repro_tokens_regenerated_total") == float(
            result.tokens_regenerated
        )
        assert result.tokens_regenerated > 0  # the crash really bit
        assert snapshot.value("repro_fences_applied_total") > 0
        assert snapshot.value("repro_recovery_time_ms") == result.recovery_time

    def test_lossy_run_counts_drops_and_resends(self, params):
        from repro.sim.faultspec import BernoulliLoss

        result = run(
            Scenario(
                algorithm="with_loan",
                params=params,
                faults=BernoulliLoss(p=0.05, seed=3),
                telemetry=TelemetrySpec(),
            )
        )
        snapshot = result.telemetry
        dropped = sum(
            value
            for _, value in snapshot.sample("repro_messages_dropped_total").series
        )
        assert dropped == float(result.messages_dropped)
        assert dropped > 0  # the loss process really fired
