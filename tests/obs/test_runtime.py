"""TelemetryRuntime: which total each sample reads, and when the probe fires.

The runtime is driven here by stand-ins for the layers a run wires into
it (engine, network statistics, allocator nodes, workload clients,
recovery coordinator), so every reported value can be checked against
the one source it reads.  The probe schedule runs on a real
:class:`~repro.sim.engine.Simulator`.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs import TelemetryRuntime, TelemetrySpec
from repro.obs.health import HealthStatus
from repro.sim.engine import Simulator

#: Every family of a snapshot, in the order the runtime emits them.
FAMILIES = (
    "repro_events_dispatched_total",
    "repro_scheduler_backlog",
    "repro_sim_time_ms",
    "repro_telemetry_samples_total",
    "repro_messages_sent_total",
    "repro_messages_dropped_total",
    "repro_resends_total",
    "repro_requests_issued_total",
    "repro_requests_completed_total",
    "repro_grants_total",
    "repro_request_wait_ms",
    "repro_node_queue_depth",
    "repro_node_token_wait_ms",
    "repro_tokens_regenerated_total",
    "repro_fences_applied_total",
    "repro_recovery_time_ms",
    "repro_health",
)


def client(issued=0, completed=0, last_grant=None, waiting=0, stopped=True):
    return SimpleNamespace(
        issued=issued, completed=completed, last_grant=last_grant,
        waiting=waiting, stopped=stopped,
    )


def allocator(node_id, depth=0):
    return SimpleNamespace(node_id=node_id, telemetry_queue_depth=depth)


def network(sent=None, dropped=None, resent=0):
    return SimpleNamespace(
        stats=SimpleNamespace(by_type=sent or {}, dropped_by_type=dropped or {}, resent=resent)
    )


def runtime(spec=None, now=0.0, events=0, pending=0, **layers):
    sim = SimpleNamespace(now=now, processed_events=events, pending_events=pending)
    return TelemetryRuntime(spec or TelemetrySpec(), sim, **layers)


class TestFamilies:
    def test_family_order_is_fixed(self):
        snapshot = runtime().finalize()
        assert tuple(s.name for s in snapshot.samples) == FAMILIES

    def test_counters_and_only_counters_end_in_total(self):
        for sample in runtime().finalize().samples:
            assert (sample.kind == "counter") == sample.name.endswith("_total"), sample.name

    def test_values_are_floats(self):
        # Pickled snapshots are pinned byte for byte: an int would change them.
        snapshot = runtime(
            now=5, events=3, pending=2,
            network=network({"Token": 4}, {"Token": 1}, resent=1),
            allocators=[allocator(0, depth=2)],
            clients=[client(issued=1, completed=1)],
            coordinator=SimpleNamespace(tokens_regenerated=1, fences_applied=2, recovery_time=7),
        ).finalize()
        for sample in snapshot.samples:
            if sample.kind != "histogram":
                for _, value in sample.series:
                    assert type(value) is float, sample.name


class TestCounter:
    def test_starts_at_zero(self):
        snapshot = runtime().finalize()
        for sample in snapshot.samples:
            if sample.kind == "counter" and sample.name != "repro_telemetry_samples_total":
                assert all(value == 0.0 for _, value in sample.series), sample.name
        # The final sample is itself a sample.
        assert snapshot.value("repro_telemetry_samples_total") == 1.0

    @pytest.mark.parametrize(
        "family, layers, expected",
        [
            ("repro_events_dispatched_total", dict(events=1234), 1234.0),
            ("repro_scheduler_backlog", dict(pending=9), 9.0),
            ("repro_sim_time_ms", dict(now=812.5), 812.5),
            ("repro_requests_issued_total",
             dict(clients=[client(issued=3), client(issued=4)]), 7.0),
            ("repro_requests_completed_total",
             dict(clients=[client(completed=2), client(completed=5)]), 7.0),
            ("repro_resends_total", dict(network=network(resent=5)), 5.0),
            ("repro_tokens_regenerated_total",
             dict(coordinator=SimpleNamespace(
                 tokens_regenerated=4, fences_applied=0, recovery_time=0.0)), 4.0),
            ("repro_fences_applied_total",
             dict(coordinator=SimpleNamespace(
                 tokens_regenerated=0, fences_applied=6, recovery_time=0.0)), 6.0),
            ("repro_recovery_time_ms",
             dict(coordinator=SimpleNamespace(
                 tokens_regenerated=0, fences_applied=0, recovery_time=42.5)), 42.5),
        ],
    )
    def test_reads_its_source_total(self, family, layers, expected):
        assert runtime(**layers).finalize().value(family) == expected

    def test_totals_are_read_at_the_final_sample(self):
        sim = SimpleNamespace(now=0.0, processed_events=0, pending_events=0)
        issuer = client()
        rt = TelemetryRuntime(TelemetrySpec(), sim, clients=[issuer])
        sim.processed_events, sim.now, issuer.issued = 40, 100.0, 6
        snapshot = rt.finalize()
        assert snapshot.value("repro_events_dispatched_total") == 40.0
        assert snapshot.value("repro_requests_issued_total") == 6.0
        assert snapshot.value("repro_sim_time_ms") == 100.0

    def test_snapshot_is_frozen_at_finalize(self):
        sim = SimpleNamespace(now=10.0, processed_events=5, pending_events=0)
        rt = TelemetryRuntime(TelemetrySpec(), sim)
        snapshot = rt.finalize()
        sim.processed_events = 50
        rt.observe_grant(11.0, 0, 3.0)
        assert snapshot.value("repro_events_dispatched_total") == 5.0
        assert snapshot.value("repro_grants_total") == 0.0

    def test_grants_total_is_the_histogram_count(self):
        rt = runtime()
        for wait in (0.5, 3.0, 2000.0):
            rt.observe_grant(0.0, 0, wait)
        snapshot = rt.finalize()
        assert snapshot.value("repro_grants_total") == 3.0
        assert snapshot.value("repro_request_wait_ms")[2] == 3


class TestMessageSeries:
    def test_series_sorted_by_label_value(self):
        snapshot = runtime(network=network({"Token": 1, "ReqRes": 2, "Loan": 3})).finalize()
        sample = snapshot.sample("repro_messages_sent_total")
        assert [pairs for pairs, _ in sample.series] == [
            (("type", "Loan"),), (("type", "ReqRes"),), (("type", "Token"),),
        ]
        assert snapshot.value("repro_messages_sent_total", type="ReqRes") == 2.0

    def test_dropped_by_type(self):
        snapshot = runtime(network=network({"Token": 5}, {"Token": 2})).finalize()
        assert snapshot.value("repro_messages_dropped_total", type="Token") == 2.0

    def test_no_network_emits_no_series(self):
        snapshot = runtime().finalize()
        assert snapshot.sample("repro_messages_sent_total").series == ()
        assert snapshot.sample("repro_messages_dropped_total").series == ()


class TestNodeGauges:
    def test_queue_depth_labelled_by_node_id(self):
        snapshot = runtime(allocators=[allocator(7, depth=2), allocator(3, depth=0)]).finalize()
        assert snapshot.value("repro_node_queue_depth", node=7) == 2.0
        assert snapshot.value("repro_node_queue_depth", node="3") == 0.0

    def test_allocators_without_queue_depth_are_skipped(self):
        bare = SimpleNamespace(node_id=1)
        snapshot = runtime(allocators=[allocator(0, depth=4), bare]).finalize()
        sample = snapshot.sample("repro_node_queue_depth")
        assert sample.series == (((("node", "0"),), 4.0),)

    def test_labels_sort_as_strings(self):
        # Node "10" sorts before node "2": label values are strings.
        clients = [client() for _ in range(12)]
        sample = runtime(clients=clients).finalize().sample("repro_node_token_wait_ms")
        labels = [pairs[0][1] for pairs, _ in sample.series]
        assert labels == sorted(str(p) for p in range(12))
        assert labels[:4] == ["0", "1", "10", "11"]

    def test_token_wait_keeps_the_latest_grant_per_process(self):
        rt = runtime(clients=[client(), client(), client()])
        rt.observe_grant(1.0, 1, 4.0)
        rt.observe_grant(2.0, 2, 9.5)
        rt.observe_grant(3.0, 1, 0.5)
        snapshot = rt.finalize()
        assert snapshot.value("repro_node_token_wait_ms", node=0) == 0.0
        assert snapshot.value("repro_node_token_wait_ms", node=1) == 0.5
        assert snapshot.value("repro_node_token_wait_ms", node=2) == 9.5

    def test_node_gauges_off_emits_no_per_node_series(self):
        rt = runtime(
            TelemetrySpec(node_gauges=False),
            allocators=[allocator(0, depth=3)], clients=[client()],
        )
        rt.observe_grant(1.0, 0, 4.0)
        snapshot = rt.finalize()
        assert snapshot.sample("repro_node_queue_depth").series == ()
        assert snapshot.sample("repro_node_token_wait_ms").series == ()
        # The wait still reaches the histogram.
        assert snapshot.value("repro_grants_total") == 1.0


class TestWaitHistogram:
    def test_integer_bounds_are_reported_as_floats(self):
        sample = runtime(TelemetrySpec(wait_buckets=(1, 3, 10))).finalize().sample(
            "repro_request_wait_ms"
        )
        assert sample.buckets == (1.0, 3.0, 10.0)
        assert all(type(b) is float for b in sample.buckets)

    def test_unlabelled_single_series(self):
        rt = runtime(TelemetrySpec(wait_buckets=(1.0, 5.0)))
        rt.observe_grant(0.0, 0, 2.0)
        (series,) = rt.finalize().sample("repro_request_wait_ms").series
        assert series == ((), ((0, 1, 1), 2.0, 1))


class TestHealth:
    def test_heartbeat_then_grant_progress_at_the_final_sample(self):
        snapshot = runtime(now=120.0, clients=[client(last_grant=100.0)]).finalize()
        assert [r.name for r in snapshot.health] == ["heartbeat", "grant_progress"]
        assert all(r.checked_at == 120.0 for r in snapshot.health)

    def test_grant_progress_reads_the_latest_grant_across_clients(self):
        clients = [client(last_grant=10.0), client(last_grant=None), client(last_grant=90.0)]
        snapshot = runtime(TelemetrySpec(stall_after=50.0), now=120.0, clients=clients).finalize()
        (progress,) = [r for r in snapshot.health if r.name == "grant_progress"]
        assert progress.status == HealthStatus.HEALTHY
        assert progress.detail == "30 ms since the last grant"

    def test_stall_budget_comes_from_the_spec(self):
        clients = [client(last_grant=100.0)]
        tight = runtime(TelemetrySpec(stall_after=40.0), now=200.0, clients=clients).finalize()
        loose = runtime(TelemetrySpec(stall_after=500.0), now=200.0, clients=clients).finalize()
        assert tight.health[1].status == HealthStatus.UNHEALTHY
        assert loose.health[1].status == HealthStatus.HEALTHY

    def test_health_gauge_reports_severity_by_check(self):
        snapshot = runtime(
            TelemetrySpec(stall_after=100.0), now=150.0, clients=[client(last_grant=0.0)]
        ).finalize()
        sample = snapshot.sample("repro_health")
        # Sorted by check name, like every labelled family.
        assert [pairs for pairs, _ in sample.series] == [
            (("check", "grant_progress"),), (("check", "heartbeat"),),
        ]
        assert snapshot.value("repro_health", check="grant_progress") == 2.0
        assert snapshot.value("repro_health", check="heartbeat") == 0.0


def probe_run(spec, until, clients, horizon=None):
    """Samples a real simulator's probe took by ``until`` (final sample included)."""
    sim = Simulator()
    if horizon is not None:
        sim.schedule(horizon, lambda: None)  # keeps the event queue busy
    rt = TelemetryRuntime(spec, sim, clients=clients)
    rt.start()
    # A probe that never stops re-arming raises instead of hanging.
    sim.run(until=until, max_events=1000)
    return rt.finalize().value("repro_telemetry_samples_total"), sim


class TestProbe:
    def test_fires_every_interval_while_the_run_is_busy(self):
        samples, _ = probe_run(
            TelemetrySpec(sample_interval=10.0), 95.0, [client(stopped=False)], horizon=1000.0
        )
        assert samples == 9.0 + 1.0  # t = 10, 20, ..., 90, plus the final sample

    def test_first_firing_is_one_interval_after_start(self):
        samples, _ = probe_run(
            TelemetrySpec(sample_interval=10.0), 9.5, [client(stopped=False)], horizon=1000.0
        )
        assert samples == 1.0

    def test_stops_when_the_event_queue_drains(self):
        samples, sim = probe_run(TelemetrySpec(sample_interval=10.0), None, [client(stopped=False)])
        assert samples == 2.0
        assert sim.now == 10.0 and sim.pending_events == 0

    def test_stops_when_every_client_is_done(self):
        samples, sim = probe_run(
            TelemetrySpec(sample_interval=10.0), None, [client(stopped=True)], horizon=1000.0
        )
        assert samples == 2.0
        assert sim.now == 1000.0  # the probe did not hold the run open

    def test_keeps_firing_while_a_stopped_client_still_waits(self):
        samples, _ = probe_run(
            TelemetrySpec(sample_interval=10.0), 55.0,
            [client(stopped=True, waiting=1)], horizon=1000.0,
        )
        assert samples == 5.0 + 1.0
