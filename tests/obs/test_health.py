"""Health-check state transitions: heartbeat, stall watchdog, aggregation."""

from __future__ import annotations

import pytest

from repro.obs.health import (
    HealthCheck,
    HealthMonitor,
    HealthStatus,
    HeartbeatCheck,
    StallCheck,
)


class TestHealthStatus:
    def test_severity_ordering(self):
        assert (
            HealthStatus.severity(HealthStatus.HEALTHY)
            < HealthStatus.severity(HealthStatus.UNKNOWN)
            < HealthStatus.severity(HealthStatus.DEGRADED)
            < HealthStatus.severity(HealthStatus.UNHEALTHY)
        )

    def test_worst(self):
        assert HealthStatus.worst([]) == HealthStatus.HEALTHY
        assert (
            HealthStatus.worst([HealthStatus.HEALTHY, HealthStatus.DEGRADED])
            == HealthStatus.DEGRADED
        )
        assert (
            HealthStatus.worst(
                [HealthStatus.UNHEALTHY, HealthStatus.HEALTHY, HealthStatus.UNKNOWN]
            )
            == HealthStatus.UNHEALTHY
        )

    def test_severity_rejects_unknown_string(self):
        with pytest.raises(ValueError):
            HealthStatus.severity("fine")


class TestHealthCheck:
    def test_report_carries_probe_result(self):
        check = HealthCheck("x", lambda: (HealthStatus.HEALTHY, "all good"))
        report = check.run(12.5)
        assert report.name == "x"
        assert report.status == HealthStatus.HEALTHY
        assert report.detail == "all good"
        assert report.checked_at == 12.5

    def test_raising_probe_reports_unknown(self):
        def probe():
            raise RuntimeError("boom")

        report = HealthCheck("x", probe).run(1.0)
        assert report.status == HealthStatus.UNKNOWN
        assert "RuntimeError" in report.detail and "boom" in report.detail

    def test_invalid_status_reports_unknown(self):
        report = HealthCheck("x", lambda: ("fine", "")).run()
        assert report.status == HealthStatus.UNKNOWN
        assert "invalid status" in report.detail


class TestHeartbeatCheck:
    def test_unknown_before_first_beat(self):
        assert HeartbeatCheck().run().status == HealthStatus.UNKNOWN

    def test_healthy_while_clock_advances(self):
        hb = HeartbeatCheck()
        for t in (1.0, 2.0, 3.0):
            hb.beat(t)
        assert hb.run(3.0).status == HealthStatus.HEALTHY

    def test_single_stuck_sample_tolerated(self):
        hb = HeartbeatCheck()
        hb.beat(1.0)
        hb.beat(1.0)  # one repeated sample could be a boundary artefact
        assert hb.run(1.0).status == HealthStatus.HEALTHY

    def test_two_stuck_samples_unhealthy(self):
        hb = HeartbeatCheck()
        hb.beat(1.0)
        hb.beat(1.0)
        hb.beat(1.0)
        report = hb.run(1.0)
        assert report.status == HealthStatus.UNHEALTHY
        assert "stuck" in report.detail

    def test_recovers_when_clock_moves_again(self):
        hb = HeartbeatCheck()
        for t in (1.0, 1.0, 1.0, 2.0):
            hb.beat(t)
        assert hb.run(2.0).status == HealthStatus.HEALTHY


class TestStallCheck:
    def test_requires_positive_budget(self):
        with pytest.raises(ValueError):
            StallCheck(0.0)

    def test_unknown_before_first_sample(self):
        assert StallCheck(100.0).run().status == HealthStatus.UNKNOWN

    def test_healthy_within_budget(self):
        st = StallCheck(100.0)
        st.update(50.0, 12.5)
        report = st.run(50.0)
        assert report.status == HealthStatus.HEALTHY
        assert "37.5 ms since the last grant" in report.detail

    def test_degraded_past_budget(self):
        st = StallCheck(100.0)
        st.update(150.0, 0.0)  # clock advanced 150 ms since the last grant
        report = st.run(150.0)
        assert report.status == HealthStatus.DEGRADED
        assert "no grant completed" in report.detail

    def test_unhealthy_past_twice_budget(self):
        st = StallCheck(100.0)
        st.update(250.0, 0.0)
        assert st.run(250.0).status == HealthStatus.UNHEALTHY

    def test_progress_resets_the_clock(self):
        st = StallCheck(100.0)
        st.update(150.0, 10.0)
        assert st.run(150.0).status == HealthStatus.DEGRADED
        st.update(160.0, 155.0)  # a grant completed: healthy again
        assert st.run(160.0).status == HealthStatus.HEALTHY

    def test_run_with_no_grant_yet_is_judged_from_zero(self):
        st = StallCheck(100.0)
        st.update(100.0, None)
        assert st.run(100.0).status == HealthStatus.HEALTHY
        st.update(150.0, None)
        assert st.run(150.0).status == HealthStatus.DEGRADED


class TestHealthMonitor:
    def test_run_all_in_registration_order(self):
        monitor = HealthMonitor()
        monitor.register(HealthCheck("b", lambda: (HealthStatus.HEALTHY, "")))
        monitor.register(HealthCheck("a", lambda: (HealthStatus.DEGRADED, "")))
        reports = monitor.run_all(9.0)
        assert [r.name for r in reports] == ["b", "a"]
        assert all(r.checked_at == 9.0 for r in reports)

    def test_overall_is_worst_status(self):
        monitor = HealthMonitor()
        monitor.register(HealthCheck("ok", lambda: (HealthStatus.HEALTHY, "")))
        assert monitor.overall() == HealthStatus.HEALTHY
        monitor.register(HealthCheck("bad", lambda: (HealthStatus.UNHEALTHY, "")))
        assert monitor.overall() == HealthStatus.UNHEALTHY

    def test_register_replaces_same_name(self):
        monitor = HealthMonitor()
        monitor.register(HealthCheck("x", lambda: (HealthStatus.UNHEALTHY, "")))
        monitor.register(HealthCheck("x", lambda: (HealthStatus.HEALTHY, "")))
        (report,) = monitor.run_all()
        assert report.status == HealthStatus.HEALTHY

    def test_empty_monitor_is_healthy(self):
        assert HealthMonitor().overall() == HealthStatus.HEALTHY
