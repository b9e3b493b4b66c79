"""Health verdicts: status ordering, reports, grant-progress watchdog."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.health import HealthReport, HealthStatus, grant_progress


class TestHealthStatus:
    def test_severity_ordering(self):
        assert (
            HealthStatus.severity(HealthStatus.HEALTHY)
            < HealthStatus.severity(HealthStatus.UNKNOWN)
            < HealthStatus.severity(HealthStatus.DEGRADED)
            < HealthStatus.severity(HealthStatus.UNHEALTHY)
        )

    def test_severity_rejects_unknown_string(self):
        with pytest.raises(ValueError):
            HealthStatus.severity("fine")

    @pytest.mark.parametrize(
        "status, gauge",
        [("healthy", 0), ("unknown", 1), ("degraded", 2), ("unhealthy", 3)],
    )
    def test_severity_is_the_documented_gauge_value(self, status, gauge):
        # The repro_health HELP text promises exactly these numbers.
        assert HealthStatus.severity(status) == gauge


class TestHealthReport:
    def test_defaults(self):
        report = HealthReport("x", HealthStatus.HEALTHY)
        assert report.detail == ""
        assert report.checked_at == 0.0

    def test_frozen_and_picklable(self):
        report = grant_progress(150.0, 0.0, 100.0)
        with pytest.raises(AttributeError):
            report.status = HealthStatus.HEALTHY
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert type(clone) is HealthReport


class TestGrantProgress:
    def test_healthy_within_budget(self):
        report = grant_progress(50.0, 12.5, 100.0)
        assert report.name == "grant_progress"
        assert report.status == HealthStatus.HEALTHY
        assert report.detail == "37.5 ms since the last grant"
        assert report.checked_at == 50.0

    def test_degraded_past_budget(self):
        # The clock advanced 150 ms since the last grant.
        report = grant_progress(150.0, 0.0, 100.0)
        assert report.status == HealthStatus.DEGRADED
        assert report.detail == "no grant completed for 150 ms (budget 100 ms)"

    def test_unhealthy_past_twice_budget(self):
        assert grant_progress(250.0, 0.0, 100.0).status == HealthStatus.UNHEALTHY

    def test_exactly_at_budget_is_healthy(self):
        assert grant_progress(100.0, 0.0, 100.0).status == HealthStatus.HEALTHY
        assert grant_progress(200.0, 0.0, 100.0).status == HealthStatus.DEGRADED

    def test_exactly_twice_budget_is_degraded(self):
        assert grant_progress(200.0, 0.0, 100.0).status == HealthStatus.DEGRADED
        assert grant_progress(200.5, 0.0, 100.0).status == HealthStatus.UNHEALTHY

    def test_unhealthy_detail_names_idle_time_and_budget(self):
        report = grant_progress(300.0, 50.0, 100.0)
        assert report.status == HealthStatus.UNHEALTHY
        assert report.detail == "no grant completed for 250 ms (budget 100 ms)"
        assert report.checked_at == 300.0

    def test_only_the_latest_grant_counts(self):
        # However long the run, a recent grant keeps it healthy.
        assert grant_progress(10_000.0, 9_950.0, 100.0).status == HealthStatus.HEALTHY

    def test_run_with_no_grant_yet_is_judged_from_zero(self):
        assert grant_progress(100.0, None, 100.0).status == HealthStatus.HEALTHY
        assert grant_progress(150.0, None, 100.0).status == HealthStatus.DEGRADED
