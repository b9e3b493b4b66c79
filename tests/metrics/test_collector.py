"""Unit tests for the metrics collector (lifecycle, safety, aggregation)."""

import pytest

from repro.metrics.collector import MetricsCollector, SafetyViolation


def make_collector(m=4, warmup=0.0):
    return MetricsCollector(num_resources=m, warmup=warmup)


class TestLifecycle:
    def test_full_lifecycle_recorded(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({0, 1}))
        c.on_grant(3.0, 0, 0)
        c.on_release(8.0, 0, 0)
        rec = c.record_for(0, 0)
        assert rec.waiting_time == pytest.approx(2.0)
        assert rec.completed
        assert c.incomplete_requests() == []

    def test_duplicate_issue_rejected(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({0}))
        with pytest.raises(ValueError):
            c.on_issue(2.0, 0, 0, frozenset({1}))

    def test_grant_for_unknown_request_rejected(self):
        with pytest.raises(ValueError):
            make_collector().on_grant(1.0, 0, 0)

    def test_release_before_grant_rejected(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({0}))
        with pytest.raises(ValueError):
            c.on_release(2.0, 0, 0)

    def test_double_grant_rejected(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({0}))
        c.on_grant(2.0, 0, 0)
        with pytest.raises(ValueError):
            c.on_grant(3.0, 0, 0)

    def test_double_release_rejected(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({0}))
        c.on_grant(2.0, 0, 0)
        c.on_release(3.0, 0, 0)
        with pytest.raises(ValueError):
            c.on_release(4.0, 0, 0)

    def test_empty_resource_set_rejected(self):
        with pytest.raises(ValueError):
            make_collector().on_issue(1.0, 0, 0, frozenset())

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_resource_rejected(self, bad):
        """Holders are a list indexed by resource id: ``-1`` would alias
        resource ``M - 1`` instead of failing."""
        c = make_collector(m=4)
        with pytest.raises(ValueError, match="outside"):
            c.on_issue(1.0, 0, 0, frozenset({0, bad}))
        assert len(c.columns) == 0

    def test_pending_request_is_incomplete(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({0}))
        assert c.incomplete_requests() == [(0, 0)]


class TestSafetyCheck:
    def test_conflicting_grant_raises(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({0, 1}))
        c.on_issue(1.0, 1, 0, frozenset({1, 2}))
        c.on_grant(2.0, 0, 0)
        with pytest.raises(SafetyViolation):
            c.on_grant(3.0, 1, 0)

    def test_non_conflicting_grants_allowed(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({0}))
        c.on_issue(1.0, 1, 0, frozenset({1}))
        c.on_grant(2.0, 0, 0)
        c.on_grant(2.0, 1, 0)
        assert set(c.currently_held()) == {0, 1}

    def test_violation_names_the_held_resource_and_its_holder(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({3}))
        c.on_issue(1.0, 1, 0, frozenset({0, 3}))
        c.on_grant(2.0, 0, 0)
        held = r"resource 3 .* held by process 0 \(request \(0, 0\)\)"
        with pytest.raises(SafetyViolation, match=held):
            c.on_grant(3.0, 1, 0)
        assert c.currently_held() == {3: (0, 0)}

    def test_resource_free_after_release(self):
        c = make_collector()
        c.on_issue(1.0, 0, 0, frozenset({0}))
        c.on_grant(2.0, 0, 0)
        c.on_release(3.0, 0, 0)
        c.on_issue(3.0, 1, 0, frozenset({0}))
        c.on_grant(4.0, 1, 0)  # must not raise
        assert c.currently_held()[0] == (1, 0)


class TestUseRate:
    def test_single_busy_resource(self):
        c = make_collector(m=2)
        c.on_issue(0.0, 0, 0, frozenset({0}))
        c.on_grant(0.0, 0, 0)
        c.on_release(10.0, 0, 0)
        # resource 0 busy 10 of 10, resource 1 idle: 50%
        assert c.use_rate(horizon=10.0) == pytest.approx(50.0)

    def test_all_resources_busy_is_100(self):
        c = make_collector(m=2)
        c.on_issue(0.0, 0, 0, frozenset({0, 1}))
        c.on_grant(0.0, 0, 0)
        c.on_release(10.0, 0, 0)
        assert c.use_rate(horizon=10.0) == pytest.approx(100.0)

    def test_open_interval_counted_up_to_horizon(self):
        c = make_collector(m=1)
        c.on_issue(0.0, 0, 0, frozenset({0}))
        c.on_grant(2.0, 0, 0)
        assert c.use_rate(horizon=10.0) == pytest.approx(80.0)

    def test_warmup_excluded(self):
        c = MetricsCollector(num_resources=1, warmup=5.0)
        c.on_issue(0.0, 0, 0, frozenset({0}))
        c.on_grant(0.0, 0, 0)
        c.on_release(10.0, 0, 0)
        # busy over [5, 10] of the [5, 10] window
        assert c.use_rate(horizon=10.0) == pytest.approx(100.0)

    def test_zero_window_is_zero(self):
        c = MetricsCollector(num_resources=1, warmup=5.0)
        assert c.use_rate(horizon=5.0) == 0.0


class TestWaitingTimes:
    def test_waiting_excludes_warmup_requests(self):
        c = MetricsCollector(num_resources=2, warmup=10.0)
        c.on_issue(1.0, 0, 0, frozenset({0}))
        c.on_grant(2.0, 0, 0)
        c.on_release(3.0, 0, 0)
        c.on_issue(11.0, 0, 1, frozenset({0}))
        c.on_grant(15.0, 0, 1)
        c.on_release(16.0, 0, 1)
        waiting = c.build("x", horizon=20.0).waiting
        assert waiting.count == 1
        assert waiting.mean == pytest.approx(4.0)

    def test_waiting_by_size_buckets(self):
        c = make_collector(m=10)
        c.on_issue(0.0, 0, 0, frozenset({0}))
        c.on_grant(1.0, 0, 0)
        c.on_issue(0.0, 1, 0, frozenset(range(1, 10)))
        c.on_grant(9.0, 1, 0)
        grouped = c.build("x", horizon=10.0, size_buckets=[1, 10]).waiting_by_size
        assert (grouped[1].count, grouped[1].mean) == (1, pytest.approx(1.0))
        assert (grouped[10].count, grouped[10].mean) == (1, pytest.approx(9.0))

    def test_waiting_by_exact_size(self):
        c = make_collector(m=10)
        c.on_issue(0.0, 0, 0, frozenset({0, 1, 2}))
        c.on_grant(2.0, 0, 0)
        grouped = c.build("x", horizon=5.0).waiting_by_size
        assert list(grouped) == [3]


class TestBuild:
    def test_build_aggregates_counts_and_messages(self):
        c = make_collector(m=2)
        c.on_issue(0.0, 0, 0, frozenset({0}))
        c.on_grant(1.0, 0, 0)
        c.on_release(2.0, 0, 0)
        c.on_issue(0.0, 1, 0, frozenset({1}))
        metrics = c.build(
            algorithm="test", horizon=10.0, messages_total=20, messages_by_type={"Ping": 20}
        )
        assert metrics.issued == 2
        assert metrics.granted == 1
        assert metrics.completed == 1
        assert metrics.messages_per_cs == pytest.approx(20.0)
        assert metrics.messages_by_type == {"Ping": 20}

    def test_build_with_no_completions(self):
        c = make_collector()
        metrics = c.build(algorithm="x", horizon=5.0)
        assert metrics.completed == 0
        assert metrics.messages_per_cs == 0.0

    def test_invalid_num_resources_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(num_resources=0)


class TestAbort:
    def test_abort_frees_resources_for_the_safety_checker(self):
        collector = make_collector()
        collector.on_issue(0.0, 0, 0, frozenset({1, 2}))
        collector.on_grant(1.0, 0, 0)
        collector.on_abort(5.0, 0, 0)
        assert collector.aborted == 1
        assert collector.currently_held() == {}
        # Another process may now take the freed resources without
        # tripping the online safety check.
        collector.on_issue(5.0, 1, 0, frozenset({1}))
        collector.on_grant(6.0, 1, 0)

    def test_abort_closes_the_busy_interval_at_the_crash(self):
        collector = make_collector(m=1)
        collector.on_issue(0.0, 0, 0, frozenset({0}))
        collector.on_grant(2.0, 0, 0)
        collector.on_abort(6.0, 0, 0)
        # Busy from grant (2.0) to abort (6.0) out of a 10 ms horizon.
        assert collector.use_rate(10.0) == pytest.approx(40.0)

    def test_aborted_request_stays_incomplete(self):
        collector = make_collector()
        collector.on_issue(0.0, 0, 0, frozenset({1}))
        collector.on_grant(1.0, 0, 0)
        collector.on_abort(2.0, 0, 0)
        assert collector.incomplete_requests() == [(0, 0)]
        metrics = collector.build(algorithm="x", horizon=10.0)
        assert metrics.completed == 0
        assert metrics.granted == 1

    def test_abort_before_grant_is_a_noop(self):
        # Nothing was held, so nothing is freed and nothing is counted:
        # ``aborted`` tallies critical sections cut short by a crash, not
        # requests that never got in.
        collector = make_collector()
        collector.on_issue(0.0, 0, 0, frozenset({1}))
        collector.on_abort(2.0, 0, 0)
        assert collector.aborted == 0
        assert collector.currently_held() == {}

    def test_abort_of_unknown_request_raises(self):
        collector = make_collector()
        with pytest.raises(ValueError):
            collector.on_abort(1.0, 0, 0)

    def test_abort_after_release_raises(self):
        collector = make_collector()
        collector.on_issue(0.0, 0, 0, frozenset({1}))
        collector.on_grant(1.0, 0, 0)
        collector.on_release(2.0, 0, 0)
        with pytest.raises(ValueError):
            collector.on_abort(3.0, 0, 0)
