"""Registry semantics: counter monotonicity, gauges, histogram buckets, labels."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.obs.metrics import (
    Counter,
    DEFAULT_WAIT_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetrySnapshot,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("repro_x_total").value == 0.0

    def test_inc_defaults_to_one(self):
        c = Counter("repro_x_total")
        c.inc()
        c.inc()
        assert c.value == 2.0

    def test_inc_amount(self):
        c = Counter("repro_x_total")
        c.inc(5)
        c.inc(0.5)
        assert c.value == 5.5

    def test_zero_increment_allowed(self):
        c = Counter("repro_x_total")
        c.inc(0)
        assert c.value == 0.0

    def test_negative_increment_rejected(self):
        c = Counter("repro_x_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)
        assert c.value == 0.0  # failed inc leaves the counter untouched

    def test_monotonic_under_mixed_increments(self):
        c = Counter("repro_x_total")
        seen = [c.value]
        for amount in (1, 0, 2.5, 0.0, 7):
            c.inc(amount)
            seen.append(c.value)
        assert seen == sorted(seen)

    def test_labelled_parent_rejects_direct_inc(self):
        c = Counter("repro_x_total", labelnames=("type",))
        with pytest.raises(ValueError, match="labelled"):
            c.inc()


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("repro_backlog")
        g.set(10)
        g.inc()
        g.inc(2.5)
        g.dec(0.5)
        assert g.value == 13.0
        g.dec(20)
        assert g.value == -7.0  # gauges may go negative

    def test_labelled_parent_rejects_direct_set(self):
        g = Gauge("repro_backlog", labelnames=("node",))
        with pytest.raises(ValueError, match="labelled"):
            g.set(1)


class TestHistogram:
    def test_default_buckets(self):
        h = Histogram("repro_wait_ms")
        assert h.buckets == DEFAULT_WAIT_BUCKETS_MS

    def test_le_is_inclusive(self):
        # A value equal to a bound lands in that bound's bucket.
        h = Histogram("repro_wait_ms", buckets=(1.0, 5.0, 10.0))
        h.observe(1.0)
        h.observe(5.0)
        h.observe(10.0)
        assert h.cumulative_counts() == (1, 2, 3, 3)

    def test_above_top_bound_lands_in_inf(self):
        h = Histogram("repro_wait_ms", buckets=(1.0, 5.0))
        h.observe(5.0001)
        h.observe(1e9)
        assert h.cumulative_counts() == (0, 0, 2)

    def test_below_first_bound(self):
        h = Histogram("repro_wait_ms", buckets=(1.0, 5.0))
        h.observe(0.0)
        h.observe(-3.0)  # negative observations are legal (le=1 covers them)
        assert h.cumulative_counts() == (2, 2, 2)

    def test_sum_and_count(self):
        h = Histogram("repro_wait_ms", buckets=(1.0,))
        for v in (0.5, 2.0, 3.5):
            h.observe(v)
        assert h.count_value == 3
        assert h.sum_value == pytest.approx(6.0)

    def test_nan_rejected(self):
        h = Histogram("repro_wait_ms", buckets=(1.0,))
        with pytest.raises(ValueError, match="NaN"):
            h.observe(math.nan)

    def test_inf_observation_lands_in_inf_bucket(self):
        h = Histogram("repro_wait_ms", buckets=(1.0,))
        h.observe(math.inf)
        assert h.cumulative_counts() == (0, 1)

    def test_buckets_must_increase_strictly(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_wait_ms", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_wait_ms", buckets=(5.0, 1.0))

    def test_buckets_must_be_finite_and_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("repro_wait_ms", buckets=())
        with pytest.raises(ValueError, match="finite"):
            Histogram("repro_wait_ms", buckets=(1.0, math.inf))

    def test_labelled_parent_rejects_direct_observe(self):
        h = Histogram("repro_wait_ms", labelnames=("node",), buckets=(1.0,))
        with pytest.raises(ValueError, match="labelled"):
            h.observe(0.5)


class TestLabels:
    def test_labels_get_or_create_same_child(self):
        c = Counter("repro_msgs_total", labelnames=("type",))
        a = c.labels(type="ReqRes")
        b = c.labels(type="ReqRes")
        assert a is b
        a.inc()
        assert b.value == 1.0

    def test_distinct_label_values_are_independent(self):
        c = Counter("repro_msgs_total", labelnames=("type",))
        c.labels(type="ReqRes").inc(3)
        c.labels(type="Token").inc(1)
        assert c.labels(type="ReqRes").value == 3.0
        assert c.labels(type="Token").value == 1.0

    def test_label_values_are_stringified(self):
        g = Gauge("repro_depth", labelnames=("node",))
        g.labels(node=7).set(2)
        assert g.labels(node="7").value == 2.0

    def test_wrong_label_set_rejected(self):
        c = Counter("repro_msgs_total", labelnames=("type",))
        with pytest.raises(ValueError, match="expects labels"):
            c.labels(kind="ReqRes")
        with pytest.raises(ValueError, match="expects labels"):
            c.labels(type="ReqRes", extra="x")

    def test_unlabelled_family_rejects_labels_call(self):
        with pytest.raises(ValueError, match="has no labels"):
            Counter("repro_x_total").labels(type="a")

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("0bad")
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("bad-name")

    def test_invalid_label_names_rejected(self):
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("repro_x_total", labelnames=("le-gal",))
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("repro_x_total", labelnames=("__reserved",))
        with pytest.raises(ValueError, match="duplicate label names"):
            Counter("repro_x_total", labelnames=("a", "a"))

    def test_histogram_children_share_buckets(self):
        h = Histogram("repro_wait_ms", labelnames=("node",), buckets=(1.0, 2.0))
        child = h.labels(node=0)
        assert child.buckets == (1.0, 2.0)
        child.observe(1.5)
        assert child.cumulative_counts() == (0, 1, 1)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "help")
        b = reg.counter("repro_x_total")
        assert a is b

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("repro_x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.histogram("repro_x_total")

    def test_collect_freezes_current_state(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "things")
        c.inc(2)
        samples = reg.collect()
        c.inc(5)  # must not leak into the earlier collection
        (sample,) = samples
        assert sample.name == "repro_x_total"
        assert sample.kind == "counter"
        assert sample.series == (((), 2.0),)

    def test_collect_sorts_series_by_label_values(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_msgs_total", labelnames=("type",))
        c.labels(type="Token").inc()
        c.labels(type="ReqRes").inc()
        (sample,) = reg.collect()
        assert [pairs for pairs, _ in sample.series] == [
            (("type", "ReqRes"),),
            (("type", "Token"),),
        ]

    def test_snapshot_value_accessors(self):
        reg = MetricsRegistry()
        reg.counter("repro_msgs_total", labelnames=("type",)).labels(type="T").inc(4)
        reg.histogram("repro_wait_ms", buckets=(1.0,)).observe(0.5)
        snap = TelemetrySnapshot(samples=reg.collect())
        assert snap.value("repro_msgs_total", type="T") == 4.0
        assert snap.value("repro_wait_ms") == ((1, 1), 0.5, 1)
        with pytest.raises(KeyError):
            snap.sample("repro_missing")
        with pytest.raises(KeyError):
            snap.value("repro_msgs_total", type="missing")

    def test_snapshot_pickle_roundtrip(self):
        reg = MetricsRegistry()
        reg.gauge("repro_backlog").set(3)
        snap = TelemetrySnapshot(samples=reg.collect())
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert pickle.dumps(clone) == pickle.dumps(snap)
