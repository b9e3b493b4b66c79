"""Snapshot records and the request-wait histogram a run reports."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.obs.metrics import DEFAULT_WAIT_BUCKETS_MS, MetricSample, TelemetrySnapshot
from tests.obs.helpers import wait_histogram


class TestWaitHistogram:
    def test_default_buckets(self):
        cumulative, _, _ = wait_histogram([])
        assert len(cumulative) == len(DEFAULT_WAIT_BUCKETS_MS) + 1

    def test_le_is_inclusive(self):
        # A value equal to a bound lands in that bound's bucket.
        cumulative, _, _ = wait_histogram([1.0, 5.0, 10.0], bounds=(1.0, 5.0, 10.0))
        assert cumulative == (1, 2, 3, 3)

    def test_above_top_bound_lands_in_inf(self):
        cumulative, _, _ = wait_histogram([5.0001, 1e9], bounds=(1.0, 5.0))
        assert cumulative == (0, 0, 2)

    def test_below_first_bound(self):
        # Negative observations are legal (le=1 covers them).
        cumulative, _, _ = wait_histogram([0.0, -3.0], bounds=(1.0, 5.0))
        assert cumulative == (2, 2, 2)

    def test_sum_and_count(self):
        _, total, count = wait_histogram([0.5, 2.0, 3.5], bounds=(1.0,))
        assert count == 3
        assert total == pytest.approx(6.0)

    def test_inf_observation_lands_in_inf_bucket(self):
        cumulative, _, _ = wait_histogram([math.inf], bounds=(1.0,))
        assert cumulative == (0, 1)


def _snapshot() -> TelemetrySnapshot:
    return TelemetrySnapshot(samples=(
        MetricSample("repro_msgs_total", "counter", "", (((("type", "T"),), 4.0),)),
        MetricSample("repro_wait_ms", "histogram", "", (((), ((1, 1), 0.5, 1)),), (1.0,)),
    ))


class TestSnapshot:
    def test_snapshot_value_accessors(self):
        snap = _snapshot()
        assert snap.value("repro_msgs_total", type="T") == 4.0
        assert snap.value("repro_wait_ms") == ((1, 1), 0.5, 1)
        with pytest.raises(KeyError):
            snap.sample("repro_missing")
        with pytest.raises(KeyError):
            snap.value("repro_msgs_total", type="missing")

    def test_snapshot_pickle_roundtrip(self):
        snap = _snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert pickle.dumps(clone) == pickle.dumps(snap)
