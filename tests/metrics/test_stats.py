"""Unit tests for the summary statistics helpers."""

import pytest

from repro.metrics.stats import percentile, summarize


class TestPercentile:
    def test_median_of_odd_sample(self):
        assert percentile([3.0, 1.0, 2.0], 50) == pytest.approx(2.0)

    def test_median_of_even_sample_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == pytest.approx(1.0)
        assert percentile(data, 100) == pytest.approx(9.0)

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_single_element(self):
        assert percentile([3.5], 75) == pytest.approx(3.5)


class TestSummarize:
    def test_full_summary(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == pytest.approx(1.0)
        assert summary.maximum == pytest.approx(4.0)
        assert summary.median == pytest.approx(2.5)

    def test_population_stddev_known_value(self):
        # population stddev of [2, 4, 4, 4, 5, 5, 7, 9] is 2, around mean 5
        summary = summarize([2, 4, 4, 4, 5, 5, 7, 9])
        assert summary.mean == pytest.approx(5.0)
        assert summary.stddev == pytest.approx(2.0)

    def test_single_sample_has_zero_spread(self):
        summary = summarize([7.0])
        assert summary.count == 1
        assert summary.mean == pytest.approx(7.0)
        assert summary.stddev == 0.0

    def test_empty_summary_is_all_zero(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.mean == 0.0
        assert summary.stddev == 0.0

    def test_accepts_generators(self):
        assert summarize(float(x) for x in range(5)).count == 5
