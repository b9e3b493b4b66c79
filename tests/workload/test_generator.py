"""Unit tests for requests and the Section-5.1 closed-loop stream."""

import itertools

import pytest

from repro.workload.generator import RequestSpec
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import SyntheticSpec


@pytest.fixture
def params():
    return WorkloadParams(
        num_processes=4, num_resources=20, phi=6, duration=1_000.0, warmup=100.0, seed=5
    )


def closed_loop(params, process=0):
    return SyntheticSpec().build(params).stream_for(process)


def preview(params, process, count):
    return list(itertools.islice(closed_loop(params, process), count))


class TestRequestSpec:
    def test_empty_resources_rejected(self):
        with pytest.raises(ValueError):
            RequestSpec(0, 0, frozenset(), 10.0, 1.0)

    def test_non_positive_cs_rejected(self):
        with pytest.raises(ValueError):
            RequestSpec(0, 0, frozenset({1}), 0.0, 1.0)

    def test_negative_think_rejected(self):
        with pytest.raises(ValueError):
            RequestSpec(0, 0, frozenset({1}), 1.0, -1.0)


class TestClosedLoopStream:
    def test_sizes_within_phi(self, params):
        for spec in preview(params, 0, 300):
            assert 1 <= len(spec.resources) <= params.phi

    def test_resources_within_range(self, params):
        for spec in preview(params, 1, 200):
            assert all(0 <= r < params.num_resources for r in spec.resources)

    def test_cs_duration_positive_and_bounded(self, params):
        upper = params.alpha_max * (1 + params.cs_noise)
        for spec in preview(params, 2, 200):
            assert 0 < spec.cs_duration <= upper + 1e-9

    def test_larger_requests_have_longer_mean_cs(self):
        params = WorkloadParams(
            num_processes=2, num_resources=40, phi=40, duration=1_000.0, warmup=100.0,
            seed=3, cs_noise=0.0,
        )
        specs = preview(params, 0, 500)
        small = [s.cs_duration for s in specs if len(s.resources) <= 5]
        large = [s.cs_duration for s in specs if len(s.resources) >= 35]
        assert small and large
        assert sum(large) / len(large) > sum(small) / len(small)

    def test_indices_increment(self, params):
        assert [spec.index for spec in preview(params, 0, 5)] == [0, 1, 2, 3, 4]

    def test_iterator_protocol(self, params):
        first = next(closed_loop(params))
        assert isinstance(first, RequestSpec)

    def test_think_time_non_negative(self, params):
        assert all(spec.think_time >= 0 for spec in preview(params, 3, 200))


class TestClosedLoopDeterminism:
    def test_deterministic_for_same_seed(self, params):
        assert preview(params, 0, 20) == preview(params, 0, 20)

    def test_different_seeds_differ(self, params):
        assert preview(params, 0, 20) != preview(params.with_seed(6), 0, 20)

    def test_processes_get_different_streams(self, params):
        run = SyntheticSpec().build(params)
        first = list(itertools.islice(run.stream_for(0), 20))
        assert first != list(itertools.islice(run.stream_for(1), 20))

    def test_out_of_range_process_rejected(self, params):
        with pytest.raises(ValueError):
            closed_loop(params, 99)

    def test_workload_identical_across_load_levels_for_sizes(self):
        """The same seed must replay the same resource sets regardless of
        the load level, so algorithm comparisons see identical conflicts."""
        base = WorkloadParams(
            num_processes=2, num_resources=10, phi=4, duration=100.0, warmup=10.0, seed=9
        )
        medium = preview(base.with_load(LoadLevel.MEDIUM), 0, 30)
        high = preview(base.with_load(LoadLevel.HIGH), 0, 30)
        assert [s.resources for s in medium] == [s.resources for s in high]
