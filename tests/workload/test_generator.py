"""Unit tests for requests, their draws and the Section-5.1 closed-loop stream."""

import itertools
import pickle
import random

import pytest

from repro.workload.generator import RequestSpec, request_shapes, sample_ids
from repro.workload.params import LoadLevel, WorkloadParams, cs_duration_for_size
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


class TestRequestSpecRecord:
    """The tuple-backed record keeps the dataclass's fields, repr and value."""

    SPEC = RequestSpec(3, 7, frozenset({4, 1}), 12.5, 0.25)

    def test_fields_in_order(self):
        assert RequestSpec._fields == (
            "process", "index", "resources", "cs_duration", "think_time"
        )
        assert (self.SPEC.process, self.SPEC.index, self.SPEC.resources) == (
            3, 7, frozenset({1, 4})
        )

    def test_repr_names_the_fields(self):
        assert repr(self.SPEC) == (
            "RequestSpec(process=3, index=7, resources=frozenset({1, 4}), "
            "cs_duration=12.5, think_time=0.25)"
        )

    def test_keywords_and_positions_agree(self):
        assert self.SPEC == RequestSpec(
            process=3, index=7, resources=frozenset({1, 4}), cs_duration=12.5, think_time=0.25
        )

    def test_immutable_hashable_and_picklable(self):
        with pytest.raises(AttributeError):
            self.SPEC.think_time = 1.0
        assert hash(self.SPEC) == hash(RequestSpec(3, 7, frozenset({1, 4}), 12.5, 0.25))
        assert pickle.loads(pickle.dumps(self.SPEC)) == self.SPEC

    def test_never_equal_to_a_bare_tuple(self):
        assert self.SPEC != (3, 7, frozenset({1, 4}), 12.5, 0.25)


class TestDrawsMatchRandom:
    """Differential oracle: the draw helpers are ``random``'s own draws.

    Every stream pin rests on them, so an interpreter whose ``random``
    samples differently fails here, by name, instead of through the
    seventeen pins of ``test_pinned_streams.py``.
    """

    SEEDS = range(20)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_ids_is_sample(self, seed):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 129):
            for k in range(1, min(n, 16) + 1):
                expected = ref.sample(range(n), k)
                got = sample_ids(ours.getrandbits, n, k)
                assert got == frozenset(expected), (n, k)
                # Same selection order, hence the same set iteration order.
                assert list(got) == list(frozenset(expected)), (n, k)
                assert ours.getstate() == ref.getstate(), (n, k)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_request_shapes_are_randint_sample_uniform(self, seed):
        """Size ``randint(1, phi)``, pick ``sample``, noise ``uniform``: for
        every ``phi`` up to 128, on the three streams, call for call."""
        for phi in range(1, 129):
            params = WorkloadParams(
                num_processes=1, num_resources=phi, phi=phi, cs_noise=0.2, seed=seed
            )
            rngs = [random.Random(f"{seed}/{phi}/{name}") for name in ("size", "pick", "cs")]
            refs = [random.Random(f"{seed}/{phi}/{name}") for name in ("size", "pick", "cs")]
            shapes = request_shapes(params, *rngs)
            for _ in range(3):
                resources, cs_duration = next(shapes)
                size = refs[0].randint(1, phi)
                assert resources == frozenset(refs[1].sample(range(phi), size))
                mean = cs_duration_for_size(size, phi, params.alpha_min, params.alpha_max)
                assert cs_duration == max(mean * refs[2].uniform(1.0 - 0.2, 1.0 + 0.2), 1e-6)
            assert [r.getstate() for r in rngs] == [r.getstate() for r in refs]


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
