"""Tests of the latency specs: values, validation, binding and the delays they give."""

import pickle
import random

import pytest

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.latency import (
    ConstantLatencySpec,
    HierarchicalLatencySpec,
    LatencySpec,
    UniformJitterLatency,
    UniformJitterLatencySpec,
)
from repro.workload.params import WorkloadParams

PARAMS = WorkloadParams(num_processes=6, num_resources=8, phi=2, gamma=0.8,
                        duration=400.0, warmup=50.0)

PAIRS = [(s, d) for s in range(4) for d in range(4)]


class TestConstantLatency:
    def test_default_matches_paper_gamma(self):
        bound = ConstantLatencySpec().bind(WorkloadParams())
        assert bound.latency(0, 1) == pytest.approx(0.6)

    def test_defaults_to_params_gamma(self):
        spec = ConstantLatencySpec()
        bound = spec.bind(PARAMS)
        assert bound == ConstantLatencySpec(gamma=PARAMS.gamma)
        assert bound.latency(0, 1) == pytest.approx(PARAMS.gamma)
        assert bound.latency(2, 2) == 0.0
        assert spec.gamma is None  # binding never rewrites the hashed field

    def test_explicit_gamma_binds_to_itself(self):
        spec = ConstantLatencySpec(gamma=1.5, local=0.1)
        assert spec.bind(PARAMS) is spec

    def test_same_node_is_local(self):
        spec = ConstantLatencySpec(gamma=2.0, local=0.1)
        assert spec.latency(3, 3) == pytest.approx(0.1)
        assert spec.latency(3, 4) == pytest.approx(2.0)

    @pytest.mark.parametrize("fields", [{"gamma": -1.0}, {"local": -0.5}])
    def test_negative_latency_rejected_at_construction(self, fields):
        with pytest.raises(ValueError, match="non-negative"):
            ConstantLatencySpec(**fields)

    def test_describe_mentions_gamma(self):
        assert "0.6" in ConstantLatencySpec(0.6).describe()


class TestUniformJitterLatency:
    def test_values_within_bounds(self):
        bound = UniformJitterLatencySpec(gamma=1.0, jitter=0.25, seed=3).bind(PARAMS)
        for _ in range(200):
            assert 0.75 <= bound.latency(0, 1) <= 1.25

    def test_each_bind_is_a_fresh_identical_stream(self):
        spec = UniformJitterLatencySpec(gamma=1.0, jitter=0.5, seed=9)
        a, b = spec.bind(PARAMS), spec.bind(PARAMS)
        assert a is not b
        assert [a.latency(0, 1) for _ in range(20)] == [b.latency(0, 1) for _ in range(20)]

    def test_bind_equals_direct_construction(self):
        """What the benchmark's send probe builds by hand draws the same delays."""
        bound = UniformJitterLatencySpec(gamma=1.0, jitter=0.5, seed=42).bind(PARAMS)
        direct = UniformJitterLatency(1.0, 0.5, seed=42)
        draws = [(bound.latency(0, 1), direct.latency(0, 1)) for _ in range(50)]
        assert all(a == b for a, b in draws)

    def test_defaults_to_params_gamma(self):
        bound = UniformJitterLatencySpec(jitter=0.0).bind(PARAMS)
        assert bound.latency(0, 1) == pytest.approx(PARAMS.gamma)

    def test_self_message_is_free(self):
        assert UniformJitterLatency(1.0, 0.5, seed=1).latency(2, 2) == 0.0

    @pytest.mark.parametrize(
        "gamma, jitter, seed", [(0.6, 0.4, 1), (1.0, 0.9, 7), (0.6, 0.0, 3), (2.5, 0.2, 0)]
    )
    def test_draws_are_exactly_random_uniform(self, gamma, jitter, seed):
        """The hoisted ``lo + span * random()`` is ``Random.uniform``, bit for bit."""
        bound = UniformJitterLatencySpec(gamma, jitter, seed).bind(PARAMS)
        rng = random.Random(seed)
        lo, hi = gamma * (1.0 - jitter), gamma * (1.0 + jitter)
        assert [bound.latency(0, 1) for _ in range(10_000)] == [
            rng.uniform(lo, hi) for _ in range(10_000)
        ]

    def test_self_message_consumes_no_draw(self):
        bound = UniformJitterLatencySpec(gamma=1.0, jitter=0.5, seed=1).bind(PARAMS)
        before = bound._rng.getstate()
        assert [bound.latency(n, n) for n in range(5)] == [0.0] * 5
        assert bound._rng.getstate() == before

    def test_the_spec_itself_draws_nothing(self):
        with pytest.raises(NotImplementedError):
            UniformJitterLatencySpec().latency(0, 1)

    @pytest.mark.parametrize("jitter", [1.0, 1.5, -0.1])
    def test_invalid_jitter_rejected_at_construction(self, jitter):
        with pytest.raises(ValueError, match="jitter"):
            UniformJitterLatencySpec(jitter=jitter)

    def test_invalid_gamma_rejected_at_construction(self):
        with pytest.raises(ValueError, match="gamma"):
            UniformJitterLatencySpec(gamma=0.0)

    def test_scenario_never_keys_an_invalid_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            Scenario("with_loan", PARAMS, latency=UniformJitterLatencySpec(jitter=1.5))


class TestHierarchicalLatency:
    def test_intra_vs_inter_cluster(self):
        spec = HierarchicalLatencySpec(
            gamma_local=0.5, gamma_remote=20.0, cluster_of=(0, 0, 1, 1)
        )
        assert spec.latency(0, 1) == pytest.approx(0.5)
        assert spec.latency(0, 2) == pytest.approx(20.0)
        assert spec.latency(2, 3) == pytest.approx(0.5)

    def test_round_robin_equals_the_explicit_map(self):
        by_count = HierarchicalLatencySpec(gamma_local=0.2, gamma_remote=9.0, num_clusters=2)
        by_map = HierarchicalLatencySpec(
            gamma_local=0.2, gamma_remote=9.0, cluster_of=(0, 1, 0, 1, 0, 1)
        )
        assert [by_count.bind(PARAMS).latency(s, d) for s, d in PAIRS] == [
            by_map.bind(PARAMS).latency(s, d) for s, d in PAIRS
        ]
        # nodes 0,2,4 -> cluster 0; nodes 1,3,5 -> cluster 1
        assert by_count.latency(0, 2) == 0.2 and by_count.latency(0, 1) == 9.0

    def test_explicit_cluster_map_defaults_to_params_gamma(self):
        spec = HierarchicalLatencySpec(gamma_remote=5.0, cluster_of=(0, 0, 1, 1, 1, 0))
        bound = spec.bind(PARAMS)
        assert bound.latency(0, 1) == pytest.approx(PARAMS.gamma)
        assert bound.latency(0, 2) == pytest.approx(5.0)
        assert spec.gamma_local is None

    def test_self_message_is_free(self):
        assert HierarchicalLatencySpec(gamma_local=0.5).latency(1, 1) == 0.0

    def test_cluster_map_coerced_to_tuple(self):
        spec = HierarchicalLatencySpec(cluster_of=[0, 1, 0, 1, 0, 1])
        assert spec.cluster_of == (0, 1, 0, 1, 0, 1)
        assert hash(spec)  # stays hashable after coercion

    def test_requires_clusters_or_map(self):
        with pytest.raises(ValueError):
            HierarchicalLatencySpec(num_clusters=None)

    def test_negative_latency_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            HierarchicalLatencySpec(gamma_remote=-1.0)

    def test_short_cluster_map_rejected_at_bind(self):
        spec = HierarchicalLatencySpec(cluster_of=(0, 1))
        with pytest.raises(ValueError, match="node 2 has none"):
            spec.bind(WorkloadParams(num_processes=4, num_resources=4, phi=2))

    def test_short_cluster_map_fails_the_run_before_its_first_event(self):
        params = WorkloadParams(
            num_processes=4, num_resources=4, phi=2, duration=200.0, warmup=20.0
        )
        scenario = Scenario(
            "with_loan", params, latency=HierarchicalLatencySpec(cluster_of=(0, 1))
        )
        with pytest.raises(ValueError, match=r"processes 0\.\.3: node 2 has none"):
            run(scenario)

    def test_describe_mentions_clusters(self):
        assert "num_clusters=2" in HierarchicalLatencySpec(num_clusters=2).describe()


class TestSpecValueSemantics:
    @pytest.mark.parametrize(
        "spec",
        [
            ConstantLatencySpec(gamma=1.0),
            UniformJitterLatencySpec(jitter=0.3, seed=5),
            HierarchicalLatencySpec(num_clusters=3),
        ],
    )
    def test_specs_pickle_to_equal_values(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec)
        assert isinstance(clone, LatencySpec)


def test_latencyspec_re_exports_the_specs():
    from repro.sim import latency, latencyspec

    assert latencyspec.__all__ == latency.__all__
    assert all(getattr(latencyspec, name) is getattr(latency, name) for name in latency.__all__)
