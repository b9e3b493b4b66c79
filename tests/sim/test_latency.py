"""Unit tests for the latency models."""

import random

import pytest

from repro.sim.latency import ConstantLatency, HierarchicalLatency, UniformJitterLatency


class TestConstantLatency:
    def test_default_matches_paper_gamma(self):
        model = ConstantLatency()
        assert model.latency(0, 1) == pytest.approx(0.6)

    def test_same_node_is_local(self):
        model = ConstantLatency(gamma=2.0, local=0.1)
        assert model.latency(3, 3) == pytest.approx(0.1)
        assert model.latency(3, 4) == pytest.approx(2.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(gamma=-1.0)

    def test_describe_mentions_gamma(self):
        assert "0.6" in ConstantLatency(0.6).describe()


class TestUniformJitterLatency:
    def test_values_within_bounds(self):
        model = UniformJitterLatency(gamma=1.0, jitter=0.25, seed=3)
        for _ in range(200):
            value = model.latency(0, 1)
            assert 0.75 <= value <= 1.25

    def test_deterministic_for_seed(self):
        a = UniformJitterLatency(gamma=1.0, jitter=0.5, seed=9)
        b = UniformJitterLatency(gamma=1.0, jitter=0.5, seed=9)
        assert [a.latency(0, 1) for _ in range(10)] == [b.latency(0, 1) for _ in range(10)]

    def test_self_message_is_free(self):
        model = UniformJitterLatency(gamma=1.0, jitter=0.5, seed=1)
        assert model.latency(2, 2) == 0.0

    @pytest.mark.parametrize(
        "gamma, jitter, seed", [(0.6, 0.4, 1), (1.0, 0.9, 7), (0.6, 0.0, 3), (2.5, 0.2, 0)]
    )
    def test_draws_are_exactly_random_uniform(self, gamma, jitter, seed):
        """The hoisted ``lo + span * random()`` is ``Random.uniform``, bit for bit."""
        model = UniformJitterLatency(gamma, jitter, seed)
        rng = random.Random(seed)
        lo, hi = gamma * (1.0 - jitter), gamma * (1.0 + jitter)
        assert [model.latency(0, 1) for _ in range(10_000)] == [
            rng.uniform(lo, hi) for _ in range(10_000)
        ]

    def test_self_message_consumes_no_draw(self):
        model = UniformJitterLatency(gamma=1.0, jitter=0.5, seed=1)
        before = model._rng.getstate()
        assert [model.latency(n, n) for n in range(5)] == [0.0] * 5
        assert model._rng.getstate() == before

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            UniformJitterLatency(gamma=1.0, jitter=1.5)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            UniformJitterLatency(gamma=0.0)


class TestHierarchicalLatency:
    def test_intra_vs_inter_cluster(self):
        model = HierarchicalLatency(
            gamma_local=0.5, gamma_remote=20.0, cluster_of=[0, 0, 1, 1]
        )
        assert model.latency(0, 1) == pytest.approx(0.5)
        assert model.latency(0, 2) == pytest.approx(20.0)
        assert model.latency(2, 3) == pytest.approx(0.5)

    def test_round_robin_assignment(self):
        model = HierarchicalLatency(num_nodes=6, num_clusters=2)
        # nodes 0,2,4 -> cluster 0; nodes 1,3,5 -> cluster 1
        assert model.latency(0, 2) == model.gamma_local
        assert model.latency(0, 1) == model.gamma_remote

    def test_self_message_is_free(self):
        model = HierarchicalLatency(num_nodes=4, num_clusters=2)
        assert model.latency(1, 1) == 0.0

    def test_requires_cluster_information(self):
        with pytest.raises(ValueError):
            HierarchicalLatency()

    def test_describe_mentions_clusters(self):
        model = HierarchicalLatency(num_nodes=4, num_clusters=2)
        assert "clusters=2" in model.describe()
