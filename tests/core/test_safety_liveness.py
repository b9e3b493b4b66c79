"""Randomised safety / liveness / concurrency checks for the core algorithm.

Every scenario runs through the metrics collector, which raises
``SafetyViolation`` online if two conflicting critical sections ever
overlap, and ``assert_all_completed`` verifies liveness (every request is
eventually granted and released).
"""

import random

import pytest


from tests.helpers import assert_all_completed, build_system, node_config, run_scripted


def random_workload(rng, num_processes, num_resources, waves, max_size, cs_range=(2.0, 8.0)):
    requests = []
    for wave in range(waves):
        for p in range(num_processes):
            size = rng.randint(1, max_size)
            resources = frozenset(rng.sample(range(num_resources), size))
            cs = rng.uniform(*cs_range)
            requests.append((wave * 10.0 + rng.random() * 5.0, p, resources, cs))
    return requests


@pytest.mark.parametrize("enable_loan", [False, True], ids=["without_loan", "with_loan"])
@pytest.mark.parametrize("seed", [7, 21, 42])
class TestRandomisedRuns:
    def test_safety_and_liveness(self, seed, enable_loan):
        rng = random.Random(seed)
        config = node_config(enable_loan=enable_loan)
        system = build_system("core", num_processes=6, num_resources=8, gamma=0.6,
                              core_config=config)
        requests = random_workload(rng, num_processes=6, num_resources=8,
                                   waves=4, max_size=4)
        metrics = run_scripted(system, requests, max_events=3_000_000)
        assert_all_completed(metrics)
        assert len(metrics.records) == 24

    def test_token_conservation(self, seed, enable_loan):
        """After quiescence every resource token exists exactly once."""
        rng = random.Random(seed + 100)
        config = node_config(enable_loan=enable_loan)
        system = build_system("core", num_processes=5, num_resources=6, gamma=0.4,
                              core_config=config)
        requests = random_workload(rng, num_processes=5, num_resources=6,
                                   waves=3, max_size=3)
        metrics = run_scripted(system, requests, max_events=3_000_000)
        assert_all_completed(metrics)
        ownership = {}
        for node in system.allocators:
            for r in node.owned_tokens:
                assert r not in ownership, f"token {r} duplicated"
                ownership[r] = node.node_id
        assert set(ownership) == set(range(6))
        # Nobody is left waiting.
        assert all(node.is_idle for node in system.allocators)


class TestHighContention:
    @pytest.mark.parametrize("enable_loan", [False, True])
    def test_everyone_wants_everything(self, enable_loan):
        """Worst case: every request asks for the full resource set."""
        config = node_config(enable_loan=enable_loan)
        system = build_system("core", num_processes=5, num_resources=4, gamma=0.5,
                              core_config=config)
        requests = [
            (float(wave), p, frozenset(range(4)), 2.0)
            for wave in range(3)
            for p in range(5)
        ]
        metrics = run_scripted(system, requests, max_events=3_000_000)
        assert_all_completed(metrics)
        # Full-conflict requests must be strictly serialised.
        intervals = sorted((r.grant_time, r.release_time) for r in metrics.records)
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2

    def test_gamma_zero_degenerate_latency(self):
        """A zero-latency network must still be safe and live."""
        system = build_system("core", num_processes=4, num_resources=3, gamma=0.0)
        requests = [
            (0.0, p, frozenset({p % 3, (p + 1) % 3}), 1.0) for p in range(4)
        ]
        metrics = run_scripted(system, requests, max_events=1_000_000)
        assert_all_completed(metrics)

    def test_single_process_many_sequential_requests(self):
        system = build_system("core", num_processes=2, num_resources=4, gamma=0.5)
        requests = [(0.0, 1, frozenset({i % 4, (i + 1) % 4}), 1.0) for i in range(10)]
        metrics = run_scripted(system, requests, max_events=1_000_000)
        assert_all_completed(metrics)
        assert len(metrics.records) == 10


class TestSchedulingPolicies:
    @pytest.mark.parametrize("policy", ["mean_nonzero", "max", "min_nonzero", "sum"])
    def test_all_policies_are_safe_and_live(self, policy):
        rng = random.Random(13)
        config = node_config(enable_loan=True, policy=policy)
        system = build_system("core", num_processes=5, num_resources=6, gamma=0.5,
                              core_config=config)
        requests = random_workload(rng, num_processes=5, num_resources=6,
                                   waves=3, max_size=4)
        metrics = run_scripted(system, requests, max_events=3_000_000)
        assert_all_completed(metrics)
