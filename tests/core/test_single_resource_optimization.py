"""Tests of the Section 4.6.1 single-resource fast path (optional extension)."""

import random

import pytest

from repro.core.config import CoreConfigSpec

from tests.helpers import assert_all_completed, build_system, node_config, run_scripted


def config(enabled: bool) -> CoreConfigSpec:
    return node_config(enable_loan=True, single_resource_optimization=enabled)


class TestFastPath:
    def test_single_resource_request_skips_counter_phase(self):
        """With the optimisation on, the requester never enters waitS."""
        system = build_system("core", num_processes=3, num_resources=2, gamma=1.0,
                              core_config=config(True))
        metrics = run_scripted(system, [(0.0, 1, frozenset({0}), 5.0)])
        assert_all_completed(metrics)
        states = [e.details["to"] for e in system.trace.events(kind="state", node=1)]
        assert states[0] == "waitCS"
        assert "waitS" not in states

    def test_fast_path_reduces_message_count_under_contention(self):
        """When the holder is using the resource, the fast path saves the
        Counter + ReqRes exchange (2 messages) per single-resource request."""
        def run(enabled: bool):
            system = build_system("core", num_processes=3, num_resources=2, gamma=1.0,
                                  core_config=config(enabled))
            metrics = run_scripted(
                system,
                [
                    (0.0, 0, frozenset({0}), 30.0),
                    (1.0, 1, frozenset({0}), 5.0),
                ],
            )
            assert_all_completed(metrics)
            return system.network.stats.total, metrics.record_for(1, 0).waiting_time

        fast_msgs, fast_wait = run(True)
        slow_msgs, slow_wait = run(False)
        assert fast_msgs < slow_msgs
        # The waiting time is dominated by the holder's critical section in
        # both cases.
        assert fast_wait <= slow_wait + 1e-9

    def test_multi_resource_requests_unaffected(self):
        system = build_system("core", num_processes=3, num_resources=3, gamma=1.0,
                              core_config=config(True))
        metrics = run_scripted(system, [(0.0, 1, frozenset({0, 1}), 5.0)])
        assert_all_completed(metrics)
        states = [e.details["to"] for e in system.trace.events(kind="state", node=1)]
        assert states[0] == "waitS"

    def test_contended_single_resource_requests_are_serialized(self):
        system = build_system("core", num_processes=5, num_resources=1, gamma=0.5,
                              core_config=config(True))
        metrics = run_scripted(
            system, [(0.0, p, frozenset({0}), 4.0) for p in range(5)]
        )
        assert_all_completed(metrics)
        intervals = sorted((r.grant_time, r.release_time) for r in metrics.records)
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2

    @pytest.mark.parametrize("seed", [2, 11])
    def test_mixed_workload_safe_and_live(self, seed):
        rng = random.Random(seed)
        system = build_system("core", num_processes=6, num_resources=6, gamma=0.5,
                              core_config=config(True))
        requests = []
        for wave in range(4):
            for p in range(6):
                size = rng.choice([1, 1, 2, 3])   # bias towards single-resource
                resources = frozenset(rng.sample(range(6), size))
                requests.append((wave * 6.0 + rng.random(), p, resources,
                                 rng.uniform(2.0, 5.0)))
        metrics = run_scripted(system, requests, max_events=3_000_000)
        assert_all_completed(metrics)

    def test_local_single_resource_request_still_immediate(self):
        system = build_system("core", num_processes=2, num_resources=2, gamma=1.0,
                              core_config=config(True))
        granted = []
        system.allocators[0].acquire({0}, lambda: granted.append(system.sim.now))
        assert granted == [0.0]
