"""Scripted scenario tests for the core algorithm (Annex A behaviour)."""

import pytest

from repro.allocator import AllocatorError
from repro.core.messages import ReqRes
from repro.core.node import ProcessState

from tests.helpers import assert_all_completed, build_system, run_scripted


class TestLocalFastPath:
    def test_initial_holder_enters_cs_immediately(self):
        system = build_system("core", num_processes=3, num_resources=4)
        granted = []
        system.allocators[0].acquire({0, 1}, lambda: granted.append(system.sim.now))
        assert granted == [0.0]
        assert system.allocators[0].state is ProcessState.IN_CS

    def test_release_returns_to_idle_and_keeps_tokens(self):
        system = build_system("core", num_processes=3, num_resources=4)
        node = system.allocators[0]
        node.acquire({0, 1}, lambda: None)
        node.release()
        assert node.state is ProcessState.IDLE
        assert node.owned_tokens == frozenset({0, 1, 2, 3})

    def test_counter_consumed_locally(self):
        system = build_system("core", num_processes=2, num_resources=2)
        node = system.allocators[0]
        node.acquire({0}, lambda: None)
        assert node._my_vector[0] == 1
        assert node.last_tok[0].counter == 2
        node.release()
        node.acquire({0}, lambda: None)
        assert node._my_vector[0] == 2

    def test_acquire_while_busy_raises(self):
        system = build_system("core", num_processes=2, num_resources=2)
        node = system.allocators[0]
        node.acquire({0}, lambda: None)
        with pytest.raises(AllocatorError):
            node.acquire({1}, lambda: None)

    def test_release_when_idle_raises(self):
        system = build_system("core", num_processes=2, num_resources=2)
        with pytest.raises(AllocatorError):
            system.allocators[0].release()

    def test_invalid_resource_ids_rejected(self):
        system = build_system("core", num_processes=2, num_resources=2)
        with pytest.raises(AllocatorError):
            system.allocators[0].acquire({5}, lambda: None)
        with pytest.raises(AllocatorError):
            system.allocators[0].acquire(set(), lambda: None)


class TestRemoteAcquisition:
    def test_remote_process_obtains_tokens(self):
        system = build_system("core", num_processes=3, num_resources=2, gamma=1.0)
        metrics = run_scripted(system, [(0.0, 1, frozenset({0, 1}), 5.0)])
        assert_all_completed(metrics)
        node = system.allocators[1]
        assert node.owned_tokens == frozenset({0, 1})
        assert node.tok_dir[0] is None and node.tok_dir[1] is None

    def test_figure3_walkthrough(self):
        """3 processes, 2 resources: s1 and s3 hold one resource each in CS,
        s2 requests both and enters once both tokens reach it (Figure 3)."""
        system = build_system("core", num_processes=3, num_resources=2, gamma=1.0)
        metrics = run_scripted(
            system,
            [
                (0.0, 0, frozenset({0}), 30.0),   # s1 uses r_red
                (0.0, 2, frozenset({1}), 30.0),   # s3 uses r_blue
                (5.0, 1, frozenset({0, 1}), 10.0),  # s2 wants both
            ],
        )
        assert_all_completed(metrics)
        rec_s2 = metrics.record_for(1, 0)
        rec_s1 = metrics.record_for(0, 0)
        rec_s3 = metrics.record_for(2, 0)
        # s2 can only start after both CSs have finished.
        assert rec_s2.grant_time >= max(rec_s1.release_time, rec_s3.release_time)
        # Final topology: s2 is the root of both trees (Figure 3(c)).
        assert system.allocators[1].owned_tokens == frozenset({0, 1})

    def test_state_transitions_follow_figure2(self):
        system = build_system("core", num_processes=2, num_resources=2, gamma=1.0)
        # Process 0 holds resource 0 in CS, so process 1 must go through the
        # full waitS -> waitCS -> inCS -> idle cycle of Figure 2.
        run_scripted(
            system,
            [
                (0.0, 0, frozenset({0}), 20.0),
                (1.0, 1, frozenset({0, 1}), 5.0),
            ],
        )
        states = [
            e.details["to"]
            for e in system.trace.events(kind="state", node=1)
        ]
        assert states[:3] == ["waitS", "waitCS", "inCS"]
        assert states[3] == "idle"

    def test_waits_skips_waitcs_when_tokens_arrive_directly(self):
        """When the holder does not need the resources it ships the tokens in
        response to the counter requests, so the requester may jump from
        waitS straight to inCS (a legal transition of the pseudo-code)."""
        system = build_system("core", num_processes=2, num_resources=2, gamma=1.0)
        run_scripted(system, [(0.0, 1, frozenset({0, 1}), 5.0)])
        states = [e.details["to"] for e in system.trace.events(kind="state", node=1)]
        assert states[0] == "waitS"
        assert "inCS" in states

    def test_non_conflicting_requests_run_concurrently(self):
        """The concurrency property: disjoint requests overlap in time."""
        system = build_system("core", num_processes=3, num_resources=4, gamma=1.0)
        metrics = run_scripted(
            system,
            [
                (0.0, 1, frozenset({0, 1}), 50.0),
                (0.0, 2, frozenset({2, 3}), 50.0),
            ],
        )
        assert_all_completed(metrics)
        a = metrics.record_for(1, 0)
        b = metrics.record_for(2, 0)
        overlap_start = max(a.grant_time, b.grant_time)
        overlap_end = min(a.release_time, b.release_time)
        assert overlap_end > overlap_start, "disjoint requests should overlap"

    def test_conflicting_requests_are_serialized(self):
        system = build_system("core", num_processes=3, num_resources=2, gamma=1.0)
        metrics = run_scripted(
            system,
            [
                (0.0, 1, frozenset({0}), 20.0),
                (0.0, 2, frozenset({0}), 20.0),
            ],
        )
        assert_all_completed(metrics)
        a = metrics.record_for(1, 0)
        b = metrics.record_for(2, 0)
        assert a.release_time <= b.grant_time or b.release_time <= a.grant_time

    def test_token_uniqueness_after_quiescence(self):
        system = build_system("core", num_processes=4, num_resources=3, gamma=1.0)
        requests = [
            (float(i), p, frozenset({(p + i) % 3, (p + i + 1) % 3}), 3.0)
            for i in range(3)
            for p in range(4)
        ]
        metrics = run_scripted(system, requests)
        assert_all_completed(metrics)
        owners = {}
        for node in system.allocators:
            for r in node.owned_tokens:
                assert r not in owners, f"resource {r} owned by two nodes"
                owners[r] = node.node_id
        assert set(owners) == {0, 1, 2}

    def test_counter_values_unique_per_resource(self):
        """The counter mechanism must hand out distinct values (Section 3.3.1)."""
        system = build_system("core", num_processes=4, num_resources=1, gamma=1.0)
        marks = []
        metrics = run_scripted(
            system,
            [(float(p), p, frozenset({0}), 2.0) for p in range(4)],
        )
        assert_all_completed(metrics)
        # After quiescence the resource counter must have been bumped once
        # per request (4 requests -> counter at least 5).
        owner = [n for n in system.allocators if 0 in n.owned_tokens][0]
        assert owner.last_tok[0].counter >= 5
        del marks

    def test_single_resource_requests_many_processes(self):
        system = build_system("core", num_processes=6, num_resources=1, gamma=0.5)
        metrics = run_scripted(
            system, [(0.0, p, frozenset({0}), 4.0) for p in range(6)]
        )
        assert_all_completed(metrics)
        intervals = sorted(
            (rec.grant_time, rec.release_time) for rec in metrics.records
        )
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2

    def test_waits_do_not_depend_on_unrelated_processes(self):
        """Two disjoint pairs of conflicting processes should not interact:
        the 'no global lock' objective of the paper."""
        system = build_system("core", num_processes=5, num_resources=4, gamma=1.0)
        metrics = run_scripted(
            system,
            [
                (0.0, 1, frozenset({0}), 100.0),
                (1.0, 2, frozenset({0}), 5.0),    # conflicts with 1
                (1.0, 3, frozenset({2, 3}), 5.0),  # conflicts with nobody
            ],
        )
        assert_all_completed(metrics)
        unrelated = metrics.record_for(3, 0)
        blocked = metrics.record_for(2, 0)
        assert unrelated.waiting_time < 20.0
        assert blocked.waiting_time >= 100.0 - 5.0


class TestPriorityYield:
    def test_waiting_holder_yields_to_higher_priority_request(self):
        """A waitCS process holding a token must yield it to a request that
        precedes its own in the `/` order, and get it back afterwards."""
        system = build_system("core", num_processes=3, num_resources=3, gamma=1.0)
        # Process 0 (initial holder) takes a long CS on resource 0 only.
        # Process 1 then requests {0, 1}: it obtains token 1 but waits for 0.
        # Process 2 requests {1} later: its counter value for resource 1 is
        # higher, so its mark is higher and process 1 keeps the token.
        metrics = run_scripted(
            system,
            [
                (0.0, 0, frozenset({0}), 60.0),
                (2.0, 1, frozenset({0, 1}), 5.0),
                (10.0, 2, frozenset({1}), 5.0),
            ],
        )
        assert_all_completed(metrics)
        first = metrics.record_for(1, 0)
        second = metrics.record_for(2, 0)
        # Process 1 entered before process 2 obtained resource 1.
        assert first.grant_time <= second.grant_time

    def test_all_completed_under_heavy_conflict(self):
        system = build_system("core", num_processes=5, num_resources=2, gamma=0.5)
        requests = []
        for wave in range(3):
            for p in range(5):
                requests.append((wave * 2.0, p, frozenset({0, 1}), 3.0))
        metrics = run_scripted(system, requests, max_events=1_000_000)
        assert_all_completed(metrics)
        assert len(metrics.records) == 15


class TestSpareTokens:
    def test_spare_token_is_handed_on_when_its_arrival_lets_the_node_enter(self):
        """A token a node does not need is served before the node enters.

        Node 0 holds both tokens in its CS, with node 1's request for
        r0 and node 2's for r1 queued in them.  A stale entry of node 1
        heads r1's queue (as in a token regenerated from an old
        snapshot), so node 0's release sends r0 and r1 to node 1 in one
        envelope.  That delivery lets node 1 enter its CS for r0; r1 must
        go on to node 2 then, because ``release()`` serves only the
        tokens the CS required.
        """
        system = build_system("core", num_processes=3, num_resources=2, gamma=1.0)
        n0, n1, n2 = system.allocators
        granted = []
        n0.acquire({0, 1}, lambda: granted.append(0))
        n1.acquire({0}, lambda: granted.append(1))
        n2.acquire({1}, lambda: granted.append(2))
        system.sim.run()
        assert granted == [0]
        n0.last_tok[1].enqueue(ReqRes(1, 1, n1._cur_id, 0.0))
        n0.release()
        system.sim.run()
        assert granted == [0, 1, 2]
        assert n1.owned_tokens == frozenset({0})
        assert n2.owned_tokens == frozenset({1})
