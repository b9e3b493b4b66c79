"""Unit tests for the Naimi–Tréhel mutual-exclusion substrate."""

from __future__ import annotations

from typing import List

import pytest

from repro.mutex.naimi_trehel import MutexError, NaimiTrehelInstance, NTRequest, NTToken
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.node import Node


class MutexHost(Node):
    """Host node multiplexing one Naimi–Tréhel instance."""

    def __init__(self, sim, network, node_id, initial_holder=0):
        super().__init__(sim, network, node_id)
        self.mutex = NaimiTrehelInstance(
            instance_id="lock", node_id=node_id, send_fn=self.send, initial_holder=initial_holder
        )
        self.cs_entries: List[float] = []
        self.cs_exits: List[float] = []

    def on_NTRequest(self, src, msg):
        self.mutex.handle(src, msg)

    def on_NTToken(self, src, msg):
        self.mutex.handle(src, msg)

    def enter_and_hold(self, hold: float) -> None:
        self.mutex.request(lambda: self._entered(hold))

    def _entered(self, hold: float) -> None:
        self.cs_entries.append(self.sim.now)
        self.sim.schedule(hold, self._exit)

    def _exit(self) -> None:
        self.cs_exits.append(self.sim.now)
        self.mutex.release()


def build_hosts(sim, n, gamma=1.0):
    network = Network(sim, ConstantLatency(gamma=gamma))
    return [MutexHost(sim, network, i) for i in range(n)]


class TestBasics:
    def test_initial_holder_enters_immediately(self, sim):
        hosts = build_hosts(sim, 3)
        hosts[0].enter_and_hold(5.0)
        sim.run()
        assert hosts[0].cs_entries == [0.0]

    def test_non_holder_obtains_token_after_round_trip(self, sim):
        hosts = build_hosts(sim, 3)
        hosts[1].enter_and_hold(5.0)
        sim.run()
        # request to node 0 (1 hop) + token back (1 hop) = 2 * gamma
        assert hosts[1].cs_entries == [2.0]

    def test_release_without_cs_raises(self, sim):
        hosts = build_hosts(sim, 2)
        with pytest.raises(MutexError):
            hosts[1].mutex.release()

    def test_double_request_raises(self, sim):
        hosts = build_hosts(sim, 2)
        hosts[1].mutex.request(lambda: None)
        with pytest.raises(MutexError):
            hosts[1].mutex.request(lambda: None)

    def test_unexpected_message_raises(self, sim):
        hosts = build_hosts(sim, 2)
        with pytest.raises(MutexError):
            hosts[0].mutex.handle(1, "garbage")

    def test_package_exports_the_one_implementation(self):
        import repro.mutex

        assert sorted(repro.mutex.__all__) == [
            "MutexError", "NTRequest", "NTToken", "NaimiTrehelInstance",
        ]
        assert repro.mutex.MutexError is MutexError
        assert issubclass(MutexError, RuntimeError)


class TestMutualExclusion:
    def test_no_two_processes_in_cs_simultaneously(self, sim):
        hosts = build_hosts(sim, 5)
        for h in hosts:
            h.enter_and_hold(4.0)
        sim.run()
        intervals = []
        for h in hosts:
            assert len(h.cs_entries) == 1
            intervals.append((h.cs_entries[0], h.cs_exits[0]))
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2, "two critical sections overlap"

    def test_all_requests_eventually_satisfied(self, sim):
        hosts = build_hosts(sim, 8)
        for h in reversed(hosts):
            h.enter_and_hold(2.0)
        sim.run()
        assert all(len(h.cs_entries) == 1 for h in hosts)

    def test_repeated_cycles_by_same_pair(self, sim):
        hosts = build_hosts(sim, 2)

        def cycle(host, remaining):
            if remaining == 0:
                return
            host.mutex.request(lambda: _in_cs(host, remaining))

        def _in_cs(host, remaining):
            host.cs_entries.append(sim.now)
            sim.schedule(1.0, lambda: _leave(host, remaining))

        def _leave(host, remaining):
            host.cs_exits.append(sim.now)
            host.mutex.release()
            cycle(host, remaining - 1)

        cycle(hosts[0], 3)
        cycle(hosts[1], 3)
        sim.run()
        assert len(hosts[0].cs_entries) == 3
        assert len(hosts[1].cs_entries) == 3
        all_intervals = sorted(
            list(zip(hosts[0].cs_entries, hosts[0].cs_exits))
            + list(zip(hosts[1].cs_entries, hosts[1].cs_exits))
        )
        for (s1, e1), (s2, e2) in zip(all_intervals, all_intervals[1:]):
            assert e1 <= s2

    def test_token_holder_is_unique(self, sim):
        hosts = build_hosts(sim, 4)
        for h in hosts:
            h.enter_and_hold(1.0)
        sim.run()
        holders = [h for h in hosts if h.mutex.has_token]
        assert len(holders) == 1


class TestTokenPayload:
    def test_payload_travels_with_token(self, sim):
        hosts = build_hosts(sim, 3)
        hosts[0].mutex.token_payload = {"counter": 7}
        hosts[2].enter_and_hold(1.0)
        sim.run()
        assert hosts[2].mutex.token_payload == {"counter": 7}

    def test_on_token_received_hook(self, sim):
        network = Network(sim, ConstantLatency(gamma=1.0))
        seen = []

        class HookHost(MutexHost):
            def __init__(self, sim, network, node_id):
                Node.__init__(self, sim, network, node_id)
                self.mutex = NaimiTrehelInstance(
                    "lock", node_id, self.send, initial_holder=0,
                    on_token_received=seen.append,
                )
                self.cs_entries, self.cs_exits = [], []

        hosts = [HookHost(sim, network, i) for i in range(2)]
        hosts[0].mutex.token_payload = "payload"
        hosts[1].enter_and_hold(1.0)
        sim.run()
        assert seen == ["payload"]

    def test_payload_mutation_by_holder_propagates(self, sim):
        hosts = build_hosts(sim, 3)
        hosts[0].mutex.token_payload = [0]

        def mutate_and_release():
            hosts[1].cs_entries.append(sim.now)
            hosts[1].mutex.token_payload = [1]
            hosts[1].mutex.release()

        hosts[1].mutex.request(mutate_and_release)
        hosts[2].enter_and_hold(1.0)
        sim.run()
        assert hosts[2].mutex.token_payload == [1]
