"""Unit tests for the FIFO reliable network."""

from dataclasses import dataclass

import pytest

from repro.sim.engine import Simulator
from repro.sim.faults import NodeCrashModel
from repro.sim.latency import ConstantLatency, UniformJitterLatency
from repro.sim.network import Network
from repro.sim.node import Node


@dataclass(frozen=True)
class Ping:
    payload: int


@dataclass(frozen=True)
class Pong:
    payload: int


class Recorder(Node):
    """Node recording every delivered message with its arrival time."""

    def __init__(self, sim, network, node_id):
        super().__init__(sim, network, node_id)
        self.received = []

    def deliver(self, src, message):
        self.received.append((self.sim.now, src, message))


class TestDelivery:
    def test_message_arrives_after_latency(self, sim):
        net = Network(sim, ConstantLatency(gamma=2.0))
        a = Recorder(sim, net, 0)
        b = Recorder(sim, net, 1)
        net.send(a.node_id, b.node_id, Ping(1))
        sim.run()
        assert b.received == [(2.0, 0, Ping(1))]
        assert a.received == []

    def test_unknown_destination_raises(self, sim):
        net = Network(sim, ConstantLatency(gamma=1.0))
        Recorder(sim, net, 0)
        with pytest.raises(KeyError):
            net.send(0, 99, Ping(0))

    def test_duplicate_node_id_rejected(self, sim):
        net = Network(sim, ConstantLatency())
        Recorder(sim, net, 0)
        with pytest.raises(ValueError):
            Recorder(sim, net, 0)

    def test_node_ids_sorted(self, sim):
        net = Network(sim, ConstantLatency())
        for node_id in (3, 1, 2):
            Recorder(sim, net, node_id)
        assert net.node_ids == [1, 2, 3]

    def test_send_returns_delivery_time(self, sim):
        net = Network(sim, ConstantLatency(gamma=1.5))
        Recorder(sim, net, 0)
        Recorder(sim, net, 1)
        assert net.send(0, 1, Ping(0)) == pytest.approx(1.5)


class ClampedConstantLatency(ConstantLatency):
    """Constant latency routed through the general send path.

    The network binds its clamp-free constant send only for exactly
    ``ConstantLatency`` (``type(latency) is ConstantLatency``); a subclass
    keeps deterministic delivery times while taking the general path,
    clamp table included.
    """


class TestFifoOrdering:
    def test_fifo_under_constant_latency(self, sim):
        net = Network(sim, ConstantLatency(gamma=1.0))
        a = Recorder(sim, net, 0)
        b = Recorder(sim, net, 1)
        for i in range(5):
            net.send(a.node_id, b.node_id, Ping(i))
        sim.run()
        assert [m.payload for _, _, m in b.received] == list(range(5))

    def test_fifo_enforced_under_jitter(self, sim):
        net = Network(sim, UniformJitterLatency(gamma=1.0, jitter=0.9, seed=5))
        a = Recorder(sim, net, 0)
        b = Recorder(sim, net, 1)
        for i in range(50):
            net.send(a.node_id, b.node_id, Ping(i))
        sim.run()
        payloads = [m.payload for _, _, m in b.received]
        assert payloads == list(range(50))
        times = [t for t, _, _ in b.received]
        assert times == sorted(times)

    def test_scheduled_delivery_never_decreases_per_link(self, sim):
        net = Network(sim, UniformJitterLatency(gamma=1.0, jitter=0.9, seed=11))
        a = Recorder(sim, net, 0)
        b = Recorder(sim, net, 1)
        deliveries = [net.send(a.node_id, b.node_id, Ping(i)) for i in range(100)]
        assert deliveries == sorted(deliveries)

    def test_stale_clamp_entries_are_pruned(self, sim, monkeypatch):
        monkeypatch.setattr("repro.sim.network._LAST_DELIVERY_COMPACT_THRESHOLD", 2)
        # Plain constant latency skips the clamp entirely; the subclass
        # is deterministic but exercises the clamp table.
        net = Network(sim, ClampedConstantLatency(gamma=1.0))
        for node_id in (0, 1, 2):
            Recorder(sim, net, node_id)
        net.send(0, 1, Ping(1))
        sim.run()
        # The (0, 1) entry's delivery is now in the past; the next send
        # crosses the (patched) size threshold and compacts it away.
        net.send(0, 2, Ping(2))
        assert (0, 1) not in net._last_delivery
        assert (0, 2) in net._last_delivery
        sim.run()

    def test_ineffective_compaction_backs_off(self, sim, monkeypatch):
        monkeypatch.setattr("repro.sim.network._LAST_DELIVERY_COMPACT_THRESHOLD", 2)
        net = Network(sim, ClampedConstantLatency(gamma=5.0))
        for node_id in (0, 1, 2):
            Recorder(sim, net, node_id)
        # All deliveries are far in the future, so the sweep removes
        # nothing; the threshold must back off past the live-entry count
        # instead of re-running an O(n) rebuild on every send.
        net.send(0, 1, Ping(1))
        net.send(0, 2, Ping(2))
        net.send(1, 2, Ping(3))
        assert len(net._last_delivery) == 3
        # The second send swept 2 live entries and removed none, so the
        # threshold doubled past them (2 * 2) instead of staying at 2.
        assert net._compact_at == 4
        sim.run()

    def test_pruning_preserves_fifo_under_jitter(self, sim, monkeypatch):
        monkeypatch.setattr("repro.sim.network._LAST_DELIVERY_COMPACT_THRESHOLD", 1)
        net = Network(sim, UniformJitterLatency(gamma=1.0, jitter=0.9, seed=7))
        a = Recorder(sim, net, 0)
        b = Recorder(sim, net, 1)

        def send_next(i):
            if i < 30:
                net.send(a.node_id, b.node_id, Ping(i))
                sim.schedule(0.05, send_next, i + 1)

        send_next(0)
        sim.run()
        payloads = [m.payload for _, _, m in b.received]
        assert payloads == list(range(30))
        times = [t for t, _, _ in b.received]
        assert times == sorted(times)

    def test_independent_links_do_not_block_each_other(self, sim):
        net = Network(sim, ConstantLatency(gamma=1.0))
        a = Recorder(sim, net, 0)
        b = Recorder(sim, net, 1)
        c = Recorder(sim, net, 2)
        net.send(a.node_id, b.node_id, Ping(1))
        net.send(c.node_id, b.node_id, Ping(2))
        sim.run()
        assert len(b.received) == 2


class TestStats:
    def test_total_and_per_type_counters(self, sim):
        net = Network(sim, ConstantLatency(gamma=1.0))
        Recorder(sim, net, 0)
        Recorder(sim, net, 1)
        net.send(0, 1, Ping(1))
        net.send(1, 0, Ping(2))
        net.send(0, 1, "hello")
        sim.run()
        assert net.stats.total == 3
        assert net.stats.by_type["Ping"] == 2
        assert net.stats.by_type["str"] == 1
        assert net.stats.by_sender[0] == 2

    def test_snapshot_is_plain_dict(self, sim):
        net = Network(sim, ConstantLatency(gamma=1.0))
        Recorder(sim, net, 0)
        Recorder(sim, net, 1)
        net.send(0, 1, Ping(1))
        snap = net.stats.snapshot()
        assert snap == {"Ping": 1}
        snap["Ping"] = 99
        assert net.stats.by_type["Ping"] == 1


class HandlerNode(Node):
    """Stock ``deliver``: messages reach their ``on_<ClassName>`` handler."""

    def __init__(self, sim, network, node_id, log):
        super().__init__(sim, network, node_id)
        self.log = log

    def on_Ping(self, src, message):
        self.log.append((self.sim.now, src, self.node_id, message))

    on_Pong = on_Ping


#: ``(time, src, dst, message)`` sends: several links, self-sends, two
#: message classes, same-instant bursts, and traffic to and from node 1
#: on both sides of the crash window used below (one message is in
#: flight across its start, one across its end).
SEND_SCRIPT = [
    (0.0, 0, 1, Ping(0)),
    (0.0, 0, 1, Pong(1)),
    (0.0, 1, 1, Ping(2)),
    (0.5, 2, 0, Pong(3)),
    (1.0, 1, 2, Ping(4)),
    (2.0, 0, 1, Ping(5)),
    (2.0, 2, 2, Pong(6)),
    (2.5, 1, 0, Pong(7)),
    (3.0, 1, 1, Ping(8)),
    (3.0, 2, 1, Ping(9)),
    (3.0, 0, 2, Ping(10)),
    (4.0, 0, 1, Pong(11)),
    (4.5, 1, 2, Ping(12)),
    (5.0, 2, 1, Pong(13)),
    (5.0, 2, 0, Ping(14)),
]


class TestSendBindingsAgree:
    """The constant send and the general send are the same network.

    ``Network`` binds ``send`` from the latency model's type: exactly
    ``ConstantLatency`` takes the clamp-free constant send, anything else
    (here a subclass with identical delays) the general one.  Every
    observable — ``send`` return values, what is delivered when, and the
    message accounting — must agree between the two.
    """

    @staticmethod
    def play(latency, faults):
        sim = Simulator()
        net = Network(sim, latency, faults=faults)
        log = []
        for node_id in range(3):
            HandlerNode(sim, net, node_id, log)
        returned = []
        for time, src, dst, message in SEND_SCRIPT:
            sim.schedule(time, lambda s=src, d=dst, m=message: returned.append(net.send(s, d, m)))
        sim.run()
        stats = net.stats
        return net, returned, log, (
            stats.total,
            dict(stats.by_type),
            dict(stats.by_sender),
            stats.dropped,
            dict(stats.dropped_by_type),
        )

    @pytest.mark.parametrize(
        "make_faults, dropped",
        [
            (lambda: None, 0),
            (lambda: NodeCrashModel(node=1, at=1e9), 0),
            # Down over [2.5, 4.75): three sends by node 1 and two
            # deliveries to it (one sent before the crash) are lost.
            (lambda: NodeCrashModel(node=1, at=2.5, recover_at=4.75), 5),
        ],
        ids=["no-faults", "crash-never-fires", "crash-mid-script"],
    )
    def test_constant_and_general_send_agree(self, make_faults, dropped):
        constant_net, *constant = self.play(ConstantLatency(gamma=1.0, local=0.25), make_faults())
        general_net, *general = self.play(
            ClampedConstantLatency(gamma=1.0, local=0.25), make_faults()
        )
        assert constant_net.send.__func__ is Network._send_constant
        assert general_net.send.__func__ is Network._send_general
        assert constant == general
        returned, log, stats = constant
        assert len(returned) == len(SEND_SCRIPT) == stats[0]
        assert stats[3] == dropped
        assert len(log) == len(SEND_SCRIPT) - dropped
