"""Network-level tests of the live fault layer and dropped accounting."""

import math
from dataclasses import dataclass

from repro.sim.engine import Simulator
from repro.sim.faults import (
    BernoulliLossModel,
    CompositeFaultModel,
    FaultModel,
    LinkPartitionModel,
    NodeCrashModel,
)
from repro.sim.latency import ConstantLatency
from repro.sim.network import MessageStats, Network
from repro.sim.node import Node


@dataclass(frozen=True)
class Ping:
    payload: int


@dataclass(frozen=True)
class Pong:
    payload: int


class Recorder(Node):
    def __init__(self, sim, network, node_id):
        super().__init__(sim, network, node_id)
        self.received = []

    def deliver(self, src, message):
        self.received.append((self.sim.now, src, message))


class ClampedConstantLatency(ConstantLatency):
    """Constant latency that opts back into the per-link FIFO clamp.

    Exactly ``ConstantLatency`` routes sends through the clamp-free
    constant send; tests that assert on the clamp table itself use this
    subclass to force the fully general send path.
    """


def make_net(sim, faults, nodes=3, gamma=1.0, latency_cls=ConstantLatency):
    net = Network(sim, latency_cls(gamma=gamma), faults=faults)
    return net, [Recorder(sim, net, i) for i in range(nodes)]


class TestNoFaultLayer:
    def test_default_network_has_no_fault_layer(self, sim):
        net = Network(sim, ConstantLatency())
        assert net.faults is None
        assert net.stats.dropped == 0


class TestBernoulliLoss:
    def test_all_loss_drops_everything(self, sim):
        net, nodes = make_net(sim, BernoulliLossModel(p=1.0))
        for i in range(5):
            net.send(0, 1, Ping(i))
        sim.run()
        assert nodes[1].received == []
        assert net.stats.total == 5
        assert net.stats.dropped == 5
        assert net.stats.dropped_by_type == {"Ping": 5}

    def test_no_loss_drops_nothing(self, sim):
        net, nodes = make_net(sim, BernoulliLossModel(p=0.0))
        for i in range(5):
            net.send(0, 1, Ping(i))
        sim.run()
        assert len(nodes[1].received) == 5
        assert net.stats.dropped == 0

    def test_kinds_filter_spares_other_types(self, sim):
        net, nodes = make_net(sim, BernoulliLossModel(p=1.0, kinds=("Ping",)))
        net.send(0, 1, Ping(1))
        net.send(0, 1, Pong(2))
        sim.run()
        assert [m for _, _, m in nodes[1].received] == [Pong(2)]
        assert net.stats.dropped == 1
        assert net.stats.dropped_by_type == {"Ping": 1}

    def test_dropped_messages_do_not_advance_fifo_clamp(self, sim):
        """A dropped message must not delay later ones on the same link."""
        net, nodes = make_net(
            sim,
            BernoulliLossModel(p=1.0, kinds=("Ping",)),
            latency_cls=ClampedConstantLatency,
        )
        net.send(0, 1, Ping(1))  # dropped
        net.send(0, 1, Pong(2))
        sim.run()
        assert nodes[1].received == [(1.0, 0, Pong(2))]
        assert net._last_delivery == {(0, 1): 1.0}


class TestLinkPartition:
    def test_window_checked_at_delivery_time(self, sim):
        """gamma=1: a message sent at 1.5 arrives at 2.5, inside [2, 4)."""
        net, nodes = make_net(sim, LinkPartitionModel(pairs=((0, 1),), start=2.0, end=4.0))
        sim.schedule(0.0, net.send, 0, 1, Ping(0))  # arrives 1.0: delivered
        sim.schedule(1.5, net.send, 0, 1, Ping(1))  # arrives 2.5: dropped
        sim.schedule(2.5, net.send, 1, 0, Ping(2))  # reverse dir, 3.5: dropped
        sim.schedule(3.5, net.send, 0, 1, Ping(3))  # arrives 4.5: healed
        sim.schedule(2.5, net.send, 0, 2, Ping(4))  # other link: delivered
        sim.run()
        assert [m.payload for _, _, m in nodes[1].received] == [0, 3]
        assert [m.payload for _, _, m in nodes[0].received] == []
        assert [m.payload for _, _, m in nodes[2].received] == [4]
        assert net.stats.dropped == 2


class TestNodeCrash:
    def test_crashed_node_neither_sends_nor_receives(self, sim):
        net, nodes = make_net(sim, NodeCrashModel(node=1, at=2.0, recover_at=5.0))
        sim.schedule(0.5, net.send, 1, 0, Ping(0))  # before crash: delivered
        sim.schedule(1.5, net.send, 0, 1, Ping(1))  # arrives 2.5, crashed: dropped
        sim.schedule(3.0, net.send, 1, 0, Ping(2))  # crashed sender: dropped
        sim.schedule(5.0, net.send, 0, 1, Ping(3))  # arrives 6.0, recovered
        sim.run()
        assert [m.payload for _, _, m in nodes[0].received] == [0]
        assert [m.payload for _, _, m in nodes[1].received] == [3]
        assert net.stats.dropped == 2

    def test_message_in_flight_at_crash_is_lost(self, sim):
        """Sent before the crash, arriving during it: lost in flight."""
        net, nodes = make_net(sim, NodeCrashModel(node=1, at=0.5, recover_at=9.0))
        net.send(0, 1, Ping(0))  # sent at 0 (node up), arrives at 1.0 while down
        sim.run()
        assert nodes[1].received == []
        assert net.stats.dropped == 1


class TestComposite:
    def test_any_child_can_drop(self, sim):
        faults = CompositeFaultModel(
            [
                NodeCrashModel(node=2, at=0.0),
                BernoulliLossModel(p=1.0, kinds=("Pong",)),
            ]
        )
        net, nodes = make_net(sim, faults)
        net.send(0, 1, Ping(0))  # unaffected
        net.send(0, 1, Pong(1))  # lossy kind
        net.send(0, 2, Ping(2))  # crashed receiver
        sim.run()
        assert [m.payload for _, _, m in nodes[1].received] == [0]
        assert nodes[2].received == []
        assert net.stats.dropped == 2


class TestScopeDeclarations:
    """``quiet_until()`` / ``exposed_nodes()`` of each model and of composites.

    That the hooks honour what these declare is a property test
    (``tests/properties/test_network_properties.py``); here, what each
    model declares.
    """

    def test_defaults_are_the_safe_ones(self):
        # A model written before the declarations existed overrides
        # neither: it is asked always, about everything.
        class Legacy(FaultModel):
            def drop_on_send(self, time, src, dst, message):
                return True

        assert Legacy().quiet_until() == 0.0
        assert Legacy().exposed_nodes() is None
        assert BernoulliLossModel(p=0.1).quiet_until() == 0.0
        assert BernoulliLossModel(p=0.1, kinds=("Ping",)).exposed_nodes() is None

    def test_crash_names_its_node_from_its_start(self):
        model = NodeCrashModel(node=4, at=2.5, recover_at=9.0)
        assert model.quiet_until() == 2.5
        assert model.exposed_nodes() == frozenset({4})

    def test_partition_names_every_endpoint_from_its_start(self):
        model = LinkPartitionModel(pairs=((0, 1), (1, 5), (3, 3)), start=2.0, end=math.inf)
        assert model.quiet_until() == 2.0
        assert model.exposed_nodes() == frozenset({0, 1, 3, 5})
        assert LinkPartitionModel(pairs=()).exposed_nodes() == frozenset()

    def test_composite_is_the_union_of_its_children(self):
        crash = NodeCrashModel(node=4, at=7.0)
        cut = LinkPartitionModel(pairs=((0, 1),), start=3.0, end=5.0)
        model = CompositeFaultModel([crash, CompositeFaultModel([cut])])
        assert model.quiet_until() == 3.0
        assert model.exposed_nodes() == frozenset({0, 1, 4})

    def test_one_unscoped_child_unscopes_the_composite(self):
        model = CompositeFaultModel(
            [NodeCrashModel(node=4, at=7.0), BernoulliLossModel(p=0.1)]
        )
        assert model.quiet_until() == 0.0
        assert model.exposed_nodes() is None

    def test_empty_composite_exposes_nothing_ever(self, sim):
        model = CompositeFaultModel([])
        assert model.quiet_until() == math.inf
        assert model.exposed_nodes() == frozenset()
        net, nodes = make_net(sim, model)
        net.send(0, 1, Ping(0))
        sim.run()
        assert [m.payload for _, _, m in nodes[1].received] == [0]
        assert net.stats.dropped == 0


class TestMessageStatsAccounting:
    def test_record_dropped_tracks_type(self):
        stats = MessageStats()
        stats.record(0, Ping(1))
        stats.record_dropped(0, Ping(1))
        stats.record(1, Pong(2))
        assert stats.total == 2
        assert stats.dropped == 1
        assert stats.dropped_snapshot() == {"Ping": 1}
        assert stats.snapshot() == {"Ping": 1, "Pong": 1}

    def test_equality_includes_dropped_counters(self):
        a, b = MessageStats(), MessageStats()
        a.record(0, Ping(1))
        b.record(0, Ping(1))
        assert a == b
        a.record_dropped(0, Ping(1))
        assert a != b
        b.record_dropped(0, Ping(1))
        assert a == b

    def test_stats_are_hashable_consistently_with_eq(self):
        """Regression: __eq__ under __slots__ used to suppress __hash__."""
        a, b = MessageStats(), MessageStats()
        for stats in (a, b):
            stats.record(0, Ping(1))
            stats.record_dropped(0, Ping(1))
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
