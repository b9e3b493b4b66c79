"""Tests of the fault specs: values, validation, binding, hooks, and the network."""

import math
import pickle
import random
from dataclasses import dataclass

import pytest

from repro.experiments.scenario import canonical, content_hash
from repro.sim.faults import (
    BernoulliLoss,
    BoundBernoulliLoss,
    CompositeFaults,
    FaultSpec,
    LinkPartition,
    NoFaults,
    NodeCrash,
)
from repro.sim.latency import ConstantLatencySpec
from repro.sim.network import RTO, MessageStats, Network
from repro.sim.node import Node
from repro.workload.params import WorkloadParams

PARAMS = WorkloadParams(num_processes=6, num_resources=8, phi=2, duration=400.0, warmup=50.0)

ALL_SPECS = [
    NoFaults(),
    BernoulliLoss(p=0.1),
    BernoulliLoss(p=0.1, seed=3, kinds=("TokenEnvelope",)),
    LinkPartition(pairs=((0, 1), (2, 3)), start=10.0, end=20.0),
    NodeCrash(node=2, at=5.0),
    NodeCrash(node=2, at=5.0, recover_at=15.0),
    CompositeFaults((BernoulliLoss(p=0.2), NodeCrash(node=0, at=1.0))),
]


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


class ClampedConstantLatency(ConstantLatencySpec):
    """Constant latency that opts back into the per-link FIFO clamp.

    Exactly ``ConstantLatencySpec`` routes sends through the clamp-free
    constant send; tests that assert on the clamp table itself use this
    subclass to force the fully general send path.
    """


def make_net(sim, faults, nodes=3, gamma=1.0, latency_cls=ConstantLatencySpec):
    net = Network(sim, latency_cls(gamma=gamma), faults=faults)
    return net, [Recorder(sim, net, i) for i in range(nodes)]


class TestSpecValues:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_specs_are_frozen_picklable_hashable_values(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert content_hash(clone) == content_hash(spec)
        assert isinstance(spec, FaultSpec)

    def test_equal_specs_share_a_content_hash(self):
        assert content_hash(BernoulliLoss(p=0.05)) == content_hash(BernoulliLoss(p=0.05))
        assert content_hash(BernoulliLoss(p=0.05)) != content_hash(BernoulliLoss(p=0.06))
        assert content_hash(BernoulliLoss(p=0.05)) != content_hash(
            BernoulliLoss(p=0.05, seed=1)
        )

    def test_partition_pairs_are_normalised(self):
        """Pair order and orientation must not affect equality or keys."""
        a = LinkPartition(pairs=((1, 0), (3, 2)))
        b = LinkPartition(pairs=((2, 3), (0, 1)))
        assert a == b
        assert a.pairs == ((0, 1), (2, 3))
        assert content_hash(a) == content_hash(b)

    def test_loss_kinds_are_normalised(self):
        a = BernoulliLoss(p=0.1, kinds=("B", "A", "A"))
        b = BernoulliLoss(p=0.1, kinds=("A", "B"))
        assert a == b and a.kinds == ("A", "B")

    @pytest.mark.parametrize(
        "spec, text",
        [
            (LinkPartition(pairs=((1, 0),), start=2.0), "partition([(0, 1)], [2, inf))"),
            (
                CompositeFaults(
                    (
                        LinkPartition(pairs=((1, 0),), start=2.0),
                        LinkPartition(pairs=((2, 3),), start=1.0, end=4.5),
                    )
                ),
                "partition([(0, 1)], [2, inf)) + partition([(2, 3)], [1, 4.5))",
            ),
            (CompositeFaults(()), "no faults"),
            (
                CompositeFaults((BernoulliLoss(p=0.1), NodeCrash(node=1, at=3.0))),
                "BernoulliLoss(p=0.1, seed=0, kinds=None)"
                " + NodeCrash(node=1, at=3.0, recover_at=None)",
            ),
            # The other specs describe themselves by their repr.
            (NoFaults(), "NoFaults()"),
            (BernoulliLoss(p=0.05), "BernoulliLoss(p=0.05, seed=0, kinds=None)"),
            (
                BernoulliLoss(p=0.05, kinds=("B", "A")),
                "BernoulliLoss(p=0.05, seed=0, kinds=('A', 'B'))",
            ),
            (NodeCrash(node=1, at=3.0), "NodeCrash(node=1, at=3.0, recover_at=None)"),
            (
                NodeCrash(node=1, at=3.0, recover_at=9.5),
                "NodeCrash(node=1, at=3.0, recover_at=9.5)",
            ),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_describe_is_the_report_text(self, spec, text):
        assert spec.describe() == text


class TestValidation:
    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_loss_probability_bounds(self, p):
        with pytest.raises(ValueError, match="probability"):
            BernoulliLoss(p=p)

    def test_loss_empty_kinds_rejected(self):
        with pytest.raises(ValueError, match="kinds"):
            BernoulliLoss(p=0.1, kinds=())

    def test_partition_needs_pairs(self):
        with pytest.raises(ValueError, match="pair"):
            LinkPartition(pairs=())

    def test_partition_self_pair_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            LinkPartition(pairs=((2, 2),))

    def test_partition_window_must_be_ordered(self):
        with pytest.raises(ValueError, match="after"):
            LinkPartition(pairs=((0, 1),), start=10.0, end=10.0)

    def test_crash_recovery_must_follow_crash(self):
        with pytest.raises(ValueError, match="after"):
            NodeCrash(node=0, at=10.0, recover_at=5.0)

    def test_composite_rejects_non_specs(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            CompositeFaults((0.1,))

    def test_crash_outside_workload_rejected_at_bind(self):
        """A typo'd node id must fail loudly, not inject nothing and
        report the protocol as crash-tolerant."""
        with pytest.raises(ValueError, match="node 99"):
            NodeCrash(node=99, at=10.0).bind(PARAMS)

    def test_partition_outside_workload_rejected_at_bind(self):
        with pytest.raises(ValueError, match=f"0..{PARAMS.num_processes - 1}"):
            LinkPartition(pairs=((0, PARAMS.num_processes),)).bind(PARAMS)


class TestBind:
    def test_no_faults_binds_nothing(self):
        assert NoFaults().bind(PARAMS) is None

    def test_zero_probability_loss_binds_nothing(self):
        """p=0 keeps the network on the reliable fast path."""
        assert BernoulliLoss(p=0.0).bind(PARAMS) is None

    @pytest.mark.parametrize(
        "spec",
        [
            LinkPartition(pairs=((0, 1),), start=1.0),
            NodeCrash(node=5, at=2.0, recover_at=3.0),
            NodeCrash(node=0, at=2.0),
        ],
        ids=repr,
    )
    def test_deterministic_specs_bind_to_themselves(self, spec):
        """No second object, and a ``None`` end stays ``None`` (the key hashes it)."""
        assert spec.bind(PARAMS) is spec

    def test_loss_binds_an_rng_seeded_from_the_spec(self):
        """One draw per try: a message waits ``RTO`` per try drawn below ``p``."""
        bound = BernoulliLoss(p=0.25, seed=9).bind(PARAMS)
        assert isinstance(bound, BoundBernoulliLoss)
        assert bound.p == 0.25
        rng = random.Random(9)
        expected = []
        for _ in range(100):
            lost = 0
            while rng.random() < 0.25:
                lost += 1
            expected.append(1.0 + lost * RTO)
        stats = MessageStats()
        assert [bound.handover(0.0, 1.0, 0, 1, Ping(0), stats) for _ in range(100)] == expected
        assert stats.dropped == stats.resent == round((sum(expected) - 100.0) / RTO)

    def test_each_bind_is_a_fresh_identical_stream(self):
        """Equal specs observe identical loss sequences in any process."""
        spec = BernoulliLoss(p=0.3, seed=4)
        a, b = spec.bind(PARAMS), spec.bind(PARAMS)
        assert a is not b
        msg = object()
        seq_a = [a.handover(0.0, 1.0, 0, 1, msg, MessageStats()) for _ in range(200)]
        seq_b = [b.handover(0.0, 1.0, 0, 1, msg, MessageStats()) for _ in range(200)]
        assert seq_a == seq_b
        assert 1.0 in seq_a and max(seq_a) > 1.0

    def test_kinds_filtered_messages_consume_no_draw(self):
        bound = BernoulliLoss(p=0.5, kinds=("Ping",)).bind(PARAMS)
        before = bound._rng.getstate()
        assert bound.handover(0.0, 1.0, 0, 1, Pong(0), MessageStats()) == 1.0
        assert bound._rng.getstate() == before
        bound.handover(0.0, 1.0, 0, 1, Ping(0), MessageStats())
        assert bound._rng.getstate() != before

    def test_sure_loss_returns_never_without_a_draw(self):
        """``p == 1``: no try ever arrives, and the hook does not loop on it."""
        bound = BernoulliLoss(p=1.0).bind(PARAMS)
        before = bound._rng.getstate()
        stats = MessageStats()
        assert bound.handover(0.0, 1.0, 0, 1, Ping(0), stats) == math.inf
        assert bound._rng.getstate() == before
        assert stats.dropped == stats.resent == 0  # the network counts the loss

    def test_composite_elides_ineffective_children(self):
        assert CompositeFaults(()).bind(PARAMS) is None
        assert CompositeFaults((NoFaults(), BernoulliLoss(p=0.0))).bind(PARAMS) is None
        crash = NodeCrash(node=0, at=1.0)
        assert CompositeFaults((NoFaults(), crash)).bind(PARAMS) is crash
        both = CompositeFaults((BernoulliLoss(p=0.1), crash)).bind(PARAMS)
        assert isinstance(both, CompositeFaults)
        assert isinstance(both.specs[0], BoundBernoulliLoss) and both.specs[1] is crash

    def test_composite_bind_validates_every_child(self):
        with pytest.raises(ValueError, match="node 6"):
            CompositeFaults((BernoulliLoss(p=0.1), NodeCrash(node=6, at=1.0))).bind(PARAMS)

    def test_normalized_collapses_to_canonical_form(self):
        """Specs producing the same run must normalise to the same value."""
        assert BernoulliLoss(p=0.0).normalized(PARAMS) == NoFaults()
        assert BernoulliLoss(p=0.1).normalized(PARAMS) == BernoulliLoss(p=0.1)
        assert CompositeFaults(()).normalized(PARAMS) == NoFaults()
        assert CompositeFaults((BernoulliLoss(p=0.1),)).normalized(PARAMS) == BernoulliLoss(
            p=0.1
        )
        nested = CompositeFaults(
            (
                CompositeFaults((BernoulliLoss(p=0.1), NodeCrash(node=0, at=1.0))),
                BernoulliLoss(p=0.0),
            )
        )
        assert nested.normalized(PARAMS) == CompositeFaults(
            (BernoulliLoss(p=0.1), NodeCrash(node=0, at=1.0))
        )


def handover(spec, sent, due, src, dst):
    """``spec``'s hook for one message, with throwaway accounting."""
    return spec.handover(sent, due, src, dst, object(), MessageStats())


class TestHooks:
    def test_partition_holds_what_is_due_inside_its_window(self):
        spec = LinkPartition(pairs=((0, 1),), start=5.0, end=9.0)
        assert handover(spec, 4.0, 5.0, 0, 1) == 9.0
        assert handover(spec, 8.0, 8.9, 1, 0) == 9.0  # bidirectional
        assert handover(spec, 8.0, 9.0, 0, 1) == 9.0  # healed
        assert handover(spec, 3.0, 4.9, 0, 1) == 4.9
        assert handover(spec, 5.0, 6.0, 0, 2) == 6.0  # other link

    def test_unhealed_partition_loses_what_it_holds(self):
        spec = LinkPartition(pairs=((0, 1),), start=1.0)
        assert handover(spec, 1e12, 1e12, 0, 1) == math.inf
        assert spec.end is None

    def test_crash_loses_sends_and_holds_deliveries(self):
        spec = NodeCrash(node=2, at=3.0, recover_at=7.0)
        assert handover(spec, 4.0, 5.0, 2, 0) == math.inf  # down sender
        assert handover(spec, 2.5, 4.0, 0, 2) == 7.0  # due while down
        assert handover(spec, 2.5, 4.0, 2, 0) == 4.0  # sent before the crash
        assert handover(spec, 4.0, 5.0, 0, 1) == 5.0
        assert handover(spec, 2.0, 2.9, 2, 0) == 2.9
        assert handover(spec, 7.0, 8.0, 2, 0) == 8.0  # recovered

    def test_permanent_crash_loses_deliveries(self):
        assert handover(NodeCrash(node=2, at=3.0), 2.5, 4.0, 0, 2) == math.inf

    def test_unrecovered_crash_lasts_forever(self):
        spec = NodeCrash(node=1, at=2.0)
        assert spec.crashed(1e12)
        assert spec.crash_windows() == ((1, 2.0, math.inf),)
        assert spec.recover_at is None

    def test_crash_windows_are_float_instants(self):
        """Integral times still schedule lifecycle events at float instants."""
        (window,) = NodeCrash(node=1, at=2, recover_at=5).crash_windows()
        assert window == (1, 2.0, 5.0)
        assert all(type(t) is float for t in window[1:])

    def test_composite_loses_what_any_child_loses(self):
        layer = CompositeFaults(
            (NodeCrash(node=0, at=0.0), NodeCrash(node=1, at=0.0))
        ).bind(PARAMS)
        assert handover(layer, 1.0, 2.0, 0, 2) == math.inf
        assert handover(layer, 1.0, 2.0, 1, 2) == math.inf
        assert handover(layer, 1.0, 2.0, 2, 3) == 2.0

    @pytest.mark.parametrize("reverse", [False, True], ids=["cut-first", "crash-first"])
    def test_composite_holds_until_no_child_holds(self, reverse):
        """The cut heals at 5 inside the receiver's outage, which ends at 8."""
        children = (
            LinkPartition(pairs=((0, 1),), start=1.0, end=5.0),
            NodeCrash(node=1, at=4.0, recover_at=8.0),
        )
        layer = CompositeFaults(children[::-1] if reverse else children)
        assert handover(layer, 1.0, 2.0, 0, 1) == 8.0
        assert handover(layer, 1.0, 2.0, 0, 2) == 2.0


class TestScopeDeclarations:
    """``quiet_until()`` / ``exposed_nodes()`` of each spec and of composites.

    That the hooks honour what these declare is a property test
    (``tests/properties/test_network_properties.py``); here, what each
    spec declares.
    """

    def test_defaults_are_the_safe_ones(self):
        # A spec that overrides neither declaration is asked always,
        # about everything.
        class Legacy(FaultSpec):
            def handover(self, sent, due, src, dst, message, stats):
                return math.inf

        assert Legacy().quiet_until() == 0.0
        assert Legacy().exposed_nodes() is None
        assert BernoulliLoss(p=0.1).bind(PARAMS).quiet_until() == 0.0
        assert BernoulliLoss(p=0.1, kinds=("Ping",)).bind(PARAMS).exposed_nodes() is None

    def test_crash_names_its_node_from_its_start(self):
        spec = NodeCrash(node=4, at=2.5, recover_at=9.0)
        assert spec.quiet_until() == 2.5
        assert spec.exposed_nodes() == frozenset({4})

    def test_partition_names_every_endpoint_from_its_start(self):
        spec = LinkPartition(pairs=((0, 1), (1, 5), (3, 4)), start=2.0)
        assert spec.quiet_until() == 2.0
        assert spec.exposed_nodes() == frozenset({0, 1, 3, 4, 5})

    def test_composite_is_the_union_of_its_children(self):
        crash = NodeCrash(node=4, at=7.0)
        cut = LinkPartition(pairs=((0, 1),), start=3.0, end=5.0)
        spec = CompositeFaults((crash, CompositeFaults((cut,))))
        assert spec.quiet_until() == 3.0
        assert spec.exposed_nodes() == frozenset({0, 1, 4})

    def test_one_unscoped_child_unscopes_the_composite(self):
        layer = CompositeFaults((NodeCrash(node=4, at=7.0), BernoulliLoss(p=0.1))).bind(PARAMS)
        assert layer.quiet_until() == 0.0
        assert layer.exposed_nodes() is None

    def test_empty_composite_exposes_nothing_ever(self, sim):
        spec = CompositeFaults(())
        assert spec.quiet_until() == math.inf
        assert spec.exposed_nodes() == frozenset()
        net, nodes = make_net(sim, spec)
        net.send(0, 1, Ping(0))
        sim.run()
        assert [m.payload for _, _, m in nodes[1].received] == [0]
        assert net.stats.dropped == 0


class TestNetwork:
    def test_default_network_has_no_fault_layer(self, sim):
        net = Network(sim, ConstantLatencySpec(gamma=0.6))
        assert net.faults is None
        assert net.stats.dropped == 0

    def test_sure_loss_loses_everything_and_returns(self, sim):
        net, nodes = make_net(sim, BernoulliLoss(p=1.0).bind(PARAMS))
        assert [net.send(0, 1, Ping(i)) for i in range(5)] == [math.inf] * 5
        sim.run()
        assert nodes[1].received == []
        assert net.stats.total == 5
        assert net.stats.dropped == 5
        assert net.stats.resent == 0
        assert net.stats.dropped_by_type == {"Ping": 5}

    @pytest.mark.parametrize(
        "latency_cls", [ConstantLatencySpec, ClampedConstantLatency], ids=["constant", "general"]
    )
    def test_lost_tries_become_delay_in_fifo_order(self, sim, latency_cls):
        """Every message arrives, ``RTO`` late per lost try, behind its link."""
        net, nodes = make_net(
            sim, BernoulliLoss(p=0.5, seed=1).bind(PARAMS), latency_cls=latency_cls
        )
        returned = [net.send(0, 1, Ping(i)) for i in range(20)]
        sim.run()
        received = nodes[1].received
        assert [m.payload for _, _, m in received] == list(range(20))
        assert [t for t, _, _ in received] == returned == sorted(returned)
        assert all((t - 1.0) / RTO == round((t - 1.0) / RTO) for t in returned)
        assert returned[-1] > 1.0
        assert net.stats.dropped == net.stats.resent > 0
        assert net.stats.total == 20

    def test_no_loss_drops_nothing(self, sim):
        net, nodes = make_net(sim, BernoulliLoss(p=0.0).bind(PARAMS))
        assert net.faults is None
        for i in range(5):
            net.send(0, 1, Ping(i))
        sim.run()
        assert len(nodes[1].received) == 5
        assert net.stats.dropped == 0

    def test_kinds_filter_spares_other_types(self, sim):
        net, nodes = make_net(sim, BernoulliLoss(p=1.0, kinds=("Ping",)).bind(PARAMS))
        net.send(0, 1, Ping(1))
        net.send(0, 1, Pong(2))
        sim.run()
        assert [m for _, _, m in nodes[1].received] == [Pong(2)]
        assert net.stats.dropped == 1
        assert net.stats.dropped_by_type == {"Ping": 1}

    def test_lost_messages_do_not_advance_fifo_clamp(self, sim):
        """A message lost for good must not delay later ones on the same link."""
        net, nodes = make_net(
            sim,
            BernoulliLoss(p=1.0, kinds=("Ping",)).bind(PARAMS),
            latency_cls=ClampedConstantLatency,
        )
        net.send(0, 1, Ping(1))  # dropped
        net.send(0, 1, Pong(2))
        sim.run()
        assert nodes[1].received == [(1.0, 0, Pong(2))]
        assert net._last_delivery == {(0, 1): 1.0}

    @pytest.mark.parametrize(
        "latency_cls", [ConstantLatencySpec, ClampedConstantLatency], ids=["constant", "general"]
    )
    def test_healed_partition_delivers_what_it_held_in_fifo_order(self, sim, latency_cls):
        """gamma=1: sends at 1.5..3.0 are due inside [2, 4) and arrive at 4."""
        cut = LinkPartition(pairs=((0, 1),), start=2.0, end=4.0)
        net, nodes = make_net(sim, cut.bind(PARAMS), latency_cls=latency_cls)
        sim.schedule(0.0, net.send, 0, 1, Ping(0))  # due 1.0: delivered
        for i, at in enumerate((1.5, 2.0, 2.5, 3.0), start=1):
            sim.schedule(at, net.send, 0, 1, Ping(i))  # held until 4.0
        sim.schedule(2.5, net.send, 1, 0, Ping(5))  # reverse direction: held
        sim.schedule(3.5, net.send, 0, 1, Ping(6))  # due 4.5: healed
        sim.schedule(2.5, net.send, 0, 2, Ping(7))  # other link: delivered
        sim.run()
        assert [(t, m.payload) for t, _, m in nodes[1].received] == [
            (1.0, 0), (4.0, 1), (4.0, 2), (4.0, 3), (4.0, 4), (4.5, 6),
        ]
        assert [(t, m.payload) for t, _, m in nodes[0].received] == [(4.0, 5)]
        assert [(t, m.payload) for t, _, m in nodes[2].received] == [(3.5, 7)]
        assert net.stats.dropped == 0

    def test_unhealed_partition_loses_what_it_cuts(self, sim):
        net, nodes = make_net(sim, LinkPartition(pairs=((0, 1),), start=2.0).bind(PARAMS))
        sim.schedule(0.0, net.send, 0, 1, Ping(0))  # due 1.0: delivered
        sim.schedule(1.5, net.send, 0, 1, Ping(1))  # due 2.5: lost
        sim.run()
        assert [m.payload for _, _, m in nodes[1].received] == [0]
        assert net.stats.dropped == 1

    def test_message_to_a_blipping_node_arrives_after_its_reboot(self, sim):
        net, nodes = make_net(sim, NodeCrash(node=1, at=2.0, recover_at=5.0).bind(PARAMS))
        sim.schedule(0.5, net.send, 1, 0, Ping(0))  # before the crash: delivered
        sim.schedule(1.5, net.send, 0, 1, Ping(1))  # due 2.5, node down: held
        sim.schedule(3.0, net.send, 1, 0, Ping(2))  # down sender: lost
        sim.schedule(5.0, net.send, 0, 1, Ping(3))  # due 6.0, recovered
        sim.run()
        assert [(t, m.payload) for t, _, m in nodes[0].received] == [(1.5, 0)]
        assert [(t, m.payload) for t, _, m in nodes[1].received] == [(5.0, 1), (6.0, 3)]
        assert net.stats.dropped == 1

    def test_message_in_flight_at_a_permanent_crash_is_lost(self, sim):
        """Sent before the crash, due after it, and no reboot ever comes."""
        net, nodes = make_net(sim, NodeCrash(node=1, at=0.5))
        assert net.send(0, 1, Ping(0)) == math.inf  # sent at 0 (node up), due at 1.0
        sim.run()
        assert nodes[1].received == []
        assert net.stats.dropped == 1

    def test_any_child_of_a_composite_can_lose(self, sim):
        faults = CompositeFaults(
            (NodeCrash(node=2, at=0.0), BernoulliLoss(p=1.0, kinds=("Pong",)))
        ).bind(PARAMS)
        net, nodes = make_net(sim, faults)
        net.send(0, 1, Ping(0))  # unaffected
        net.send(0, 1, Pong(1))  # lossy kind
        net.send(0, 2, Ping(2))  # crashed receiver
        sim.run()
        assert [m.payload for _, _, m in nodes[1].received] == [0]
        assert nodes[2].received == []
        assert net.stats.dropped == 2


class TestMessageStatsAccounting:
    def test_record_dropped_tracks_type(self):
        stats = MessageStats()
        stats.record(0, Ping(1))
        stats.record_dropped(0, Ping(1))
        stats.record(1, Pong(2))
        assert stats.total == 2
        assert stats.dropped == 1
        assert stats.resent == 0
        assert dict(stats.dropped_by_type) == {"Ping": 1}
        assert stats.snapshot() == {"Ping": 1, "Pong": 1}

    def test_a_resent_try_is_a_dropped_one(self):
        stats = MessageStats()
        stats.record(0, Pong(1))
        stats.record_resent(0, Pong(1))
        stats.record_resent(0, Pong(1))
        assert (stats.total, stats.dropped, stats.resent) == (1, 2, 2)
        assert dict(stats.dropped_by_type) == {"Pong": 2}


class TestCanonicalForm:
    def test_specs_canonicalise_by_content(self):
        spec = LinkPartition(pairs=((0, 1),), start=2.0, end=4.0)
        form = canonical(spec)
        assert form[0] == "LinkPartition"
        # Integral floats canonicalise to ints, so 2.0 == 2 keys equally.
        assert canonical(LinkPartition(pairs=((0, 1),), start=2, end=4)) == form

    def test_content_hash_stable_across_processes(self):
        """Fault-spec hashes must not depend on PYTHONHASHSEED — they key
        the persistent RunCache across interpreter invocations."""
        import subprocess
        import sys

        spec = CompositeFaults(
            (
                BernoulliLoss(p=0.1, seed=3, kinds=("TokenEnvelope", "NTToken")),
                LinkPartition(pairs=((4, 2), (0, 1)), start=10.0, end=20.0),
                NodeCrash(node=2, at=5.0, recover_at=15.0),
            )
        )
        code = (
            "from repro.sim.faultspec import *\n"
            "from repro.experiments.scenario import content_hash\n"
            "spec = CompositeFaults((\n"
            "    BernoulliLoss(p=0.1, seed=3, kinds=('TokenEnvelope', 'NTToken')),\n"
            "    LinkPartition(pairs=((4, 2), (0, 1)), start=10.0, end=20.0),\n"
            "    NodeCrash(node=2, at=5.0, recover_at=15.0),\n"
            "))\n"
            "print(content_hash(spec))\n"
        )
        hashes = set()
        for hashseed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed},
                cwd=str(__import__("pathlib").Path(__file__).resolve().parents[2]),
            )
            assert proc.returncode == 0, proc.stderr
            hashes.add(proc.stdout.strip())
        hashes.add(content_hash(spec))
        assert len(hashes) == 1


def test_faultspec_re_exports_the_specs():
    from repro.sim import faults, faultspec

    assert faultspec.__all__ == faults.__all__
    assert all(getattr(faultspec, name) is getattr(faults, name) for name in faults.__all__)
