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
from repro.sim.network import MessageStats, Network
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
            (NoFaults(), "no faults"),
            (BernoulliLoss(p=0.05), "loss(p=0.05)"),
            (BernoulliLoss(p=0.05, kinds=("B", "A")), "loss(p=0.05, kinds=['A', 'B'])"),
            (LinkPartition(pairs=((1, 0),), start=2.0), "partition([(0, 1)], [2, inf))"),
            (NodeCrash(node=1, at=3.0), "crash(node=1, [3, inf))"),
            (NodeCrash(node=1, at=3.0, recover_at=9.5), "crash(node=1, [3, 9.5))"),
            (
                CompositeFaults((BernoulliLoss(p=0.1), NodeCrash(node=1, at=3.0))),
                "loss(p=0.1) + crash(node=1, [3, inf))",
            ),
            (CompositeFaults(()), "no faults"),
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
        bound = BernoulliLoss(p=0.25, seed=9).bind(PARAMS)
        assert isinstance(bound, BoundBernoulliLoss)
        assert bound.p == 0.25
        rng = random.Random(9)
        assert [bound.drop_on_send(0.0, 0, 1, Ping(0)) for _ in range(100)] == [
            rng.random() < 0.25 for _ in range(100)
        ]

    def test_each_bind_is_a_fresh_identical_stream(self):
        """Equal specs observe identical drop sequences in any process."""
        spec = BernoulliLoss(p=0.3, seed=4)
        a, b = spec.bind(PARAMS), spec.bind(PARAMS)
        assert a is not b
        msg = object()
        seq_a = [a.drop_on_send(0.0, 0, 1, msg) for _ in range(200)]
        seq_b = [b.drop_on_send(0.0, 0, 1, msg) for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_kinds_filtered_messages_consume_no_draw(self):
        bound = BernoulliLoss(p=1.0, kinds=("Ping",)).bind(PARAMS)
        before = bound._rng.getstate()
        assert not bound.drop_on_send(0.0, 0, 1, Pong(0))
        assert bound._rng.getstate() == before
        assert bound.drop_on_send(0.0, 0, 1, Ping(0))

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


class TestHooks:
    def test_partition_drops_inside_its_window(self):
        spec = LinkPartition(pairs=((0, 1),), start=5.0, end=9.0)
        msg = object()
        assert spec.drop_on_delivery(5.0, 0, 1, msg)
        assert spec.drop_on_delivery(8.9, 1, 0, msg)  # bidirectional
        assert not spec.drop_on_delivery(9.0, 0, 1, msg)
        assert not spec.drop_on_delivery(4.9, 0, 1, msg)
        assert not spec.drop_on_delivery(6.0, 0, 2, msg)
        assert not spec.drop_on_send(6.0, 0, 1, msg)

    def test_unhealed_partition_lasts_forever(self):
        spec = LinkPartition(pairs=((0, 1),), start=1.0)
        assert spec.drop_on_delivery(1e12, 0, 1, object())
        assert spec.end is None

    def test_crash_drops_both_ways_inside_its_window(self):
        spec = NodeCrash(node=2, at=3.0, recover_at=7.0)
        msg = object()
        assert spec.drop_on_send(4.0, 2, 0, msg)
        assert spec.drop_on_delivery(4.0, 0, 2, msg)
        assert not spec.drop_on_send(4.0, 0, 1, msg)
        assert not spec.drop_on_send(2.9, 2, 0, msg)
        assert not spec.drop_on_send(7.0, 2, 0, msg)  # recovered

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

    def test_composite_ors_children(self):
        layer = CompositeFaults(
            (NodeCrash(node=0, at=0.0), NodeCrash(node=1, at=0.0))
        ).bind(PARAMS)
        msg = object()
        assert layer.drop_on_send(1.0, 0, 2, msg)
        assert layer.drop_on_send(1.0, 1, 2, msg)
        assert not layer.drop_on_send(1.0, 2, 3, msg)


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
            def drop_on_send(self, time, src, dst, message):
                return True

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

    def test_all_loss_drops_everything(self, sim):
        net, nodes = make_net(sim, BernoulliLoss(p=1.0).bind(PARAMS))
        for i in range(5):
            net.send(0, 1, Ping(i))
        sim.run()
        assert nodes[1].received == []
        assert net.stats.total == 5
        assert net.stats.dropped == 5
        assert net.stats.dropped_by_type == {"Ping": 5}

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

    def test_dropped_messages_do_not_advance_fifo_clamp(self, sim):
        """A dropped message must not delay later ones on the same link."""
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

    def test_partition_window_checked_at_delivery_time(self, sim):
        """gamma=1: a message sent at 1.5 arrives at 2.5, inside [2, 4)."""
        cut = LinkPartition(pairs=((0, 1),), start=2.0, end=4.0)
        net, nodes = make_net(sim, cut.bind(PARAMS))
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

    def test_crashed_node_neither_sends_nor_receives(self, sim):
        net, nodes = make_net(sim, NodeCrash(node=1, at=2.0, recover_at=5.0).bind(PARAMS))
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
        net, nodes = make_net(sim, NodeCrash(node=1, at=0.5, recover_at=9.0))
        net.send(0, 1, Ping(0))  # sent at 0 (node up), arrives at 1.0 while down
        sim.run()
        assert nodes[1].received == []
        assert net.stats.dropped == 1

    def test_any_child_of_a_composite_can_drop(self, sim):
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
        assert dict(stats.dropped_by_type) == {"Ping": 1}
        assert stats.snapshot() == {"Ping": 1, "Pong": 1}



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
