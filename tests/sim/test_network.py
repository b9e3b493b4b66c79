"""Unit tests for the FIFO reliable network."""

import math
from dataclasses import dataclass

import pytest

from repro.sim.engine import Simulator
from repro.sim.faults import BernoulliLoss, FaultSpec, LinkPartition, NodeCrash
from repro.sim.latency import ConstantLatencySpec, LatencySpec, UniformJitterLatency
from repro.sim.network import MessageStats, Network
from repro.sim.node import Node
from repro.workload.params import WorkloadParams

# The names these tests were written with: the constant latency spec and
# the crash spec are the network's latency model and fault layer.
ConstantLatency = ConstantLatencySpec
NodeCrashModel = NodeCrash

PARAMS = WorkloadParams(num_processes=8, num_resources=8, phi=2)


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
        net = Network(sim, ConstantLatency(gamma=0.6))
        Recorder(sim, net, 0)
        with pytest.raises(ValueError):
            Recorder(sim, net, 0)

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
        return net, returned, log, stats_of(net)

    @pytest.mark.parametrize(
        "make_faults, dropped",
        [
            (lambda: None, 0),
            (lambda: NodeCrashModel(node=1, at=1e9), 0),
            # Down over [2.5, 4.75): three sends by node 1 are lost, and
            # the two messages due at it inside the window (one sent
            # before the crash) are held until 4.75.
            (lambda: NodeCrashModel(node=1, at=2.5, recover_at=4.75), 3),
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
        assert stats[2] == dropped
        assert len(log) == len(SEND_SCRIPT) - dropped


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
@pytest.mark.parametrize(
    "latency",
    [ConstantLatency(gamma=1.0), ClampedConstantLatency(gamma=1.0)],
    ids=["constant-send", "general-send"],
)
class TestSendsQueueThroughTheSimulator:
    """A send takes its sequence number from the simulator when it is made.

    The engine breaks a timestamp tie by sequence number, so a delivery
    and a timer due at the same instant fire in the order they were
    queued — which a network with a counter of its own would get wrong.
    """

    @staticmethod
    def queue_beside_a_timer(scheduler, latency, send_first):
        sim = Simulator(scheduler)
        net = Network(sim, latency)
        Recorder(sim, net, 0)
        receiver = Recorder(sim, net, 1)
        fired = receiver.received = []
        if send_first:
            net.send(0, 1, Ping(99))
        sim.schedule_at(1.0, fired.append, "timer")
        if not send_first:
            net.send(0, 1, Ping(99))
        sim.run()
        return fired

    def test_a_send_before_a_timer_fires_first(self, scheduler, latency):
        fired = self.queue_beside_a_timer(scheduler, latency, send_first=True)
        assert fired == [(1.0, 0, Ping(99)), "timer"]

    def test_a_send_after_a_timer_fires_second(self, scheduler, latency):
        fired = self.queue_beside_a_timer(scheduler, latency, send_first=False)
        assert fired == ["timer", (1.0, 0, Ping(99))]


class ReferenceNetwork:
    """The network without its fast paths, kept as the oracle.

    One send for every latency model — count, draw the latency, clamp
    per link, ask ``handover``, post a dispatch through ``Node.deliver``
    — asking the hook about *every* message, whatever the model's
    ``quiet_until()`` / ``exposed_nodes()`` say, and clamping every
    message, whatever the latency model.  The production network must be
    indistinguishable from it on anything observable
    (``tests/properties/test_network_properties.py``).
    """

    def __init__(self, sim, latency, faults=None):
        self.sim = sim
        self.latency = latency
        self.faults = faults
        self.stats = MessageStats()
        self._nodes = {}
        self._last_delivery = {}

    def register(self, node):
        self._nodes[node.node_id] = node

    def send(self, src, dst, message):
        if dst not in self._nodes:
            raise KeyError(f"unknown destination node {dst}")
        self.stats.record(src, message)
        now = self.sim.now
        delivery = now + self.latency.latency(src, dst)
        delivery = max(delivery, self._last_delivery.get((src, dst), -1.0))
        if self.faults is not None:
            delivery = self.faults.handover(now, delivery, src, dst, message, self.stats)
            if delivery == math.inf:
                self.stats.record_dropped(src, message)
                return delivery
        self._last_delivery[(src, dst)] = delivery
        self.sim.schedule_at(delivery, self._nodes[dst].deliver, src, message)
        return delivery


def stats_of(net):
    """Every counter of ``net.stats`` as plain comparable values."""
    stats = net.stats
    return (
        stats.total,
        dict(stats.by_type),
        stats.dropped,
        dict(stats.dropped_by_type),
        stats.resent,
    )


def play_script(network_cls, latency, faults, script, nodes=3):
    """Schedule ``script``'s sends on a fresh network of ``network_cls``.

    Returns ``(net, returned, log)``: what each ``send`` returned, in
    script order (the string ``"KeyError"`` where it raised one), and
    the ``(time, src, dst, message)`` delivery log.
    """
    sim = Simulator()
    net = network_cls(sim, latency, faults=faults)
    log = []
    for node_id in range(nodes):
        HandlerNode(sim, net, node_id, log)
    returned = [None] * len(script)

    def send(index, src, dst, message):
        try:
            returned[index] = net.send(src, dst, message)
        except KeyError:
            returned[index] = "KeyError"

    for index, (time, src, dst, message) in enumerate(script):
        sim.schedule(time, send, index, src, dst, message)
    sim.run()
    return net, returned, log


class CountingFaults(FaultSpec):
    """Delegates to ``inner`` and counts how often its hook is asked.

    With ``scoped=False`` it declares nothing — the inherited
    ``quiet_until()`` / ``exposed_nodes()`` of a spec that does not
    narrow its scope — and must then be asked about everything.
    """

    def __init__(self, inner, scoped=True):
        self.inner = inner
        self.scoped = scoped
        self.calls = 0

    def handover(self, sent, due, src, dst, message, stats):
        self.calls += 1
        return self.inner.handover(sent, due, src, dst, message, stats)

    def quiet_until(self):
        return self.inner.quiet_until() if self.scoped else super().quiet_until()

    def exposed_nodes(self):
        return self.inner.exposed_nodes() if self.scoped else super().exposed_nodes()


def exposed_sends(faults, script, returned, latency):
    """Sends of ``script`` the fault layer has to be asked about.

    ``latency`` must be constant per link: a link's messages are then
    due in the order they are sent, so the instant a message is due is
    its send time plus its latency, whatever the clamp holds back.
    """
    quiet = faults.quiet_until()
    scope = faults.exposed_nodes()
    return sum(
        1
        for (time, src, dst, _message), delivery in zip(script, returned)
        if delivery != "KeyError"
        and time + latency.latency(src, dst) >= quiet
        and (scope is None or src in scope or dst in scope)
    )


@pytest.mark.parametrize(
    "latency_cls", [ConstantLatency, ClampedConstantLatency], ids=["constant", "general"]
)
class TestFaultLayerIsConsultedOnlyWhenExposed:
    """Hook calls are the messages that can meet a fault, on both sends."""

    def play(self, latency_cls, inner, scoped=True):
        faults = CountingFaults(inner, scoped)
        latency = latency_cls(gamma=1.0, local=0.25)
        _net, returned, _log = play_script(Network, latency, faults, SEND_SCRIPT)
        return faults, returned, latency

    @pytest.mark.parametrize(
        "inner, asked",
        [
            # Eleven messages have node 1 at one end.
            (NodeCrashModel(node=1, at=0.0, recover_at=1e9), 11),
            (NodeCrashModel(node=1, at=2.5, recover_at=4.75), 7),
            # The form the benchmark's probe uses: nobody registered 7.
            (NodeCrashModel(node=7, at=0.0), 0),
            (NodeCrashModel(node=1, at=1e9), 0),
            # Nodes 0 and 2 are named, so only 1 -> 1 self-sends are not.
            (LinkPartition(((0, 2),), start=0.0), 13),
            (LinkPartition(((0, 2),), start=3.0, end=5.0), 8),
            # Unscoped: asked about everything, and loses every Pong.
            (BernoulliLoss(p=1.0, kinds=("Pong",)).bind(PARAMS), 15),
        ],
        ids=["crash", "crash-window", "crash-unregistered", "crash-never", "partition",
             "partition-window", "loss"],
    )
    def test_hook_calls_equal_exposed_messages(self, latency_cls, inner, asked):
        faults, returned, latency = self.play(latency_cls, inner)
        assert exposed_sends(faults, SEND_SCRIPT, returned, latency) == asked
        assert faults.calls == asked

    def test_model_that_declares_no_scope_is_asked_about_everything(self, latency_cls):
        faults, _returned, _latency = self.play(
            latency_cls, NodeCrashModel(node=7, at=1e9), scoped=False
        )
        assert faults.quiet_until() == 0.0 and faults.exposed_nodes() is None
        assert faults.calls == len(SEND_SCRIPT)


class ScriptedLatency(LatencySpec):
    """Hands out the given delays in order, one per message."""

    def __init__(self, delays):
        self._delays = iter(delays)

    def latency(self, src, dst):
        return next(self._delays)


@pytest.mark.parametrize("network_cls", [Network, ReferenceNetwork])
def test_message_clamped_behind_a_held_one_waits_for_it(network_cls):
    """The FIFO clamp applies after the fault layer's delay.

    Two same-instant sends on one link: the first is due at 1.5, inside
    the receiver's outage [1.0, 3.0), and is held until 3.0; the second
    draws the shorter delay (due 0.5, before the outage) and the clamp
    holds it back behind the first.
    """
    script = [(0.0, 0, 1, Ping(0)), (0.0, 0, 1, Ping(1))]
    net, returned, log = play_script(
        network_cls,
        ScriptedLatency([1.5, 0.5]),
        NodeCrashModel(node=1, at=1.0, recover_at=3.0),
        script,
    )
    assert returned == [3.0, 3.0]
    assert log == [(3.0, 0, 1, Ping(0)), (3.0, 0, 1, Ping(1))]
    assert net.stats.dropped == 0


@pytest.mark.parametrize("network_cls", [Network, ReferenceNetwork])
def test_message_lost_for_good_holds_back_nothing(network_cls):
    """As above, but the receiver never reboots: the first message is lost."""
    script = [(0.0, 0, 1, Ping(0)), (0.0, 0, 1, Ping(1))]
    net, returned, log = play_script(
        network_cls, ScriptedLatency([1.5, 0.5]), NodeCrashModel(node=1, at=1.0), script
    )
    assert returned == [math.inf, 0.5]
    assert log == [(0.5, 0, 1, Ping(1))]
    assert net.stats.dropped == 1


class DelayFirstMessage(FaultSpec):
    """Holds the first message it is asked about back by ``delay``."""

    def __init__(self, delay):
        self.delay = delay

    def handover(self, sent, due, src, dst, message, stats):
        delay, self.delay = self.delay, 0.0
        return due + delay


@pytest.mark.parametrize(
    "latency",
    [ConstantLatency(gamma=1.0), ClampedConstantLatency(gamma=1.0)],
    ids=["constant-send", "general-send"],
)
def test_both_sends_clamp_after_the_delay(latency):
    """A delayed message holds back the rest of its link, on either send."""
    script = [(0.0, 0, 1, Ping(0)), (0.5, 0, 1, Ping(1)), (0.5, 0, 2, Ping(2))]
    _net, returned, log = play_script(Network, latency, DelayFirstMessage(10.0), script)
    assert returned == [11.0, 11.0, 1.5]
    assert log == [(1.5, 0, 2, Ping(2)), (11.0, 0, 1, Ping(0)), (11.0, 0, 1, Ping(1))]


@pytest.mark.parametrize(
    "make_latency",
    [
        lambda: ConstantLatency(gamma=1.0),
        lambda: ClampedConstantLatency(gamma=1.0),
        lambda: UniformJitterLatency(gamma=1.0, jitter=0.5, seed=3),
    ],
    ids=["constant", "general", "jitter"],
)
@pytest.mark.parametrize(
    "make_faults",
    [
        lambda: None,
        lambda: NodeCrash(node=1, at=0.0),
        lambda: BernoulliLoss(p=0.5).bind(PARAMS),
    ],
    ids=["no-faults", "crash", "loss"],
)
def test_unknown_destination_raises_before_anything_is_counted(sim, make_latency, make_faults):
    latency, faults = make_latency(), make_faults()
    rng_states = [
        model._rng.getstate() for model in (latency, faults) if hasattr(model, "_rng")
    ]
    net = Network(sim, latency, faults=faults)
    for node_id in range(3):
        Recorder(sim, net, node_id)
    with pytest.raises(KeyError, match="unknown destination node 99"):
        net.send(1, 99, Ping(0))
    assert stats_of(net) == (0, {}, 0, {}, 0)
    assert sim.pending_events == 0
    assert rng_states == [
        model._rng.getstate() for model in (latency, faults) if hasattr(model, "_rng")
    ]


def test_the_benchmark_probes_network_builds_as_it_did():
    """``benchmarks/e2e/e2ebench/probes.py`` builds its two networks from these names."""
    from repro.sim.faults import NodeCrashModel as ProbeCrash
    from repro.sim.latency import ConstantLatency as ProbeConstant

    general = Network(
        Simulator(), UniformJitterLatency(0.6, 0.4, seed=1), faults=ProbeCrash(node=3, at=0.0)
    )
    constant = Network(Simulator(), ProbeConstant(0.6))
    assert general.send.__func__ is Network._send_general
    assert general.faults == NodeCrash(node=3, at=0.0)
    assert constant.send.__func__ is Network._send_constant
    assert constant.latency == ConstantLatencySpec(gamma=0.6)


class TestFifoLane:
    """Which deliveries the constant send puts on the simulator's FIFO lane."""

    def test_two_constant_networks_on_one_simulator_deliver_in_time_order(self, sim):
        slow = Network(sim, ConstantLatency(gamma=2.0))
        fast = Network(sim, ConstantLatency(gamma=0.5))
        log = []
        for net, base in ((slow, 0), (fast, 10)):
            for node_id in (base, base + 1):
                HandlerNode(sim, net, node_id, log)
        # The first network takes the lane, the second queues on the heap.
        assert slow._post == sim._lane.append and fast._post == sim._push
        for step in range(4):
            sim.schedule_at(step * 0.75, slow.send, 0, 1, Ping(step))
            sim.schedule_at(step * 0.75, fast.send, 10, 11, Pong(step))
        sim.run()
        # Ties go to the earlier send, whichever queue holds it.
        assert [(time, message) for time, _src, _dst, message in log] == [
            (0.5, Pong(0)), (1.25, Pong(1)), (2.0, Ping(0)), (2.0, Pong(2)),
            (2.75, Ping(1)), (2.75, Pong(3)), (3.5, Ping(2)), (4.25, Ping(3)),
        ]

    def test_only_unexposed_messages_between_distinct_nodes_take_the_lane(self, sim):
        crash = NodeCrash(node=2, at=0.0, recover_at=5.0)
        net = Network(sim, ConstantLatency(gamma=1.0, local=0.25), faults=crash)
        for node_id in range(3):
            Recorder(sim, net, node_id)
        assert net.send(0, 1, Ping(0)) == 1.0  # unexposed: the lane
        assert net.send(0, 0, Ping(1)) == 0.25  # a self-send: the heap
        assert net.send(0, 2, Ping(2)) == 5.0  # exposed, held until node 2 reboots: the heap
        assert net.send(2, 1, Ping(3)) == math.inf  # exposed, from a down node: lost
        assert [entry[3][1] for entry in sim._lane] == [Ping(0)]
        assert sorted(entry[3][1].payload for entry in sim._scheduler.entries) == [1, 2]

    def test_the_calendar_leaves_the_lane_empty(self):
        sim = Simulator("calendar")
        net = Network(sim, ConstantLatency(gamma=1.0))
        Recorder(sim, net, 0)
        receiver = Recorder(sim, net, 1)
        net.send(0, 1, Ping(0))
        assert net._post == sim._push and not sim._lane and sim.pending_events == 1
        sim.run()
        assert receiver.received == [(1.0, 0, Ping(0))]
