"""Unit tests for the node base class (dispatch, registration)."""

from dataclasses import dataclass

import pytest

from repro.sim.latency import ConstantLatencySpec
from repro.sim.network import Network
from repro.sim.node import Node


@dataclass(frozen=True)
class Hello:
    text: str


@dataclass(frozen=True)
class Unknown:
    pass


class Greeter(Node):
    def __init__(self, sim, network, node_id):
        super().__init__(sim, network, node_id)
        self.greetings = []

    def on_Hello(self, src, msg):
        self.greetings.append((src, msg.text))


class TestDispatch:
    def test_handler_invoked_by_message_class_name(self, sim):
        net = Network(sim, ConstantLatencySpec(gamma=1.0))
        a = Greeter(sim, net, 0)
        b = Greeter(sim, net, 1)
        a.send(1, Hello("hi"))
        sim.run()
        assert b.greetings == [(0, "hi")]

    def test_missing_handler_raises(self, sim):
        net = Network(sim, ConstantLatencySpec(gamma=1.0))
        a = Greeter(sim, net, 0)
        Greeter(sim, net, 1)
        a.send(1, Unknown())
        with pytest.raises(NotImplementedError, match="Unknown"):
            sim.run()

    def test_registration_happens_on_construction(self, sim):
        net = Network(sim, ConstantLatencySpec(gamma=0.6))
        sender = Greeter(sim, net, 0)
        node = Greeter(sim, net, 7)
        sender.send(7, Hello("registered"))
        sim.run()
        assert node.greetings == [(0, "registered")]

