"""Property-based check: no empty or mistyped envelope ever reaches the network.

``core/node.py`` assembles envelopes at four places (the forwarder, the
request flush, the two response flushes) and builds them there with
``tuple.__new__``, past the public constructors' ``ValueError``, because
at each of them a non-empty payload is structural.  This is the check
those constructors used to make once per message, made here instead on
whole random runs — crash-free and through a crash blip with a detector,
so the reboot handler's flushes and the recovery re-issues are covered —
by a ``Network`` that inspects everything handed to ``send``.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import (
    CounterEnvelope,
    CounterValue,
    ReqCnt,
    ReqLoan,
    ReqRes,
    RequestEnvelope,
    TokenEnvelope,
)
from repro.core.token import ResourceToken
from repro.experiments import Scenario, run, runner
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faultspec import NodeCrash
from repro.sim.network import Network
from repro.workload.params import LoadLevel, WorkloadParams

DURATION = 200.0

#: Derandomised for the reason given in test_termination_properties.py:
#: crash recovery has known defects that raise on rare seeds, and tier-1
#: must not find one by chance.
SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Envelope class -> (payload field, classes its elements may have).
PROMISED = {
    RequestEnvelope: ("requests", (ReqCnt, ReqRes, ReqLoan)),
    CounterEnvelope: ("counters", (CounterValue,)),
    TokenEnvelope: ("tokens", (ResourceToken,)),
}


class InspectingNetwork(Network):
    """A ``Network`` that checks every message before sending it on."""

    __slots__ = ("inspected",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.inspected = 0
        send = self.send  # bound per network; nodes bind ours after this

        def inspecting_send(src, dst, message):
            self.inspect(src, message)
            return send(src, dst, message)

        self.send = inspecting_send

    def inspect(self, src, message):
        field, element_classes = PROMISED[type(message)]
        payload = getattr(message, field)
        assert type(payload) is tuple and len(payload) >= 1, message
        assert all(type(element) in element_classes for element in payload), message
        if type(message) is RequestEnvelope:
            assert type(message.visited) is frozenset and src in message.visited, message
        self.inspected += 1


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=2, max_value=6))
    params = WorkloadParams(
        num_processes=n,
        num_resources=m,
        phi=draw(st.integers(min_value=1, max_value=min(m, 4))),
        duration=DURATION,
        warmup=20.0,
        load=draw(st.sampled_from([LoadLevel.MEDIUM, LoadLevel.HIGH])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    faults = detector = None
    if draw(st.booleans()):
        at = draw(st.floats(min_value=0.0, max_value=DURATION - 40.0, allow_nan=False))
        length = draw(st.floats(min_value=1.0, max_value=80.0, allow_nan=False))
        faults = NodeCrash(
            node=draw(st.integers(min_value=0, max_value=n - 1)), at=at, recover_at=at + length
        )
        detector = HeartbeatDetector(interval=5.0, timeout=15.0)
    return Scenario(
        algorithm=draw(st.sampled_from(["with_loan", "without_loan"])),
        params=params,
        faults=faults,
        detector=detector,
        require_all_completed=False,
    )


@given(scenarios())
@SETTINGS
def test_every_message_sent_is_a_well_formed_envelope(scenario):
    networks = []

    def inspecting_network(*args, **kwargs):
        networks.append(InspectingNetwork(*args, **kwargs))
        return networks[-1]

    with mock.patch.object(runner, "Network", inspecting_network):
        result = run(scenario)
    [network] = networks
    assert network.inspected == result.metrics.messages_total > 0
