"""The forwarder role of ``on_RequestEnvelope`` and a pinned behaviour table.

The first class drives one node with hand-built envelopes and looks at
exactly what it sends; the second pins whole runs of the core algorithm so
that an edit to ``repro/core`` that changes behaviour fails here, by name,
instead of through a figure's trend test.
"""

import pytest

from repro.core.config import CoreConfigSpec
from repro.core.messages import ReqCnt, ReqLoan, ReqRes, RequestEnvelope
from repro.core.node import CoreAllocatorNode
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.engine import Simulator
from repro.workload.params import LoadLevel, WorkloadParams


class RecordingNetwork:
    """Stands in for ``Network``: keeps what a node sends instead of delivering it."""

    def __init__(self):
        self.sent = []

    def register(self, node):
        pass

    def send(self, src, dst, message):
        self.sent.append((src, dst, message))


def make_forwarder(node_id=5, num_resources=6):
    """A node that holds no token; every probable owner is node 0."""
    network = RecordingNetwork()
    config = CoreConfigSpec(loan_threshold=1)
    node = CoreAllocatorNode(
        Simulator(), network, node_id, num_resources, num_processes=10, config=config
    )
    return node, network


class TestForwarderRole:
    def test_multi_request_envelope(self):
        node, network = make_forwarder()
        node.tok_dir[1] = 2  # already visited by the envelope below
        node.tok_dir[2] = 3
        node.tok_dir[3] = 3
        node.tok_dir[4] = 7
        node.last_tok[0].last_cs[9] = 4
        node.last_tok[5].last_req_cnt[9] = 4
        obsolete_res = ReqRes(resource=0, sinit=9, req_id=4, mark=1.0)
        obsolete_cnt = ReqCnt(resource=5, sinit=9, req_id=4)
        to_3_first = ReqCnt(resource=2, sinit=9, req_id=5)
        stops_here = ReqRes(resource=1, sinit=8, req_id=3, mark=2.0)
        to_7 = ReqLoan(resource=4, sinit=8, req_id=3, mark=2.0, missing=frozenset({4}))
        to_3_second = ReqRes(resource=3, sinit=8, req_id=3, mark=2.0)
        visited = frozenset({9, 2})

        node.on_RequestEnvelope(
            2,
            RequestEnvelope(
                visited,
                (obsolete_res, to_3_first, obsolete_cnt, stops_here, to_7, to_3_second),
            ),
        )

        # One envelope per destination, destinations in order of first use,
        # requests in arrival order, this node added to the visited set.
        assert network.sent == [
            (5, 3, RequestEnvelope(visited | {5}, (to_3_first, to_3_second))),
            (5, 7, RequestEnvelope(visited | {5}, (to_7,))),
        ]
        # Everything live is remembered for replay, forwarded or not.
        assert {r: list(p.values()) for r, p in node._pending_req.items()} == {
            0: [], 1: [stops_here], 2: [to_3_first], 3: [to_3_second], 4: [to_7], 5: [],
        }

    def test_single_request_is_forwarded_as_received(self):
        node, network = make_forwarder()
        req = ReqRes(resource=2, sinit=9, req_id=1, mark=3.5)
        env = RequestEnvelope(frozenset({9, 4}), (req,))
        node.on_RequestEnvelope(4, env)
        [(src, dst, out)] = network.sent
        assert (src, dst) == (5, 0)
        assert out.visited == frozenset({9, 4, 5})
        assert out.requests[0] is req
        assert list(node._pending_req[2].values()) == [req]

    def test_forwarded_envelope_is_exactly_a_request_envelope(self):
        """Built positionally, yet the class dispatch and ``kinds=`` filters see."""
        node, network = make_forwarder()
        req = ReqCnt(resource=2, sinit=9, req_id=1)
        received = (req,)
        visited = frozenset({9, 4})
        node.on_RequestEnvelope(4, RequestEnvelope(visited, received))
        [(_src, _dst, out)] = network.sent
        assert type(out) is RequestEnvelope
        assert out.__class__.__name__ == "RequestEnvelope"
        # The single-request path re-sends the received tuple object itself.
        assert out.requests is received
        assert out.visited == visited | {5}
        assert isinstance(out.visited, frozenset)
        assert out == RequestEnvelope(frozenset({9, 4, 5}), (req,))

    def test_grouped_forward_splits_by_father_in_order_of_first_use(self):
        node, network = make_forwarder()
        node.tok_dir[1] = 7
        node.tok_dir[2] = 3
        node.tok_dir[3] = 7
        to_7_first = ReqRes(resource=1, sinit=9, req_id=2, mark=1.0)
        to_3 = ReqCnt(resource=2, sinit=8, req_id=4)
        to_7_second = ReqLoan(resource=3, sinit=9, req_id=2, mark=1.0, missing=frozenset({3}))
        visited = frozenset({9})

        node.on_RequestEnvelope(9, RequestEnvelope(visited, (to_7_first, to_3, to_7_second)))

        assert [(src, dst) for src, dst, _ in network.sent] == [(5, 7), (5, 3)]
        first, second = (out for _, _, out in network.sent)
        assert type(first) is type(second) is RequestEnvelope
        assert first.requests == (to_7_first, to_7_second)
        assert second.requests == (to_3,)
        assert first.requests[0] is to_7_first and first.requests[1] is to_7_second
        assert first.visited == second.visited == frozenset({9, 5})

    def test_single_request_stops_at_a_visited_father(self):
        node, network = make_forwarder()
        req = ReqCnt(resource=2, sinit=9, req_id=1)
        node.on_RequestEnvelope(0, RequestEnvelope(frozenset({9, 0}), (req,)))
        assert network.sent == []
        assert list(node._pending_req[2].values()) == [req]

    def test_repeated_request_is_remembered_once(self):
        node, network = make_forwarder()
        for _ in range(2):
            node.on_RequestEnvelope(
                4, RequestEnvelope(frozenset({9, 4}), (ReqCnt(resource=2, sinit=9, req_id=1),))
            )
        assert len(network.sent) == 2
        assert len(node._pending_req[2]) == 1


#: (algorithm, phi, seed) -> (events_processed, RequestEnvelope, CounterEnvelope,
#: TokenEnvelope messages, record_columns.content_key()) at N=8, M=20, high
#: load, 2 000 ms.  Recorded on the commit before ISSUE 14's rewrite of the
#: hot paths; re-record only for a change that means to alter behaviour.
PINNED_RUNS = {
    ("with_loan", 1, 1): (8653, 3788, 279, 1410, "e574306e8b82677f245664919baca5ca728e9b36c99863ab37fcd4b46bb63fc0"),
    ("with_loan", 1, 2): (8403, 3643, 264, 1374, "2e7ee935541920a42b4e288c4451d3e82df7580bf6a04d0ef84f561f5accf578"),
    ("with_loan", 1, 3): (8688, 3875, 299, 1398, "f2d1bcdf4e4280cd013fdbbb62f04902c5795fd752e047d5ff5761824439f0ad"),
    ("with_loan", 4, 1): (8076, 4375, 844, 1563, "c1cd7e4c1aa56d1b689b9eda9cb69470b90bff4e35ecd440368f9f739bd3017a"),
    ("with_loan", 4, 2): (8257, 4478, 835, 1594, "55e4a82b84299960f033c8847104bea6f736efc17bcc590ba08d624a249362b5"),
    ("with_loan", 4, 3): (7837, 4248, 794, 1527, "dec4d92775b55cf72e5124e3288074e7afa4134c416abf21300b9a046bc86ffa"),
    ("without_loan", 1, 1): (8653, 3788, 279, 1410, "e574306e8b82677f245664919baca5ca728e9b36c99863ab37fcd4b46bb63fc0"),
    ("without_loan", 1, 2): (8403, 3643, 264, 1374, "2e7ee935541920a42b4e288c4451d3e82df7580bf6a04d0ef84f561f5accf578"),
    ("without_loan", 1, 3): (8688, 3875, 299, 1398, "f2d1bcdf4e4280cd013fdbbb62f04902c5795fd752e047d5ff5761824439f0ad"),
    ("without_loan", 4, 1): (7281, 3809, 804, 1448, "db33e5f858d508d1627a3cf5c5e8294a119c88736175b80857f76d597ee8e315"),
    ("without_loan", 4, 2): (7564, 3942, 797, 1519, "e008a430a54c9b74e5f988018db7aac1c0812fbbba2fbc7866e17e7648f23305"),
    ("without_loan", 4, 3): (7364, 3854, 789, 1491, "962efb13e02704528c0eec0f35d3358db607a08ccb6b05504f702d9132d978b4"),
}


class TestPinnedRuns:
    @pytest.mark.parametrize("algorithm, phi, seed", sorted(PINNED_RUNS))
    def test_run_is_bit_identical_to_the_recording(self, algorithm, phi, seed):
        params = WorkloadParams(
            num_processes=8, num_resources=20, phi=phi, seed=seed,
            duration=2000.0, warmup=200.0, load=LoadLevel.HIGH,
        )
        result = run(Scenario(algorithm, params))
        by_type = result.metrics.messages_by_type
        assert (
            result.events_processed,
            by_type.get("RequestEnvelope", 0),
            by_type.get("CounterEnvelope", 0),
            by_type.get("TokenEnvelope", 0),
            result.record_columns.content_key(),
        ) == PINNED_RUNS[algorithm, phi, seed]
        assert sum(by_type.values()) == result.metrics.messages_total
