"""A core node's token snapshots (``lastTok``) and the site ids they index.

Every node keeps a stale copy of all ``M`` tokens, and each copy carries
the two obsolescence vectors ``lastReqC`` and ``lastCS`` (Figure 8): one
entry per site, so a site id must lie in ``0..N-1``.
"""

import random
import sys

import pytest

from repro.core.node import CoreAllocatorNode
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatencySpec
from repro.sim.network import Network

from tests.helpers import assert_all_completed, build_system, node_config, run_scripted


def make_node(node_id, num_processes=4, **config):
    sim = Simulator()
    network = Network(sim, ConstantLatencySpec(gamma=1.0))
    return CoreAllocatorNode(
        sim, network, node_id, num_resources=2, num_processes=num_processes,
        config=node_config(**config),
    )


class TestSiteIds:
    @pytest.mark.parametrize("node_id", [-1, 4, 7])
    def test_node_id_outside_the_sites_rejected(self, node_id):
        with pytest.raises(ValueError, match="node_id"):
            make_node(node_id)

    @pytest.mark.parametrize("holder", [4, 9])
    def test_initial_holder_outside_the_sites_rejected(self, holder):
        with pytest.raises(ValueError, match="initial_holder"):
            make_node(0, initial_holder=holder)

    def test_last_site_and_holder_accepted(self):
        node = make_node(3, initial_holder=3)
        assert node.owned_tokens == frozenset({0, 1})


class TestSnapshotFootprint:
    N, M = 8, 16

    def test_every_snapshot_holds_two_site_arrays(self):
        system = build_system("core_loan", self.N, self.M)
        rng = random.Random(7)
        script = [
            (rng.uniform(0.0, 50.0), p, frozenset(rng.sample(range(self.M), rng.randint(1, 5))), 2.0)
            for p in range(self.N)
            for _ in range(6)
        ]
        assert_all_completed(run_scripted(system, script))

        list_of_n_ints = sys.getsizeof([0] * self.N)
        served = 0
        for node in system.allocators:
            assert len(node.last_tok) == self.M
            for tok in node.last_tok:
                for vector in (tok.last_req_cnt, tok.last_cs):
                    assert type(vector) is list and len(vector) == self.N
                    assert sys.getsizeof(vector) <= list_of_n_ints
                served += any(tok.last_cs)
        # The script moved tokens, so the snapshots are not all fresh ones.
        assert served > 0
