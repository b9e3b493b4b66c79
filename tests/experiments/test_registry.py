"""Tests of the algorithm table."""

import dataclasses

import pytest

from repro.baselines.bouabdallah_laforest import BLAllocatorNode
from repro.baselines.central_scheduler import CentralSchedulerClientAllocator
from repro.baselines.incremental import IncrementalAllocatorNode
from repro.core.config import CoreConfigSpec
from repro.core.node import CoreAllocatorNode
from repro.experiments.registry import ALGORITHM_LABELS, ALGORITHMS, TABLE, get_algorithm
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatencySpec
from repro.sim.network import Network
from repro.workload.params import WorkloadParams


@pytest.fixture
def params():
    return WorkloadParams(num_processes=4, num_resources=6, phi=3,
                          duration=500.0, warmup=50.0)


def make_network(params, sim):
    """The network the runner builds by default: constant ``params.gamma``."""
    return Network(sim, ConstantLatencySpec().bind(params))


def make_allocators(algorithm, params, sim, network, config=None):
    """What the runner does with a normalised scenario's algorithm and config."""
    row = get_algorithm(algorithm)
    if config is None:
        config = row.default_config
    return row.build(config, params, sim, network, None)


class TestTable:
    def test_every_algorithm_has_a_label(self):
        assert set(ALGORITHM_LABELS) == set(ALGORITHMS)

    def test_rows_in_legend_order(self):
        assert ALGORITHMS == (
            "incremental", "bouabdallah", "without_loan", "with_loan", "shared_memory"
        )
        assert all(name == row.name for name, row in TABLE.items())

    def test_unknown_algorithm_rejected(self, params):
        sim = Simulator()
        with pytest.raises(KeyError):
            make_allocators("nope", params, sim, None)

    def test_shared_memory_needs_no_network(self, params):
        sim = Simulator()
        allocators = make_allocators("shared_memory", params, sim, None)
        assert len(allocators) == params.num_processes
        assert all(isinstance(a, CentralSchedulerClientAllocator) for a in allocators)

    def test_only_shared_memory_runs_without_a_network(self):
        assert [name for name, row in TABLE.items() if not row.needs_network] == [
            "shared_memory"
        ]

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("incremental", IncrementalAllocatorNode),
            ("bouabdallah", BLAllocatorNode),
            ("without_loan", CoreAllocatorNode),
            ("with_loan", CoreAllocatorNode),
        ],
    )
    def test_builds_expected_node_types(self, params, name, cls):
        sim = Simulator()
        network = make_network(params, sim)
        allocators = make_allocators(name, params, sim, network)
        assert len(allocators) == params.num_processes
        assert all(isinstance(a, cls) for a in allocators)

    def test_loan_flag_differs_between_variants(self, params):
        sim = Simulator()
        network = make_network(params, sim)
        with_loan = make_allocators("with_loan", params, sim, network)
        sim2 = Simulator()
        network2 = make_network(params, sim2)
        without = make_allocators("without_loan", params, sim2, network2)
        assert with_loan[0].config.enable_loan is True
        assert without[0].config.enable_loan is False

    def test_policy_and_threshold_overrides(self, params):
        sim = Simulator()
        network = make_network(params, sim)
        allocators = make_allocators(
            "with_loan", params, sim, network,
            config=CoreConfigSpec(policy="max", loan_threshold=5),
        )
        assert allocators[0].config.policy == "max"
        assert allocators[0].config.loan_threshold == 5

    def test_unset_threshold_binds_the_workload_threshold(self, params):
        params = dataclasses.replace(params, loan_threshold=3)
        sim = Simulator()
        allocators = make_allocators("with_loan", params, sim, make_network(params, sim))
        assert TABLE["with_loan"].default_config.loan_threshold is None
        assert {a.config.loan_threshold for a in allocators} == {3}

    def test_network_uses_params_gamma(self, params):
        sim = Simulator()
        network = make_network(params, sim)
        assert network.latency.latency(0, 1) == pytest.approx(params.gamma)
