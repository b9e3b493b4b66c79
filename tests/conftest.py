"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatencySpec
from repro.sim.network import Network
from repro.workload.params import LoadLevel, WorkloadParams


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def network(sim: Simulator) -> Network:
    """A network with a 0.5 ms constant latency attached to ``sim``."""
    return Network(sim, ConstantLatencySpec(gamma=0.5))


@pytest.fixture
def small_params() -> WorkloadParams:
    """A small, fast workload configuration used by integration tests."""
    return WorkloadParams(
        num_processes=6,
        num_resources=12,
        phi=4,
        duration=1_500.0,
        warmup=150.0,
        seed=11,
        load=LoadLevel.HIGH,
    )
