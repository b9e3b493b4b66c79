"""Cross-algorithm integration tests.

The same seeded workload is replayed against every algorithm through the
full experiment runner; every run is checked for safety (collector) and
liveness (all requests complete), and the different protocols are compared
on basic sanity relations.
"""

import pytest

from repro.experiments.registry import ALGORITHMS
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.workload.params import LoadLevel, WorkloadParams


@pytest.fixture(scope="module")
def params():
    return WorkloadParams(
        num_processes=6,
        num_resources=12,
        phi=4,
        duration=1_200.0,
        warmup=200.0,
        seed=31,
        load=LoadLevel.HIGH,
    )


@pytest.fixture(scope="module")
def results(params):
    return {alg: run(Scenario(algorithm=alg, params=params)) for alg in ALGORITHMS}


class TestAllAlgorithms:
    def test_all_complete_their_workload(self, results):
        for algorithm, result in results.items():
            assert result.metrics.completed == result.metrics.issued, algorithm
            assert result.metrics.issued > 0, algorithm

    def test_use_rates_in_valid_range(self, results):
        for algorithm, result in results.items():
            assert 0.0 < result.use_rate <= 100.0, algorithm

    def test_waiting_times_non_negative(self, results):
        for algorithm, result in results.items():
            assert result.metrics.waiting.mean >= 0.0, algorithm
            assert result.metrics.waiting.minimum >= 0.0, algorithm

    def test_shared_memory_reference_is_not_beaten_on_waiting(self, results):
        """No message-passing protocol can wait less than the zero-cost
        centralised scheduler on the same workload (modulo scheduling noise:
        allow a small tolerance)."""
        reference = results["shared_memory"].metrics.waiting.mean
        for algorithm in ("incremental", "bouabdallah", "without_loan", "with_loan"):
            assert results[algorithm].metrics.waiting.mean >= reference * 0.9, algorithm

    def test_distributed_algorithms_exchange_messages(self, results):
        for algorithm in ("incremental", "bouabdallah", "without_loan", "with_loan"):
            assert results[algorithm].metrics.messages_total > 0, algorithm

    def test_workload_sizes_comparable_across_algorithms(self, results):
        """All algorithms run the same closed-loop duration, so the issued
        request counts should be within the same order of magnitude."""
        issued = [r.metrics.issued for r in results.values()]
        assert max(issued) <= 10 * min(issued)


class TestDeterminism:
    def test_rerun_is_bitwise_identical(self, params):
        first = run(Scenario(algorithm="with_loan", params=params))
        second = run(Scenario(algorithm="with_loan", params=params))
        assert first.metrics.waiting.mean == second.metrics.waiting.mean
        assert first.metrics.use_rate == second.metrics.use_rate
        assert first.metrics.messages_total == second.metrics.messages_total
        assert first.events_processed == second.events_processed
