"""Tests of the loan mechanism (Section 3.4 / 4.5)."""

import pytest

from repro.core.config import CoreConfigSpec

from tests.helpers import assert_all_completed, build_system, run_scripted

#: Scripted scenario in which a loan is useful:
#:   * process 1 first runs a tiny CS on {3}, which bumps that counter and
#:     leaves it holding token 3;
#:   * process 0 runs a long CS on {0, 1};
#:   * process 1 then asks for {0, 1, 2}: it quickly obtains token 2 (nobody
#:     needs it) but misses two resources, so it does NOT ask for a loan
#:     (threshold = 1) and waits in waitCS while *holding* token 2;
#:   * process 2 finally asks for {2, 3}: its mark is higher than process
#:     1's, so the priority rule leaves token 2 with process 1 — but after
#:     receiving token 3 it misses exactly one resource, so with the loan
#:     enabled process 1 lends token 2 and process 2 runs its CS long before
#:     process 0 finishes.
LOAN_SCENARIO = [
    (0.0, 1, frozenset({3}), 1.0),
    (0.0, 0, frozenset({0, 1}), 100.0),
    (4.0, 1, frozenset({0, 1, 2}), 10.0),
    (10.0, 2, frozenset({2, 3}), 5.0),
]


def run_loan_scenario(enable_loan: bool):
    config = CoreConfigSpec(enable_loan=enable_loan, loan_threshold=1)
    system = build_system("core", num_processes=3, num_resources=4, gamma=1.0,
                          core_config=config)
    metrics = run_scripted(system, LOAN_SCENARIO)
    assert_all_completed(metrics)
    return system, metrics


class TestLoanScenario:
    def test_loan_lets_small_request_jump_ahead(self):
        _, with_loan = run_loan_scenario(enable_loan=True)
        _, without_loan = run_loan_scenario(enable_loan=False)
        wait_with = with_loan.record_for(2, 0).waiting_time
        wait_without = without_loan.record_for(2, 0).waiting_time
        # With the loan, process 2 runs during process 0's long CS; without
        # it, it has to wait for the whole chain to unwind.
        assert wait_with < 30.0
        assert wait_without > 80.0
        assert wait_with < wait_without

    def test_loan_event_recorded_in_trace(self):
        system, _ = run_loan_scenario(enable_loan=True)
        kinds = {e.kind for e in system.trace}
        assert "loan_requested" in kinds
        assert "loan_granted" in kinds

    def test_no_loan_events_when_disabled(self):
        system, _ = run_loan_scenario(enable_loan=False)
        kinds = {e.kind for e in system.trace}
        assert "loan_requested" not in kinds
        assert "loan_granted" not in kinds

    def test_lent_tokens_return_to_lender(self):
        system, metrics = run_loan_scenario(enable_loan=True)
        # Everybody finished; the lender (process 1) must have completed its
        # CS, which requires having received token 2 back.
        assert metrics.record_for(1, 1).completed
        owners = {r: n.node_id for n in system.allocators for r in n.owned_tokens}
        assert set(owners) == {0, 1, 2, 3}

    def test_safety_preserved_with_loan(self):
        # The run_scripted collector checks mutual exclusion online; reaching
        # this point means no violation occurred in either variant.
        _, metrics = run_loan_scenario(enable_loan=True)
        assert len(metrics.records) == 4

    def test_loan_does_not_change_results_without_contention(self):
        config = CoreConfigSpec(enable_loan=True)
        system = build_system("core", num_processes=3, num_resources=6, gamma=1.0,
                              core_config=config)
        metrics = run_scripted(
            system,
            [
                (0.0, 1, frozenset({0, 1}), 5.0),
                (0.0, 2, frozenset({2, 3}), 5.0),
            ],
        )
        assert_all_completed(metrics)
        kinds = {e.kind for e in system.trace}
        assert "loan_granted" not in kinds


class TestLoanThreshold:
    def test_zero_threshold_never_asks_for_loans(self):
        config = CoreConfigSpec(enable_loan=True, loan_threshold=0)
        system = build_system("core", num_processes=3, num_resources=4, gamma=1.0,
                              core_config=config)
        metrics = run_scripted(system, LOAN_SCENARIO)
        assert_all_completed(metrics)
        assert "loan_requested" not in {e.kind for e in system.trace}

    def test_larger_threshold_allows_multi_resource_loans(self):
        """With threshold 2 the middle process (missing two resources) also
        asks for a loan; the run must stay correct and complete."""
        config = CoreConfigSpec(enable_loan=True, loan_threshold=2)
        system = build_system("core", num_processes=3, num_resources=4, gamma=1.0,
                              core_config=config)
        metrics = run_scripted(system, LOAN_SCENARIO)
        assert_all_completed(metrics)
        assert "loan_requested" in {e.kind for e in system.trace}


class TestLoanUnderLoad:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_heavy_conflict_with_loans_stays_safe_and_live(self, seed):
        import random

        rng = random.Random(seed)
        config = CoreConfigSpec(enable_loan=True, loan_threshold=1)
        system = build_system("core", num_processes=5, num_resources=4, gamma=0.5,
                              core_config=config)
        requests = []
        for wave in range(4):
            for p in range(5):
                size = rng.randint(1, 3)
                resources = frozenset(rng.sample(range(4), size))
                requests.append((wave * 5.0 + rng.random(), p, resources, 2.0 + rng.random() * 4))
        metrics = run_scripted(system, requests, max_events=2_000_000)
        assert_all_completed(metrics)
        assert len(metrics.records) == 20
