"""Unit tests for the core algorithm configuration."""

import dataclasses

import pytest

from repro.core.config import CoreConfigSpec

from tests.helpers import build_system


class TestCoreConfigSpec:
    def test_defaults_match_paper_evaluation(self):
        config = CoreConfigSpec()
        assert config.enable_loan is True
        assert config.loan_threshold is None  # the workload's threshold (1 by default)
        assert config.policy == "mean_nonzero"
        assert config.initial_holder == 0
        assert len(dataclasses.fields(config)) == 5

    def test_policy_by_name(self):
        assert CoreConfigSpec(policy="max").policy == "max"
        with pytest.raises(KeyError, match="unknown scheduling policy"):
            CoreConfigSpec(policy="nope")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CoreConfigSpec(loan_threshold=-1)

    def test_negative_initial_holder_rejected(self):
        with pytest.raises(ValueError):
            CoreConfigSpec(initial_holder=-2)

    def test_describe_mentions_loan_state(self):
        assert "no-loan" in CoreConfigSpec(enable_loan=False).describe()
        assert "loan<=3" in CoreConfigSpec(loan_threshold=3).describe()

    def test_lending_node_needs_a_resolved_threshold(self):
        with pytest.raises(ValueError, match="loan_threshold"):
            build_system("core", 2, 2, core_config=CoreConfigSpec())
        system = build_system("core", 2, 2, core_config=CoreConfigSpec(enable_loan=False))
        assert len(system.allocators) == 2
