"""Unit tests for the core algorithm configuration."""

import dataclasses

import pytest

from repro.core.config import CoreConfigSpec


class TestCoreConfigSpec:
    def test_defaults_match_paper_evaluation(self):
        config = CoreConfigSpec()
        assert config.enable_loan is True
        assert config.loan_threshold == 1
        assert [f.name for f in dataclasses.fields(config)] == [
            "enable_loan", "loan_threshold", "single_resource_optimization",
        ]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CoreConfigSpec(loan_threshold=-1)

    def test_describe_mentions_loan_state(self):
        assert "no-loan" in CoreConfigSpec(enable_loan=False).describe()
        assert "loan<=3" in CoreConfigSpec(loan_threshold=3).describe()
