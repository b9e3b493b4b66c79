"""Unit tests for the scheduling functions ``A``."""

import pytest

from repro.core.config import CoreConfigSpec
from repro.core.policies import (
    MaxPolicy,
    MeanNonZeroPolicy,
    MinNonZeroPolicy,
    SumPolicy,
    available_policies,
    get_policy,
)
from repro.workload.params import WorkloadParams


def vector(m, assignments):
    v = [0] * m
    for r, value in assignments.items():
        v[r] = value
    return v


class TestMeanNonZeroPolicy:
    def test_average_of_required_counters(self):
        policy = MeanNonZeroPolicy()
        v = vector(5, {0: 2, 3: 6})
        assert policy.mark(v, {0, 3}) == pytest.approx(4.0)

    def test_zero_entries_ignored(self):
        policy = MeanNonZeroPolicy()
        v = vector(5, {0: 4})
        # resource 3 required but its counter is still 0 (not yet obtained)
        assert policy.mark(v, {0, 3}) == pytest.approx(4.0)

    def test_empty_vector_is_zero(self):
        assert MeanNonZeroPolicy().mark([0, 0, 0], {1}) == 0.0

    def test_monotone_in_counters(self):
        policy = MeanNonZeroPolicy()
        low = policy.mark(vector(3, {0: 1, 1: 2}), {0, 1})
        high = policy.mark(vector(3, {0: 5, 1: 6}), {0, 1})
        assert high > low


class TestOtherPolicies:
    def test_max_policy(self):
        assert MaxPolicy().mark(vector(4, {0: 3, 2: 9}), {0, 2}) == pytest.approx(9.0)

    def test_min_policy_ignores_zeros(self):
        assert MinNonZeroPolicy().mark(vector(4, {0: 3, 2: 9}), {0, 2, 3}) == pytest.approx(3.0)

    def test_sum_policy(self):
        assert SumPolicy().mark(vector(4, {0: 3, 2: 9}), {0, 2}) == pytest.approx(12.0)

    def test_max_and_min_empty_are_zero(self):
        assert MaxPolicy().mark([0, 0], {0}) == 0.0
        assert MinNonZeroPolicy().mark([0, 0], {0}) == 0.0


class TestRegistry:
    def test_get_policy_by_name(self):
        assert isinstance(get_policy("mean_nonzero"), MeanNonZeroPolicy)
        assert isinstance(get_policy("max"), MaxPolicy)

    def test_unknown_policy_raises_with_known_names(self):
        with pytest.raises(KeyError, match="mean_nonzero"):
            get_policy("does-not-exist")

    def test_available_policies_sorted(self):
        names = available_policies()
        assert list(names) == sorted(names)
        assert "mean_nonzero" in names

    def test_describe_returns_name(self):
        assert MeanNonZeroPolicy().describe() == "mean_nonzero"

    def test_registry_holds_the_four_policies(self):
        assert list(available_policies()) == ["max", "mean_nonzero", "min_nonzero", "sum"]

    @pytest.mark.parametrize("name", ["max", "mean_nonzero", "min_nonzero", "sum"])
    def test_reachable_through_core_config_spec(self, name):
        config = CoreConfigSpec(policy=name).build(WorkloadParams())
        assert config.policy.describe() == name


class TestRemovedPolicies:
    """The scarcity-aware ``balanced``/``weighted``/``hybrid`` policies are gone."""

    @pytest.mark.parametrize("name", ["balanced", "weighted", "hybrid"])
    def test_name_fails_fast(self, name):
        with pytest.raises(KeyError, match="mean_nonzero"):
            get_policy(name)

    @pytest.mark.parametrize("name", ["balanced", "weighted", "hybrid"])
    def test_core_config_spec_rejects_name(self, name):
        with pytest.raises(KeyError, match=name):
            CoreConfigSpec(policy=name)
