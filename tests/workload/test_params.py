"""Unit tests for the experiment parameters."""

import dataclasses
import math

import pytest

from repro.workload.params import LoadLevel, WorkloadParams, cs_duration_for_size


class TestCsDuration:
    def test_single_resource_uses_alpha_min(self):
        assert cs_duration_for_size(1, 80) == pytest.approx(5.0)

    def test_full_request_uses_alpha_max(self):
        assert cs_duration_for_size(80, 80) == pytest.approx(35.0)

    def test_midpoint_interpolates(self):
        mid = cs_duration_for_size(40, 80)
        assert 5.0 < mid < 35.0

    def test_monotone_in_size(self):
        values = [cs_duration_for_size(s, 80) for s in range(1, 81)]
        assert values == sorted(values)

    def test_size_clamped_to_num_resources(self):
        assert cs_duration_for_size(200, 80) == pytest.approx(35.0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            cs_duration_for_size(0, 80)

    def test_single_resource_system(self):
        assert cs_duration_for_size(1, 1) == pytest.approx(35.0)


class TestWorkloadParams:
    def test_paper_defaults(self):
        params = WorkloadParams()
        assert params.num_processes == 32
        assert params.num_resources == 80
        assert params.gamma == pytest.approx(0.6)
        assert params.alpha_min == pytest.approx(5.0)
        assert params.alpha_max == pytest.approx(35.0)

    def test_beta_derived_from_rho(self):
        params = WorkloadParams(rho=2.0, phi=1)
        assert params.beta == pytest.approx(2.0 * (params.mean_alpha + params.gamma))

    def test_high_load_has_smaller_rho_than_medium(self):
        high = WorkloadParams(load=LoadLevel.HIGH)
        medium = WorkloadParams(load=LoadLevel.MEDIUM)
        assert high.effective_rho < medium.effective_rho

    def test_explicit_rho_overrides_load_level(self):
        params = WorkloadParams(load=LoadLevel.HIGH, rho=9.5)
        assert params.effective_rho == pytest.approx(9.5)

    def test_with_phi_returns_new_instance(self):
        base = WorkloadParams()
        other = base.with_phi(10)
        assert other.phi == 10 and base.phi == 4
        assert other is not base

    def test_with_load_resets_rho(self):
        base = WorkloadParams(rho=3.0)
        other = base.with_load(LoadLevel.HIGH)
        assert other.effective_rho == LoadLevel.HIGH.default_rho

    def test_with_seed(self):
        assert WorkloadParams().with_seed(99).seed == 99

    def test_describe_contains_key_values(self):
        text = WorkloadParams(phi=7, seed=123).describe()
        assert "phi=7" in text and "seed=123" in text

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_processes": 0},
            {"num_resources": 0},
            {"phi": 0},
            {"phi": 100, "num_resources": 80},
            {"alpha_min": 0.0},
            {"alpha_min": 40.0, "alpha_max": 30.0},
            {"alpha_min": math.nan},
            {"alpha_min": math.inf},
            {"alpha_max": math.nan},
            {"alpha_max": math.inf},
            {"gamma": -1.0},
            {"gamma": math.nan},
            {"gamma": math.inf},
            {"duration": 0.0},
            {"duration": math.nan},
            {"duration": math.inf},
            {"warmup": 30_000.0},
            {"warmup": math.nan},
            {"cs_noise": 1.5},
            {"cs_noise": math.nan},
            {"rho": -0.5},
            {"rho": math.nan},
            {"rho": math.inf},
            {"requests_per_process": 0},
            {"requests_per_process": -3},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            WorkloadParams(**kwargs)

    def test_fields_in_order(self):
        assert [f.name for f in dataclasses.fields(WorkloadParams)] == [
            "num_processes", "num_resources", "phi", "alpha_min", "alpha_max", "gamma",
            "load", "rho", "duration", "warmup", "requests_per_process", "cs_noise", "seed",
        ]

    def test_boundary_values_accepted(self):
        assert WorkloadParams(rho=0.0).effective_rho == 0.0
        assert WorkloadParams(requests_per_process=1).requests_per_process == 1

    def test_mean_alpha_grows_with_phi(self):
        small = WorkloadParams(phi=2)
        large = WorkloadParams(phi=60)
        assert large.mean_alpha > small.mean_alpha

