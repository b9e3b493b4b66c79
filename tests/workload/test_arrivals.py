"""Unit tests for the open-loop arrival processes."""

import itertools
import pickle
import random
import statistics

import pytest

from repro.workload.arrivals import ArrivalSpec, MarkovModulatedArrivals, PoissonArrivals
from repro.workload.params import WorkloadParams

ALL_FAMILIES = (PoissonArrivals, MarkovModulatedArrivals)

PARAMS = WorkloadParams(num_processes=4, num_resources=8, phi=3, rho=2.0)


def take_gaps(spec, n, seed=42, params=PARAMS):
    rng = random.Random(seed)
    return list(itertools.islice(spec.gaps(rng, params), n))


class TestValidation:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_non_positive_rate_rejected(self, family):
        with pytest.raises(ValueError):
            family(rate=0.0)
        with pytest.raises(ValueError):
            family(rate=-1.0)

    def test_mmpp_parameters_validated(self):
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(burst_factor=1.0)
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(burst_fraction=0.0)
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(dwell=0.0)


class TestRateNormalisation:
    """Every family draws gaps with mean ``1/rate`` — the ablation contract."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_explicit_rate_gives_mean_gap_one_over_rate(self, family):
        spec = family(rate=0.05)  # mean gap 20 ms
        gaps = take_gaps(spec, 40_000)
        assert statistics.fmean(gaps) == pytest.approx(20.0, rel=0.1)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_default_rate_is_one_over_beta(self, family):
        spec = family()
        assert spec.mean_rate(PARAMS) == pytest.approx(1.0 / PARAMS.beta)
        gaps = take_gaps(spec, 40_000)
        assert statistics.fmean(gaps) == pytest.approx(PARAMS.beta, rel=0.1)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_gaps_are_non_negative(self, family):
        assert all(g >= 0.0 for g in take_gaps(family(rate=0.1), 2_000))


class TestShape:
    def test_mmpp_is_burstier_than_poisson(self):
        """Coefficient of variation of MMPP gaps exceeds the Poisson CV (~1)."""
        po = take_gaps(PoissonArrivals(rate=0.1), 50_000)
        mm = take_gaps(MarkovModulatedArrivals(rate=0.1, burst_factor=10.0), 50_000)
        cv = lambda xs: statistics.stdev(xs) / statistics.fmean(xs)
        assert cv(mm) > cv(po)


class TestDeterminismAndTransport:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_same_seed_same_gaps(self, family):
        spec = family(rate=0.2)
        assert take_gaps(spec, 500, seed=7) == take_gaps(spec, 500, seed=7)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_picklable_and_hashable(self, family):
        spec = family(rate=0.2)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert isinstance(spec, ArrivalSpec)
        hash(spec)  # frozen dataclasses must stay hashable
