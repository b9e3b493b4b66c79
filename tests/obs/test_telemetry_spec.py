"""TelemetrySpec validation and description."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.obs.metrics import DEFAULT_WAIT_BUCKETS_MS
from repro.obs.spec import TelemetrySpec


class TestTelemetrySpec:
    def test_defaults(self):
        spec = TelemetrySpec()
        assert spec.node_gauges is True
        assert spec.wait_buckets == DEFAULT_WAIT_BUCKETS_MS
        assert spec.stall_after == 500.0

    def test_frozen_and_picklable(self):
        spec = TelemetrySpec(stall_after=10.0)
        with pytest.raises(AttributeError):
            spec.stall_after = 20.0
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stall_after": 0.0},
            {"stall_after": math.nan},
            {"stall_after": math.inf},
        ],
    )
    def test_non_positive_or_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TelemetrySpec(**kwargs)

    def test_buckets_normalised_to_tuple(self):
        spec = TelemetrySpec(wait_buckets=[1.0, 2.0])
        assert spec.wait_buckets == (1.0, 2.0)

    def test_buckets_validated(self):
        with pytest.raises(ValueError, match="not be empty"):
            TelemetrySpec(wait_buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            TelemetrySpec(wait_buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            TelemetrySpec(wait_buckets=(1.0, 1.0))

    def test_buckets_must_be_finite_and_nonempty(self):
        # A bad histogram fails when the spec is built, not mid-run.
        with pytest.raises(ValueError, match="not be empty"):
            TelemetrySpec(wait_buckets=())
        with pytest.raises(ValueError, match="finite"):
            TelemetrySpec(wait_buckets=(1.0, math.inf))
        with pytest.raises(ValueError, match="finite"):
            TelemetrySpec(wait_buckets=(math.nan,))
        with pytest.raises(ValueError, match="finite"):
            TelemetrySpec(wait_buckets=(-math.inf, 1.0))

    def test_describe(self):
        assert TelemetrySpec().describe() == "telemetry"
        full = TelemetrySpec(
            node_gauges=False,
            wait_buckets=(1.0, 2.0),
            stall_after=100.0,
        ).describe()
        assert full == "telemetry,no-node-gauges,2buckets,stall>100ms"

    def test_scenario_rejects_non_spec_values(self):
        from repro.experiments.scenario import Scenario
        from repro.workload.params import WorkloadParams

        with pytest.raises(TypeError, match="TelemetrySpec"):
            Scenario(
                algorithm="with_loan",
                params=WorkloadParams(),
                telemetry="on",
            )

    def test_scenario_describe_includes_spec(self):
        from repro.experiments.scenario import Scenario
        from repro.workload.params import WorkloadParams

        text = Scenario(
            algorithm="with_loan",
            params=WorkloadParams(),
            telemetry=TelemetrySpec(stall_after=10.0),
        ).describe()
        assert "telemetry,stall>10ms" in text

