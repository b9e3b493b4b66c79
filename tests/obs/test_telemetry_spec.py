"""TelemetrySpec validation and description."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.metrics import DEFAULT_WAIT_BUCKETS_MS
from repro.obs.spec import TelemetrySpec


class TestTelemetrySpec:
    def test_defaults(self):
        spec = TelemetrySpec()
        assert spec.sample_interval == 50.0
        assert spec.node_gauges is True
        assert spec.wait_buckets == DEFAULT_WAIT_BUCKETS_MS
        assert spec.stall_after == 500.0

    def test_frozen_and_picklable(self):
        spec = TelemetrySpec(sample_interval=10.0)
        with pytest.raises(AttributeError):
            spec.sample_interval = 20.0
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="sample_interval"):
            TelemetrySpec(sample_interval=0.0)
        with pytest.raises(ValueError, match="sample_interval"):
            TelemetrySpec(sample_interval=-5.0)

    def test_stall_after_must_be_positive(self):
        with pytest.raises(ValueError, match="stall_after"):
            TelemetrySpec(stall_after=0.0)

    def test_buckets_normalised_to_tuple(self):
        spec = TelemetrySpec(wait_buckets=[1.0, 2.0])
        assert spec.wait_buckets == (1.0, 2.0)

    def test_buckets_validated(self):
        with pytest.raises(ValueError, match="not be empty"):
            TelemetrySpec(wait_buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            TelemetrySpec(wait_buckets=(2.0, 1.0))

    def test_describe(self):
        assert TelemetrySpec().describe() == "telemetry@50ms"
        full = TelemetrySpec(
            sample_interval=10.0,
            node_gauges=False,
            wait_buckets=(1.0, 2.0),
            stall_after=100.0,
        ).describe()
        assert full == "telemetry@10ms,no-node-gauges,2buckets,stall>100ms"

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
            telemetry=TelemetrySpec(sample_interval=10.0),
        ).describe()
        assert "telemetry@10ms" in text

