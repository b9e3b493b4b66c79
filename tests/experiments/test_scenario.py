"""Tests of the declarative Scenario spec layer."""

import dataclasses
import pickle
import subprocess
import sys

import pytest

from repro.core.config import CoreConfigSpec
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.faultspec import BernoulliLoss, NoFaults, NodeCrash
from repro.sim.latencyspec import ConstantLatencySpec, UniformJitterLatencySpec
from repro.workload.params import LoadLevel, WorkloadParams


def small_params(**kw):
    defaults = dict(num_processes=4, num_resources=8, phi=3, duration=400.0, warmup=50.0)
    defaults.update(kw)
    return WorkloadParams(**defaults)


class TestScenarioValue:
    def test_scenario_has_fourteen_fields(self):
        # How a run ended is a *result* (``ExperimentResult.termination``),
        # not configuration: the axis count stays what ROADMAP pins.
        assert len(dataclasses.fields(Scenario)) == 14

    def test_scenarios_are_picklable(self):
        scenario = Scenario(
            algorithm="with_loan",
            params=small_params(),
            config=CoreConfigSpec(loan_threshold=2),
            latency=UniformJitterLatencySpec(jitter=0.4),
            size_buckets=(1, 4, 8),
        )
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        assert clone.key() == scenario.key()

    def test_scenarios_are_frozen_values(self):
        a = Scenario(algorithm="with_loan", params=small_params())
        b = Scenario(algorithm="with_loan", params=small_params())
        # Identity for memoisation purposes is the content hash key().
        assert a == b and a.key() == b.key()
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.algorithm = "bouabdallah"

    def test_size_buckets_coerced_to_tuple(self):
        scenario = Scenario(algorithm="with_loan", params=small_params(), size_buckets=[1, 4])
        assert scenario.size_buckets == (1, 4)

    def test_unknown_algorithm_rejected_at_construction(self):
        with pytest.raises(KeyError, match="quantum"):
            Scenario(algorithm="quantum", params=small_params())

    def test_mismatched_config_type_rejected(self):
        with pytest.raises(TypeError, match="CoreConfigSpec"):
            Scenario(
                algorithm="with_loan", params=small_params(), config=ConstantLatencySpec()
            )

    @pytest.mark.parametrize("algorithm", ["bouabdallah", "incremental", "shared_memory"])
    def test_config_on_configless_algorithm_rejected(self, algorithm):
        with pytest.raises(TypeError, match="no config"):
            Scenario(algorithm=algorithm, params=small_params(), config=CoreConfigSpec())

    def test_live_latency_model_rejected(self):
        """What a jittered latency binds to for one run holds an RNG: not a spec."""
        bound = UniformJitterLatencySpec(jitter=0.3).bind(small_params())
        with pytest.raises(TypeError, match="LatencySpec .*bound to one run"):
            Scenario(algorithm="with_loan", params=small_params(), latency=bound)

    def test_live_fault_model_rejected(self):
        """What a Bernoulli loss binds to for one run holds an RNG: not a spec."""
        bound = BernoulliLoss(p=0.1).bind(small_params())
        with pytest.raises(TypeError, match="FaultSpec .*bound to one run"):
            Scenario(algorithm="with_loan", params=small_params(), faults=bound)

    def test_non_spec_detector_rejected(self):
        with pytest.raises(TypeError, match="DetectorSpec"):
            Scenario(algorithm="with_loan", params=small_params(), detector=40.0)


class TestScenarioKey:
    def test_key_stable_across_pickling(self):
        scenario = Scenario(algorithm="with_loan", params=small_params(), size_buckets=(1, 4))
        assert pickle.loads(pickle.dumps(scenario)).key() == scenario.key()

    def test_key_normalises_defaults(self):
        implicit = Scenario(algorithm="with_loan", params=small_params())
        explicit = Scenario(
            algorithm="with_loan",
            params=small_params(),
            config=CoreConfigSpec(enable_loan=True),
            latency=ConstantLatencySpec(),
        )
        assert implicit.key() == explicit.key()

    @pytest.mark.parametrize("threshold", [0, 2])
    def test_loan_threshold_is_part_of_the_key(self, threshold):
        """The config is the threshold's one home: another value is another run."""
        default = Scenario(algorithm="with_loan", params=small_params())
        other = default.replace(config=CoreConfigSpec(loan_threshold=threshold))
        assert other.key() != default.key()
        assert default.normalized().config.loan_threshold == 1

    def test_key_ignores_latency_on_networkless_algorithm(self):
        plain = Scenario(algorithm="shared_memory", params=small_params())
        with_latency = Scenario(
            algorithm="shared_memory", params=small_params(), latency=ConstantLatencySpec()
        )
        assert plain.key() == with_latency.key()

    def test_key_normalises_fault_default(self):
        """faults=None and faults=NoFaults() are the same run — same key."""
        implicit = Scenario(algorithm="with_loan", params=small_params())
        explicit = Scenario(algorithm="with_loan", params=small_params(), faults=NoFaults())
        assert implicit.key() == explicit.key()
        assert implicit.normalized().faults == NoFaults()

    def test_key_ignores_faults_on_networkless_algorithm(self):
        plain = Scenario(algorithm="shared_memory", params=small_params())
        with_faults = Scenario(
            algorithm="shared_memory", params=small_params(), faults=BernoulliLoss(p=0.1)
        )
        assert plain.key() == with_faults.key()
        assert with_faults.normalized().faults is None

    def test_ineffective_fault_specs_share_the_no_fault_key(self):
        """BernoulliLoss(p=0) injects nothing, so it is the same run as
        NoFaults and must hit the same cache entry."""
        base = Scenario(algorithm="with_loan", params=small_params())
        zero_loss = base.replace(faults=BernoulliLoss(p=0.0))
        assert zero_loss.key() == base.key()
        assert zero_loss.normalized().faults == NoFaults()
        assert base.replace(faults=BernoulliLoss(p=0.05)).key() != base.key()

    def test_single_child_composite_shares_the_bare_spec_key(self):
        """CompositeFaults((spec,)) runs exactly as spec does — one key."""
        from repro.sim.faultspec import CompositeFaults

        base = Scenario(algorithm="with_loan", params=small_params())
        bare = base.replace(faults=BernoulliLoss(p=0.05))
        wrapped = base.replace(faults=CompositeFaults((BernoulliLoss(p=0.05),)))
        doubly = base.replace(
            faults=CompositeFaults((CompositeFaults((BernoulliLoss(p=0.05),)), NoFaults()))
        )
        assert wrapped.key() == bare.key()
        assert doubly.key() == bare.key()
        assert base.replace(faults=CompositeFaults(())).key() == base.key()

    def test_fault_spec_outside_workload_fails_fast_at_key_time(self):
        base = Scenario(algorithm="with_loan", params=small_params())
        with pytest.raises(ValueError, match="node 99"):
            base.replace(faults=NodeCrash(node=99, at=10.0)).key()

    def test_key_distinguishes_fault_specs(self):
        base = Scenario(algorithm="with_loan", params=small_params())
        keys = {
            base.key(),
            base.replace(faults=BernoulliLoss(p=0.05)).key(),
            base.replace(faults=BernoulliLoss(p=0.05, seed=2)).key(),
            base.replace(faults=NodeCrash(node=1, at=100.0)).key(),
        }
        assert len(keys) == 4

    def test_key_insensitive_to_int_float_spelling(self):
        """Regression: canonical() used to key 4 and 4.0 differently, so
        identical runs missed the in-memory and persistent RunCache."""
        base = Scenario(algorithm="with_loan", params=small_params())
        assert base.replace(phi=2).key() == base.replace(phi=2.0).key()
        assert base.replace(duration=300).key() == base.replace(duration=300.0).key()
        assert base.replace(gamma=1).key() == base.replace(gamma=1.0).key()

    def test_canonical_normalises_equal_numbers(self):
        from repro.experiments.scenario import canonical

        assert canonical(4) == canonical(4.0) == 4
        assert canonical(True) == canonical(1) == canonical(1.0) == 1
        assert canonical(False) == canonical(0) == 0
        assert canonical(0.5) == 0.5  # non-integral floats keep their value
        assert canonical((4.0, {"x": 2.0})) == canonical((4, {"x": 2}))

    def test_key_differs_for_different_scenarios(self):
        base = small_params()
        keys = {
            Scenario(algorithm="with_loan", params=base).key(),
            Scenario(algorithm="without_loan", params=base).key(),
            Scenario(algorithm="with_loan", params=base.with_seed(2)).key(),
            Scenario(algorithm="with_loan", params=base,
                     config=CoreConfigSpec(loan_threshold=2)).key(),
            Scenario(algorithm="with_loan", params=base,
                     latency=UniformJitterLatencySpec(jitter=0.3)).key(),
            Scenario(algorithm="with_loan", params=base, size_buckets=(1, 4)).key(),
        }
        assert len(keys) == 6

    def test_key_stable_across_processes(self):
        """The content hash must not depend on the interpreter instance.

        PYTHONHASHSEED randomises ``hash()`` per process, and with it the
        iteration order of the set of loss kinds below; the scenario key
        must survive it, or the on-disk cache would never hit.
        """
        program = (
            "from repro.core.config import CoreConfigSpec\n"
            "from repro.experiments.scenario import Scenario\n"
            "from repro.sim.faultspec import BernoulliLoss\n"
            "from repro.workload.params import WorkloadParams\n"
            "s = Scenario(algorithm='with_loan', params=WorkloadParams(\n"
            "    num_processes=4, num_resources=8, phi=3, duration=400.0,\n"
            "    warmup=50.0), config=CoreConfigSpec(loan_threshold=2),\n"
            "    faults=BernoulliLoss(p=0.05, kinds={'ReqRes', 'ReqCnt', 'CounterValue'}))\n"
            "print(s.key())\n"
        )
        keys = set()
        for hashseed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed},
                cwd=str(__import__("pathlib").Path(__file__).resolve().parents[2]),
            )
            assert proc.returncode == 0, proc.stderr
            keys.add(proc.stdout.strip())
        local = Scenario(
            algorithm="with_loan",
            params=small_params(),
            config=CoreConfigSpec(loan_threshold=2),
            faults=BernoulliLoss(p=0.05, kinds={"ReqRes", "ReqCnt", "CounterValue"}),
        ).key()
        assert keys == {local}


class TestScenarioSweep:
    def test_sweep_is_row_major_in_axis_order(self):
        base = Scenario(algorithm="with_loan", params=small_params())
        grid = base.sweep(algorithm=("with_loan", "bouabdallah"), phi=(1, 2), seed=(1, 2))
        assert len(grid) == 8
        assert [(s.algorithm, s.params.phi, s.params.seed) for s in grid[:4]] == [
            ("with_loan", 1, 1),
            ("with_loan", 1, 2),
            ("with_loan", 2, 1),
            ("with_loan", 2, 2),
        ]
        assert grid[4].algorithm == "bouabdallah"

    def test_sweep_over_scenario_and_params_axes(self):
        base = Scenario(algorithm="with_loan", params=small_params())
        grid = base.sweep(
            latency=(None, UniformJitterLatencySpec(jitter=0.5)),
            load=(LoadLevel.MEDIUM, LoadLevel.HIGH),
        )
        assert len(grid) == 4
        assert grid[0].latency is None and grid[1].params.load is LoadLevel.HIGH
        assert grid[3].latency == UniformJitterLatencySpec(jitter=0.5)

    def test_algorithm_axis_resets_incompatible_config(self):
        """A configured (or normalized) scenario can sweep the algorithm
        axis: changing algorithms drops the old algorithm's config in
        favour of the new one's registered default."""
        base = Scenario(
            algorithm="with_loan",
            params=small_params(),
            config=CoreConfigSpec(loan_threshold=2),
        ).normalized()
        grid = base.sweep(algorithm=("with_loan", "bouabdallah"))
        assert grid[0].config == CoreConfigSpec(loan_threshold=2)  # unchanged algorithm
        assert grid[1].algorithm == "bouabdallah" and grid[1].config is None

    def test_replace_dispatches_params_fields(self):
        base = Scenario(algorithm="with_loan", params=small_params())
        other = base.replace(phi=2, algorithm="bouabdallah", max_events=123)
        assert other.params.phi == 2
        assert other.algorithm == "bouabdallah"
        assert other.max_events == 123
        assert base.params.phi == 3  # original untouched


class TestRunScenario:
    def test_workload_axis_validated_and_described(self):
        from repro.workload.spec import OpenLoopSpec, TraceReplaySpec

        with pytest.raises(TypeError, match="WorkloadSpec"):
            Scenario(algorithm="with_loan", params=small_params(), workload=object())
        with pytest.raises(ValueError):
            Scenario(algorithm="with_loan", params=small_params(), record_chunk_rows=0)
        text = Scenario(
            algorithm="with_loan",
            params=small_params(),
            workload=OpenLoopSpec(),
            record_chunk_rows=128,
        ).describe()
        assert "OpenLoopSpec(" in text and "chunked=128" in text
        trace_text = Scenario(
            algorithm="with_loan",
            params=small_params(),
            workload=TraceReplaySpec(path="some.swf"),
        ).describe()
        assert "TraceReplaySpec(path='some.swf'" in trace_text

    def test_describe_mentions_algorithm_and_config(self):
        scenario = Scenario(
            algorithm="with_loan",
            params=small_params(),
            config=CoreConfigSpec(loan_threshold=2),
        )
        text = scenario.describe()
        assert "with_loan" in text and "loan<=2" in text


class TestAlgorithmTable:
    def test_a_new_row_is_droppable_into_scenarios(self, monkeypatch):
        from repro.baselines.central_scheduler import (
            CentralScheduler,
            CentralSchedulerClientAllocator,
        )
        from repro.experiments import registry

        def build(config, params, sim, network, trace):
            scheduler = CentralScheduler(sim, params.num_resources)
            return [
                CentralSchedulerClientAllocator(scheduler, p)
                for p in range(params.num_processes)
            ]

        row = registry.Algorithm("test_dummy", "Dummy", None, False, build)
        monkeypatch.setitem(registry.TABLE, "test_dummy", row)
        result = run(Scenario(algorithm="test_dummy", params=small_params()))
        assert result.metrics.completed == result.metrics.issued
