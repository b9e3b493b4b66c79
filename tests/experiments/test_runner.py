"""Tests of the single-experiment runner."""

import gc
import os
from collections import Counter

import pytest

from repro.baselines.bouabdallah_laforest import BLAllocatorNode
from repro.baselines.incremental import IncrementalAllocatorNode, RecoverableIncrementalNode
from repro.core.config import CoreConfigSpec
from repro.core.node import CoreAllocatorNode
from repro.core.recovery import RecoverableCoreNode
from repro.experiments.registry import ALGORITHMS
from repro.experiments.runner import Termination, run
from repro.experiments.scenario import Scenario
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.engine import SimulationError
from repro.sim.faultspec import BernoulliLoss, NodeCrash
from repro.obs import TelemetrySpec
from repro.sim.latencyspec import HierarchicalLatencySpec, UniformJitterLatencySpec
from repro.workload.arrivals import PoissonArrivals
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import OpenLoopSpec, TraceReplaySpec

SAMPLE_TRACE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "data", "sample.swf"
)

#: The figures' scaled-down testbed: 10 processes, 24 resources.
TESTBED = WorkloadParams(
    num_processes=10, num_resources=24, phi=4, duration=1_500.0, warmup=200.0, seed=1
)


@pytest.fixture
def tiny_params():
    return WorkloadParams(
        num_processes=5,
        num_resources=10,
        phi=3,
        duration=800.0,
        warmup=100.0,
        seed=17,
        load=LoadLevel.HIGH,
    )


class TestRunExperiment:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_produces_valid_metrics(self, tiny_params, algorithm):
        result = run(Scenario(algorithm=algorithm, params=tiny_params))
        assert result.algorithm == algorithm
        assert 0.0 < result.use_rate <= 100.0
        assert result.metrics.waiting.mean >= 0.0
        assert result.metrics.completed == result.metrics.issued
        assert result.events_processed > 0

    def test_unknown_algorithm_rejected(self, tiny_params):
        with pytest.raises(KeyError):
            run(Scenario(algorithm="quantum", params=tiny_params))

    def test_deterministic_given_seed(self, tiny_params):
        a = run(Scenario(algorithm="with_loan", params=tiny_params))
        b = run(Scenario(algorithm="with_loan", params=tiny_params))
        assert a.use_rate == pytest.approx(b.use_rate)
        assert a.metrics.waiting.mean == pytest.approx(b.metrics.waiting.mean)
        assert a.metrics.messages_total == b.metrics.messages_total

    def test_different_seeds_differ(self, tiny_params):
        a = run(Scenario(algorithm="with_loan", params=tiny_params))
        b = run(Scenario(algorithm="with_loan", params=tiny_params.with_seed(99)))
        assert a.metrics.issued != b.metrics.issued or a.use_rate != b.use_rate

    @pytest.mark.parametrize(
        "algorithm", ["incremental", "bouabdallah", "without_loan", "with_loan"]
    )
    def test_messages_counted_for_distributed_algorithms(self, tiny_params, algorithm):
        result = run(Scenario(algorithm=algorithm, params=tiny_params))
        assert result.metrics.messages_total > 0
        assert result.metrics.messages_per_cs > 0

    @pytest.mark.parametrize(
        "algorithm", ["incremental", "bouabdallah", "without_loan", "with_loan"]
    )
    def test_messages_counted_for_large_requests(self, algorithm):
        """phi = M/2 at high load: every request moves many tokens."""
        params = TESTBED.with_load(LoadLevel.HIGH).with_phi(TESTBED.num_resources // 2)
        result = run(Scenario(algorithm=algorithm, params=params))
        assert result.metrics.completed == result.metrics.issued > 0
        assert result.metrics.messages_per_cs > 0

    def test_shared_memory_has_no_messages(self, tiny_params):
        result = run(Scenario(algorithm="shared_memory", params=tiny_params))
        assert result.metrics.messages_total == 0

    def test_trace_collection_optional(self, tiny_params):
        without = run(Scenario(algorithm="with_loan", params=tiny_params))
        assert without.trace is None
        with_trace = run(
            Scenario(algorithm="with_loan", params=tiny_params, collect_trace=True)
        )
        assert with_trace.trace is not None and len(with_trace.trace.events()) > 0

    def test_size_buckets_grouping(self, tiny_params):
        result = run(
            Scenario(algorithm="with_loan", params=tiny_params, size_buckets=(1, 3))
        )
        assert set(result.metrics.waiting_by_size) <= {1, 3}

    def test_custom_latency_model(self, tiny_params):
        latency = HierarchicalLatencySpec(gamma_local=0.3, gamma_remote=5.0, num_clusters=2)
        flat = run(Scenario(algorithm="without_loan", params=tiny_params))
        hierarchical = run(
            Scenario(algorithm="without_loan", params=tiny_params, latency=latency)
        )
        # Remote hops are ~8x slower, so waiting must not improve.
        assert hierarchical.metrics.waiting.mean >= flat.metrics.waiting.mean

    def test_requests_per_process_cap(self, tiny_params):
        import dataclasses

        capped = dataclasses.replace(tiny_params, requests_per_process=2)
        result = run(Scenario(algorithm="with_loan", params=capped))
        assert result.metrics.issued <= 2 * capped.num_processes


class TestStreamingWorkloads:
    """Open-loop arrivals with chunked records, and trace replay, under every algorithm."""

    #: Far below the run's request volume, so the collector seals chunks.
    CHUNK_ROWS = 128

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_open_loop_chunked_run_completes_every_request(self, algorithm):
        params = WorkloadParams(
            num_processes=8, num_resources=20, phi=4, duration=3_000.0, warmup=300.0, seed=1
        )
        result = run(
            Scenario(
                algorithm=algorithm,
                params=params,
                workload=OpenLoopSpec(arrival=PoissonArrivals(rate=0.03)),
                record_chunk_rows=self.CHUNK_ROWS,
            )
        )
        assert result.metrics.completed == result.metrics.issued > self.CHUNK_ROWS
        assert result.record_columns.chunk_count > 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_trace_replay_completes_all_200_jobs(self, algorithm):
        params = WorkloadParams(
            num_processes=8, num_resources=20, phi=4, duration=4_000.0, warmup=400.0, seed=1
        )
        result = run(
            Scenario(
                algorithm=algorithm, params=params, workload=TraceReplaySpec(path=SAMPLE_TRACE)
            )
        )
        assert result.metrics.completed == result.metrics.issued == 200


class TestFaultRunCap:
    def test_cap_never_clips_a_natural_completion_tail(self):
        """Regression: the fault-run horizon used to be 2*duration, which
        clipped in-flight requests of short workloads whose drain extends
        past it — a near-zero-fault run then miscounted completions (and
        raised a spurious liveness failure) relative to the reliable run."""
        from repro.experiments.runner import fault_run_until
        from repro.sim.faultspec import BernoulliLoss

        params = WorkloadParams(
            num_processes=5, num_resources=10, phi=3, duration=100.0, warmup=10.0, seed=1,
        )
        reliable = run(Scenario(algorithm="with_loan", params=params))
        # The reliable drain really does outlive 2*duration here, so the
        # old cap would have cut it short.
        assert reliable.simulated_time > 2.0 * params.duration
        assert fault_run_until(params) > reliable.simulated_time
        faulty = run(
            Scenario(
                algorithm="with_loan",
                params=params,
                # p > 0 activates the capped path; small enough that no
                # message is actually dropped in this short run.
                faults=BernoulliLoss(p=1e-9),
            )
        )
        assert faulty.messages_dropped == 0
        assert faulty.metrics.completed == reliable.metrics.completed
        assert faulty.metrics.waiting == reliable.metrics.waiting
        # The cap is a stall guard, not a clock target: a drained faulty
        # run reports its real drain time, comparable to the reliable run.
        assert faulty.simulated_time == reliable.simulated_time

    #: Open loop on one resource whose natural drain (t = 35 353) outlives
    #: the first cap, 2 * 3 000 + 20 * 32 * 35 = 28 400: the cap must move
    #: with the grants instead of stopping the run with 194 requests waiting.
    SLOW_DRAIN = Scenario(
        algorithm="without_loan",
        params=WorkloadParams(
            num_processes=32, num_resources=1, phi=1, duration=3_000.0,
            load=LoadLevel.LOW, seed=348118,
        ),
        workload=OpenLoopSpec(PoissonArrivals(rate=0.01)),
        config=CoreConfigSpec(enable_loan=False),
    )

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(
                Scenario(
                    algorithm=algorithm,
                    params=WorkloadParams(
                        num_processes=8, num_resources=20, phi=4, duration=1500.0,
                        warmup=150.0, load=LoadLevel.HIGH, seed=1,
                    ),
                ),
                id=algorithm,
            )
            for algorithm in ("with_loan", "without_loan", "bouabdallah", "incremental")
        ]
        + [pytest.param(SLOW_DRAIN, id="slow-open-drain")],
    )
    def test_never_firing_crash_drains_like_its_twin(self, scenario):
        """A crash past the cap fires nothing: the run is its reliable twin."""
        twin = run(scenario)
        armed = run(scenario.replace(faults=NodeCrash(node=0, at=1e9)))
        assert armed.termination == twin.termination
        assert armed.termination.reason == "drained"
        assert armed.record_columns.content_key() == twin.record_columns.content_key()
        assert armed.metrics.messages_total == twin.metrics.messages_total
        assert armed.events_processed == twin.events_processed


class TestCrashExtensionSelection:
    """Only a run whose faults declare crash windows builds the crash-recovery subclasses."""

    EXPECTED = {
        # algorithm: (class of a run without crash windows, class with them)
        "with_loan": (CoreAllocatorNode, RecoverableCoreNode),
        "without_loan": (CoreAllocatorNode, RecoverableCoreNode),
        "incremental": (IncrementalAllocatorNode, RecoverableIncrementalNode),
        "bouabdallah": (BLAllocatorNode, BLAllocatorNode),
    }

    @pytest.mark.parametrize(
        "axes, crashes",
        [
            pytest.param({}, False, id="no fault"),
            pytest.param({"faults": BernoulliLoss(p=1e-9)}, False, id="loss, no crash"),
            pytest.param({"faults": NodeCrash(node=0, at=1e9)}, True, id="never-firing crash"),
            pytest.param(
                {
                    "faults": NodeCrash(node=1, at=100.0),
                    "detector": HeartbeatDetector(interval=10.0, timeout=30.0),
                },
                True,
                id="detected crash",
            ),
        ],
    )
    def test_crash_windows_pick_the_class(self, tiny_params, monkeypatch, axes, crashes):
        from repro.experiments import registry

        built = {}

        def spy(name, build):
            def recording_build(*args):
                built[name] = build(*args)
                return built[name]

            return recording_build

        for name in self.EXPECTED:
            row = registry.TABLE[name]
            monkeypatch.setitem(
                registry.TABLE,
                name,
                row._replace(
                    build=spy(name, row.build),
                    crash_build=row.crash_build and spy(name, row.crash_build),
                ),
            )
            run(Scenario(algorithm=name, params=tiny_params, require_all_completed=False, **axes))
        assert {name: {type(a) for a in allocators} for name, allocators in built.items()} == {
            name: {classes[crashes]} for name, classes in self.EXPECTED.items()
        }


class TestTermination:
    """``result.termination``: the one answer to "how did this run end?"."""

    #: The paper's testbed size, N=32 and M=80, at high load.
    WEDGE_PARAMS = WorkloadParams(
        num_processes=32, num_resources=80, phi=8, duration=5_000.0, load=LoadLevel.HIGH
    )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_fault_run_drains_with_nobody_waiting(self, tiny_params, algorithm):
        result = run(Scenario(algorithm=algorithm, params=tiny_params))
        end = result.termination
        assert (end.reason, end.waiting, end.abandoned) == ("drained", (), 0)
        assert 0.0 < end.last_grant <= result.simulated_time

    def test_crash_run_reports_the_wedge_its_twin_does_not(self):
        """Node 0, the initial holder, dies undetected at t=80 with most tokens."""
        twin = run(Scenario(algorithm="with_loan", params=self.WEDGE_PARAMS))
        assert twin.termination == Termination(
            "drained", twin.termination.last_grant, (), 0
        )
        crashed = Scenario(
            algorithm="with_loan", params=self.WEDGE_PARAMS, faults=NodeCrash(node=0, at=80.0)
        )
        result = run(crashed.replace(require_all_completed=False))
        end = result.termination
        assert end.reason == "drained"
        assert end.last_grant == pytest.approx(148.8, abs=0.1)
        assert end.waiting == tuple((node, 1) for node in range(1, 32))
        assert end.abandoned == 1
        # completed/issued = 74/106 hides it; the twin's count does not.
        assert (result.metrics.completed, twin.metrics.completed) == (74, 2501)
        with pytest.raises(RuntimeError, match="liveness failure.*drained.*last grant") as exc:
            run(crashed)
        assert "(first: process 1, index 2)" in str(exc.value)

    def test_default_scenario_accepts_a_request_that_died_with_its_node(self, tiny_params):
        # Node 0 (the initial holder of every token) dies mid-request and
        # is detected: every survivor finishes, so the default
        # require_all_completed=True does not raise on the one casualty.
        result = run(
            Scenario(
                algorithm="with_loan",
                params=tiny_params,
                faults=NodeCrash(node=0, at=10.0),
                detector=HeartbeatDetector(interval=10.0, timeout=30.0),
            )
        )
        assert result.termination.waiting == ()
        assert result.termination.abandoned == 1
        assert result.metrics.issued == result.metrics.completed + 1

    def test_default_scenario_raises_on_waiting_survivors(self, tiny_params):
        undetected = Scenario(
            algorithm="with_loan", params=tiny_params, faults=NodeCrash(node=0, at=10.0)
        )
        with pytest.raises(RuntimeError, match=r"waiting on nodes 1, 2, 3, 4"):
            run(undetected)

    def test_event_cap_says_where_the_protocol_stands(self):
        params = WorkloadParams(
            num_processes=2, num_resources=2, phi=2, duration=500.0, warmup=0.0,
            load=LoadLevel.HIGH, seed=3,
        )
        with pytest.raises(SimulationError, match="max_events=50 exceeded") as exc:
            run(Scenario(algorithm="with_loan", params=params, max_events=50))
        assert str(exc.value).endswith("last grant t=178.647; 1 waiting on nodes 1; 0 abandoned")


def cyclic_garbage() -> Counter:
    """Types of the objects only the cyclic collector can free right now, by count."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)


class TestCyclicCollector:
    """``run`` pauses the cyclic collector and leaves nothing for it to free."""

    PARAMS = WorkloadParams(
        num_processes=5, num_resources=10, phi=3, duration=400.0, warmup=50.0,
        load=LoadLevel.HIGH, seed=1,
    )

    #: Every axis that builds objects of its own, each at a small size.
    VARIANTS = {
        "no fault": {},
        "loss": {"faults": BernoulliLoss(p=0.1)},
        "blip": {"faults": NodeCrash(node=1, at=100.0, recover_at=150.0)},
        # Its crash edge is still queued when the run ends.
        "never-firing crash": {"faults": NodeCrash(node=0, at=1e9)},
        "detected crash, jitter": {
            "faults": NodeCrash(node=1, at=100.0),
            "detector": HeartbeatDetector(interval=10, timeout=30),
            "latency": UniformJitterLatencySpec(jitter=0.4),
        },
        "trace": {"collect_trace": True},
        "telemetry": {"telemetry": TelemetrySpec()},
        "chunked records": {"record_chunk_rows": 64},
        "calendar": {"scheduler": "calendar"},
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_run_leaves_no_cyclic_garbage(self, algorithm, variant):
        """The run's graph is freed by reference counting as ``run`` returns."""
        scenario = Scenario(
            algorithm=algorithm, params=self.PARAMS, require_all_completed=False,
            **self.VARIANTS[variant],
        )
        gc.collect()
        result = run(scenario)
        assert cyclic_garbage() == Counter()
        assert result.metrics.completed > 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "scenario, error",
        [
            pytest.param(Scenario(algorithm="with_loan", params=PARAMS), None, id="returns"),
            pytest.param(
                Scenario(algorithm="with_loan", params=PARAMS, max_events=50),
                SimulationError,
                id="event cap",
            ),
            pytest.param(
                Scenario(algorithm="with_loan", params=PARAMS, faults=NodeCrash(node=0, at=10.0)),
                RuntimeError,
                id="liveness failure",
            ),
        ],
    )
    def test_caller_collector_setting_is_restored(self, scenario, error, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                run(scenario)
            else:
                with pytest.raises(error):
                    run(scenario)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_run_starts_no_collection(self):
        """A figure-scale run allocates enough to start several passes, and starts none."""
        params = WorkloadParams(
            num_processes=10, num_resources=24, phi=4, duration=750.0, warmup=200.0, seed=1
        )
        scenario = Scenario(algorithm="with_loan", params=params)
        passes = []

        def spy(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(spy)
        try:
            run(scenario)
        finally:
            gc.callbacks.remove(spy)
            (gc.enable if was else gc.disable)()
        assert passes == []
