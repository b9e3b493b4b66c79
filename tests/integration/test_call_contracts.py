"""Call-count contracts: the Python frames a run may and may not execute.

A no-fault run is the paper's model and nothing more (Section 3.1:
reliable FIFO links, no process halts), so it must not enter the fault
layer, the crash lifecycle, the recovery coordinator, the crash-recovery
subclasses or the telemetry package.  A run with a fault layer must cost
what its faults cost.  And the per-message path of every run stays one
frame of ``sim`` per message.

Each contract is an exact assertion over the calls
``scripts/count_work.py``'s :func:`count_calls` counts (per function,
keyed ``(file, first line, name, caller's file)``) in one warmed run of
the figure-scale closed loop (10 processes, 24 resources, phi 4,
duration 1 500; ``tests/integration/test_paper_trends.py``'s figure
series run at this size).  The legs: ``with_loan`` under the heap and under the
calendar scheduler, ``bouabdallah`` and ``incremental`` likewise, all
with no fault, and an *armed* ``with_loan`` run: a permanent crash of node 1 at t=300,
a heartbeat detector and jittered latency (the ``crash_recovery``
benchmark's configuration in small).  Every leg is run once to warm
imports and caches, then counted.  A failing rule prints the offending
calls with their keys.

Queueing happens in C (``deque.append``, ``heappush``), where no call
counter sees it, so where each event is queued is counted by one more
run of each leg on a :class:`QueueCountingSimulator`.

Two contracts compare two runs of that closed loop instead of legs: a
crash window that never fires adds a fixed count of opcodes per run
(:func:`count_opcodes`, at two durations), and enabled telemetry runs
``repro/obs`` frames per grant and per probe sample, never per message.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.baselines.incremental import RecoverableIncrementalNode
from repro.core.node import CoreAllocatorNode
from repro.core.recovery import RecoverableCoreNode
from repro.experiments import runner
from repro.experiments.runner import default_max_events, run
from repro.experiments.scenario import Scenario
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.engine import Simulator
from repro.sim.faults import NoFaults, NodeCrash
from repro.obs import TelemetrySpec
from repro.sim.latency import UniformJitterLatencySpec
from repro.workload.params import WorkloadParams

PARAMS = WorkloadParams(
    num_processes=10, num_resources=24, phi=4, duration=1_500.0, warmup=200.0, seed=1,
)

#: The no-fault legs: each algorithm under each scheduler.
NO_FAULT = {
    algorithm + suffix: Scenario(algorithm=algorithm, params=PARAMS, scheduler=scheduler)
    for algorithm in ("with_loan", "bouabdallah", "incremental")
    for suffix, scheduler in (("", None), ("-calendar", "calendar"))
}

#: Every leg: the no-fault ones and the armed run.
LEGS = {
    **NO_FAULT,
    "armed": NO_FAULT["with_loan"].replace(
        faults=NodeCrash(node=1, at=300.0),
        detector=HeartbeatDetector(interval=10, timeout=30),
        latency=UniformJitterLatencySpec(jitter=0.4),
        require_all_completed=False,
    ),
}


def _path(*parts: str) -> str:
    return os.path.join("repro", *parts)


ENGINE = _path("sim", "engine.py")
NETWORK = _path("sim", "network.py")

#: Files (or, ending with a separator, packages) no no-fault run enters.
NO_FAULT_FORBIDDEN = (
    _path("sim", "faults.py"),
    _path("sim", "lifecycle.py"),
    _path("core", "recovery.py"),
    _path("obs") + os.sep,
)

#: ``(defining file, function, caller's file)`` no run executes; an
#: empty caller matches every caller.  Each was one frame per message,
#: or per comparison, before a node's ``send`` became a ``partial`` over
#: the network's bound send, the sends queued through the simulator's
#: push directly and the order's sort key became an ``attrgetter``.
#: (``schedule``/``schedule_at`` are how every other layer queues its
#: timers, so only the network's calls count.)
EVERY_RUN_FORBIDDEN = (
    (_path("sim", "node.py"), "send", ""),
    (ENGINE, "schedule", NETWORK),
    (ENGINE, "schedule_at", NETWORK),
    (_path("core", "ordering.py"), "request_key", ""),
)

#: As above, for the armed run: each was one frame per message or event
#: before the armed path was made to cost what its work costs.
#: ``Random.uniform`` is forbidden only to the latency model: the
#: workload draws think times with it.
ARMED_FORBIDDEN = (
    (NETWORK, "record", ""),
    (ENGINE, "now", ""),
    ("random.py", "uniform", _path("sim", "latency.py")),
)

#: Ceiling on fault-hook calls per message of the armed run; consulting
#: the hook for every message is 1.0.
ARMED_HOOK_CALLS_PER_MESSAGE = 0.25


def ran(calls, file: str, name=None, caller: str = "") -> dict:
    """The counted calls of ``name`` (any function if ``None``) defined in ``file``, made from ``caller``."""
    return {
        key: n for key, n in calls.items()
        if file in key[0] and (name is None or key[2] == name) and caller in key[3]
    }


@pytest.fixture(scope="module")
def counted(count_work):
    """``counted(leg)``: ``(result, calls)`` of the leg's run, warmed once and counted once."""
    cache = {}

    def counts(leg):
        if leg not in cache:
            run(LEGS[leg])  # imports and caches are paid before the count
            cache[leg] = count_work.count_calls(run, LEGS[leg])
        return cache[leg]

    return counts


@pytest.mark.parametrize("leg", NO_FAULT)
def test_no_fault_run_enters_no_fault_lifecycle_recovery_or_obs_code(counted, count_work, leg):
    """A no-fault run binds its ``NoFaults`` once and enters nothing else of the crash subsystem.

    Catches a runner that builds the crash path for every run, and a
    collector that calls into ``repro/obs`` on a default run.
    """
    _result, calls = counted(leg)
    entered = {}
    for module in NO_FAULT_FORBIDDEN:
        entered.update(ran(calls, module))
    assert count_work.by_function(entered) == {count_work.code_key(NoFaults.bind): 1}


@pytest.mark.parametrize("leg", NO_FAULT)
def test_no_fault_run_executes_no_crash_recovery_subclass_function(counted, count_work, leg):
    """The crash-recovery subclasses are built only for a scenario with crash windows."""
    _result, calls = counted(leg)
    subclass_code = {
        count_work.code_key(function)
        for cls in (RecoverableCoreNode, RecoverableIncrementalNode)
        for function in vars(cls).values()
        if hasattr(function, "__code__")
    }
    assert {key: n for key, n in calls.items() if key[:3] in subclass_code} == {}


@pytest.mark.parametrize("leg", NO_FAULT)
def test_reliable_run_cancels_no_timer(counted, leg):
    """No per-request timer is armed or cancelled on reliable links."""
    _result, calls = counted(leg)
    assert ran(calls, ENGINE, "cancel") == {}


@pytest.mark.parametrize("leg", LEGS)
def test_run_executes_no_frame_of_core_messages(counted, leg):
    """Records are built by C calls, envelopes by ``tuple.__new__``, not the validating ``__new__``."""
    _result, calls = counted(leg)
    assert ran(calls, _path("core", "messages.py")) == {}


@pytest.mark.parametrize("leg", LEGS)
def test_send_path_and_order_key_run_no_python_frame(counted, leg):
    """No ``Node.send``, network-called ``schedule``/``schedule_at`` or ``request_key`` frame."""
    _result, calls = counted(leg)
    entered = {}
    for file, name, caller in EVERY_RUN_FORBIDDEN:
        entered.update(ran(calls, file, name, caller))
    assert entered == {}


def test_armed_run_consults_the_fault_hook_only_for_exposed_messages(counted):
    """Only messages that touch the crashable node reach ``FaultSpec.handover``."""
    result, calls = counted("armed")
    messages = result.metrics.messages_total
    hook_calls = sum(ran(calls, _path("sim", "faults.py"), "handover").values())
    assert 0 < hook_calls < ARMED_HOOK_CALLS_PER_MESSAGE * messages, (hook_calls, messages)


def test_armed_run_executes_no_per_message_stats_clock_or_draw_frame(counted):
    """No ``MessageStats.record``, ``now`` property or latency-drawn ``uniform`` frame."""
    _result, calls = counted("armed")
    entered = {}
    for file, name, caller in ARMED_FORBIDDEN:
        entered.update(ran(calls, file, name, caller))
    assert entered == {}


class QueueCountingSimulator(Simulator):
    """A simulator that counts its timers and what each of its queues is given.

    ``timers``: ``schedule``/``schedule_at`` calls; ``heap``: pushes
    through the scheduler's push, timers included; ``lane``: appends to
    the FIFO lane.  The wrappers are Python frames, so these runs are
    never the call-counted ones.
    """

    __slots__ = ("timers", "heap", "lane")

    def __init__(self, scheduler=None):
        super().__init__(scheduler)
        self.timers = self.heap = self.lane = 0
        push = self._push

        def counted_push(entry):
            self.heap += 1
            push(entry)

        self._push = counted_push

    def claim_lane(self):
        post = super().claim_lane()
        if post == self._push:
            return post

        def counted_post(entry):
            self.lane += 1
            post(entry)

        return counted_post

    def schedule(self, delay, callback, *args):
        self.timers += 1
        return super().schedule(delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        self.timers += 1
        return super().schedule_at(time, callback, *args)


@pytest.mark.parametrize("leg", LEGS)
def test_messages_of_a_constant_heap_run_take_the_fifo_lane(monkeypatch, leg):
    """On the heap with constant latency, every message is a lane entry and the heap holds only timers.

    The calendar scheduler keeps the lane empty, and the armed run's
    jittered latency queues every delivered message on the heap; a
    message lost for good is never queued.
    """
    built = []

    def simulator(scheduler):
        built.append(QueueCountingSimulator(scheduler))
        return built[-1]

    monkeypatch.setattr(runner, "Simulator", simulator)
    result = run(LEGS[leg])
    (sim,) = built
    messages = result.metrics.messages_total
    delivered = messages - (result.messages_dropped - result.resend_count)
    assert messages > 0
    if leg in NO_FAULT and sim.scheduler_name == "heap":
        assert (sim.lane, sim.heap) == (messages, sim.timers)
    else:
        assert (sim.lane, sim.heap) == (0, sim.timers + delivered)


def test_lifecycle_hooks_overhead_on_no_fault_path(count_work):
    """A crash window that never fires costs a fixed count of opcodes per run.

    The armed scenario declares a crash far beyond the run horizon: the
    lifecycle layer schedules its window, the allocators are the
    crash-recovery subclasses and the run loop is bounded by the stall
    cap, but nothing fires, so the workload and its results are those
    of the plain run.  What arming adds is per-run set-up (the lifecycle,
    the fault spec's queries, the cap) plus the subclass's one
    ``_process_update`` override frame per token arrival, each calling
    the base once.  Counted at two durations, the opcodes arming adds
    outside that override must not change: a lifecycle or fault call
    made per message or per event, or inline work added to a frame the
    plain run has, would grow with the run.
    """
    override = count_work.code_key(RecoverableCoreNode._process_update)
    base = count_work.code_key(CoreAllocatorNode._process_update)
    max_events = default_max_events(PARAMS)

    def scenarios(duration):
        plain = Scenario(
            algorithm="with_loan",
            params=replace(PARAMS, duration=duration),
            max_events=max_events,
        )
        # Crash far past the stall cap (fault_run_until ~ a few workload
        # durations), so neither the crash event nor the cap changes the run.
        return plain, plain.replace(faults=NodeCrash(node=0, at=1e9), require_all_completed=False)

    def added_by_arming(duration):
        plain, armed = scenarios(duration)
        plain_result, plain_opcodes = count_work.count_opcodes(run, plain)
        armed_result, armed_opcodes = count_work.count_opcodes(run, armed)
        # The never-firing window must not perturb the protocol at all.
        assert armed_result.metrics.completed == plain_result.metrics.completed
        assert armed_result.metrics.use_rate == plain_result.metrics.use_rate
        assert armed_result.tokens_regenerated == 0
        return {
            key: armed_opcodes[key] - plain_opcodes[key]
            for key in armed_opcodes.keys() | plain_opcodes.keys()
            if key != override and armed_opcodes[key] != plain_opcodes[key]
        }

    for scenario in scenarios(PARAMS.duration / 2):
        run(scenario)  # imports and caches are paid before the count
    assert added_by_arming(PARAMS.duration / 2) == added_by_arming(PARAMS.duration)

    # One override frame per token arrival, each calling the base once.
    plain, armed = scenarios(PARAMS.duration)
    plain_calls = count_work.by_function(count_work.count_calls(run, plain)[1])
    armed_calls = count_work.by_function(count_work.count_calls(run, armed)[1])
    assert armed_calls[override] == armed_calls[base] == plain_calls[base] > 0


#: ``repro/obs/`` frames a telemetered run may execute per probe sample,
#: beside one (``observe_grant``) per grant.  A probe firing costs its own
#: frame plus a generator over the clients (at most one resume per client
#: of the 10-process closed loop, and one to finish); the end-of-run
#: snapshot's fixed cost (about 150 frames) fits in what the run's ~30
#: samples leave over.  Telemetry that did work per message (~10 per
#: grant) or a second frame per grant would not fit.
OBS_FRAMES_PER_SAMPLE = 12


def test_enabled_telemetry_overhead_under_ceiling(count_work):
    """Full telemetry (probe + gauges + histogram) costs frames per grant and sample only.

    Switching telemetry on (50 ms sampling probe, per-grant histogram
    pushes, per-node gauges) must not add work per message: the
    pull-style design reads counters the hot layers already maintain.
    """
    plain = Scenario(algorithm="with_loan", params=PARAMS, max_events=default_max_events(PARAMS))
    telemetered = plain.replace(telemetry=TelemetrySpec())

    plain_result = run(plain)
    result, calls = count_work.count_calls(run, telemetered)

    # The probe must observe without perturbing the protocol.
    assert result.metrics == plain_result.metrics
    snapshot = result.telemetry
    assert snapshot is not None
    grants = snapshot.value("repro_grants_total")
    assert grants == float(plain_result.metrics.completed)

    samples = snapshot.value("repro_telemetry_samples_total")
    frames = sum(ran(calls, _path("obs") + os.sep).values())
    budget = grants + samples * OBS_FRAMES_PER_SAMPLE
    assert 0 < frames <= budget, (
        f"telemetry ran {frames} repro/obs frames for {grants:.0f} grants, "
        f"{samples:.0f} probe samples and {result.metrics.messages_total} messages "
        f"(budget: {budget:.0f})"
    )
