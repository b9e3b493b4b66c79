"""Single-experiment runner.

:func:`run` is the Scenario-API entrypoint: it takes a declarative
:class:`~repro.experiments.scenario.Scenario`, builds the whole system
(simulator, network, allocators, workload clients, metrics), runs it to
completion and returns an :class:`ExperimentResult` with the paper's
metrics plus message accounting.  Every sweep driver in
:mod:`repro.experiments.figures` and every benchmark funnels through it —
directly or through :mod:`repro.parallel`, where the scenario also serves
as the memoisation key.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.recovery import RecoveryCoordinator
from repro.experiments.driver import Client, last_grant
from repro.experiments.registry import get_algorithm
from repro.experiments.scenario import Scenario
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.metrics.columns import ChunkedColumns, DowntimeColumns, RecordColumns
from repro.sim.engine import SimulationError, Simulator
from repro.sim.latency import ConstantLatencySpec
from repro.sim.lifecycle import NodeLifecycle
from repro.sim.network import Network
from repro.sim.trace import TraceRecorder
from repro.workload.params import WorkloadParams

#: Size classes reported by Figure 7 of the paper (for M = 80).
FIGURE7_SIZE_BUCKETS = [1, 17, 33, 49, 65, 80]


def default_max_events(
    params: WorkloadParams, expected_requests: Optional[int] = None
) -> int:
    """Default event-count safety valve for a run of ``params``.

    Generous upper bound: each request costs a bounded number of protocol
    messages plus a handful of client events.  Exceeding it indicates a
    livelock in the protocol under test, not a long workload.

    ``expected_requests`` overrides the closed-loop think-time estimate —
    open-loop and trace workloads report their own offered volume through
    :meth:`~repro.workload.spec.WorkloadSpec.expected_requests`, which would
    otherwise be wildly misestimated by the ``beta``-based formula.
    """
    if expected_requests is None:
        expected_requests = max(
            1,
            int(params.num_processes * params.duration / max(params.beta + params.alpha_min, 1.0)),
        )
    per_request = 40 + 12 * min(params.phi, params.num_resources)
    return max(200_000, expected_requests * per_request * 4)


def fault_run_until(params: WorkloadParams) -> float:
    """Simulated-time cap applied to runs with an active fault layer.

    Without faults a run terminates when the event queue drains.  With
    them, events may stay queued past the run's natural end: a crash or
    reboot edge (with the messages held for that reboot) may lie at any
    time.  The cap is the stall guard that ends such a run.  It is
    deterministic in the params — part of the scenario's semantics, not
    of who runs it — and deliberately generous: one full workload
    duration of grace plus one :func:`stall_grace`.  It is where a run
    *may* stop, not where it must: one that granted within the last
    grace period before the cap goes on (see :func:`stall_grace`), so a
    run whose faults delayed little (or nothing) completes its natural
    tail instead of having it clipped and miscounted as a liveness
    failure.
    """
    return 2.0 * params.duration + stall_grace(params)


def stall_grace(params: WorkloadParams) -> float:
    """Grant-free time after which a fault run counts as stalled.

    ``20 * N * alpha_max``: far more than the worst-case serial drain of
    every process's last critical section.  A fault run stops at
    :func:`fault_run_until` only if nothing was granted in the last grace
    period before it; otherwise the cap moves to the last grant plus one
    grace period, so a natural drain is never clipped.
    """
    return 20.0 * params.num_processes * params.alpha_max


@dataclass(frozen=True)
class Termination:
    """How a run ended, read off the clients once the event loop returns.

    A request is *waiting* iff a live :class:`Client` still holds it; one
    that died with its node is *abandoned* (the records cannot tell).  Always
    ``metrics.issued == metrics.completed + sum(n for _, n in waiting) + abandoned``.
    """

    #: ``"drained"`` (the event queue emptied, but for crash or reboot edges
    #: past the cap) or ``"fault_cap"`` (stopped at the cap of
    #: :func:`fault_run_until`, moved past the last grant by
    #: :func:`stall_grace`, with other events pending).  The event cap raises.
    reason: str
    #: Simulated time of the last grant; ``None`` if there was none.
    last_grant: Optional[float]
    #: ``((node, requests), ...)``, ascending, only nodes still holding any.
    waiting: Tuple[Tuple[int, int], ...]
    #: Issued requests that died with their node.
    abandoned: int

    def progress(self) -> str:
        """Last grant, waiting nodes and abandoned count, in words."""
        last = "none" if self.last_grant is None else f"t={self.last_grant:g}"
        nodes = ", ".join(str(node) for node, _ in self.waiting) or "-"
        held = sum(count for _, count in self.waiting)
        return f"last grant {last}; {held} waiting on nodes {nodes}; {self.abandoned} abandoned"


def _termination(reason: str, clients: Sequence[Client]) -> Termination:
    return Termination(
        reason=reason,
        last_grant=last_grant(clients),
        waiting=tuple((c.process, c.waiting) for c in clients if c.waiting),
        abandoned=sum(c.abandoned for c in clients),
    )


@dataclass
class ExperimentResult:
    """Everything produced by one experiment run.

    Per-request lifecycles live in ``record_columns``, a struct-of-arrays
    :class:`~repro.metrics.columns.RecordColumns` (sorted by
    ``(process, index)``, float32 times) that is cheap to pickle across
    the worker-pool boundary and into the run cache; :attr:`records`
    is the same container read as a sequence of ``RequestRecord`` views.

    ``trace`` is process-local: it is only populated on in-process runs
    (``Scenario(collect_trace=True)`` through :func:`run`) and
    is stripped from any result shipped back from a worker process or
    stored in a :class:`~repro.parallel.cache.RunCache`.
    """

    algorithm: str
    params: WorkloadParams
    metrics: RunMetrics
    trace: Optional[TraceRecorder]
    simulated_time: float
    events_processed: int
    #: Request lifecycles: a ``(process, index)``-sorted
    #: :class:`RecordColumns`, or — for chunked scenarios
    #: (``record_chunk_rows``) — an issue-ordered
    #: :class:`~repro.metrics.columns.ChunkedColumns`.
    record_columns: "RecordColumns | ChunkedColumns"
    #: How the run ended (always populated; see :class:`Termination`).
    termination: Termination
    #: Messages lost to injected faults (0 under reliable links).
    messages_dropped: int = 0
    #: Tries the channel re-sent after a Bernoulli loss (0 under reliable
    #: links).
    resend_count: int = 0
    #: Lost tokens rebuilt by the recovery protocol (requires a
    #: ``Scenario.detector``; 0 when crashes go undetected).
    tokens_regenerated: int = 0
    #: Total simulated time from crash to regeneration, summed over lost
    #: tokens (one detection delay per token rebuilt at its holder's
    #: detection, two per token needing a confirmation round).
    recovery_time: float = 0.0
    #: Per-node downtime columns (:class:`DowntimeColumns`); ``None`` when
    #: the scenario declares no crash windows at all.
    downtime: Optional[DowntimeColumns] = None
    #: End-of-run telemetry (a
    #: :class:`~repro.obs.metrics.TelemetrySnapshot` of plain tuples),
    #: populated only when the run asked for it via
    #: ``Scenario(telemetry=...)``; ``None`` otherwise.  Picklable and
    #: deterministic, so it ships through the worker-pool path
    #: bit-identically to a ``workers=1`` run.
    telemetry: Optional[object] = None

    @property
    def records(self) -> "RecordColumns | ChunkedColumns":
        """Request lifecycles as a lazy sequence of ``RequestRecord`` views.

        This is :attr:`record_columns` itself: ``len``, iteration, integer
        indexing and slicing each materialise fresh views (mutations are
        not written back).  Times are float32 — sub-microsecond at the
        simulated-ms scale; exact doubles only exist on the in-process
        collector.
        """
        return self.record_columns

    @property
    def use_rate(self) -> float:
        """Resource-use rate in percent (Figure 5's y-axis)."""
        return self.metrics.use_rate


def run(scenario: Scenario) -> ExperimentResult:
    """Run one declarative scenario to completion.

    The result is a pure function of the scenario: the latency and fault
    specs are bound to this run here, randomness enters exclusively through
    ``scenario.params.seed``, and nothing is shared with any other run —
    which is what lets :mod:`repro.parallel` fan scenarios out over worker
    processes and memoise them by :meth:`Scenario.key`.

    The cyclic collector is paused for the whole call, and the caller's
    setting is restored when it returns or raises: the event loop makes
    no cyclic garbage, so a pass would only walk the growing live graph
    and find nothing.  Whether the run returns or raises, the cycles
    among its objects (nodes and network, clients and their allocators,
    queued callbacks and the simulator) are then broken, so reference
    counting frees them as this returns.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(scenario)
    finally:
        if enabled:
            gc.enable()


def _run(scenario: Scenario) -> ExperimentResult:
    """:func:`run` with the collector paused."""
    scenario = scenario.normalized()
    algo = get_algorithm(scenario.algorithm)
    params = scenario.params

    sim = Simulator(scenario.scheduler)
    trace = TraceRecorder() if scenario.collect_trace else None
    network = None
    faults = None
    if algo.needs_network:
        latency_spec = scenario.latency if scenario.latency is not None else ConstantLatencySpec()
        if scenario.faults is not None:
            faults = scenario.faults.bind(params)
        network = Network(sim, latency_spec.bind(params), faults=faults)
    crash_windows = faults.crash_windows() if faults is not None else ()
    # Crash windows, detected or not, need the crash-recovery subclass:
    # its reboot handler runs either way.  Every other run builds the protocol.
    build =algo.crash_build if crash_windows and algo.crash_build else algo.build
    allocators = build(scenario.config, params, sim, network, trace)

    metrics = MetricsCollector(
        params.num_resources, warmup=params.warmup, chunk_rows=scenario.record_chunk_rows
    )
    # The workload axis binds here, inside whatever process runs the
    # experiment — streams are lazy generators, never materialised lists,
    # so nothing workload-sized crosses the worker-pool boundary.
    workload = scenario.workload.build(params)
    clients = [
        Client(
            sim,
            process=p,
            allocator=allocators[p],
            requests=workload.stream_for(p),
            metrics=metrics,
            stop_issuing_at=params.duration,
            closed_loop=workload.closed_loop,
            max_requests=params.requests_per_process,
        )
        for p in range(params.num_processes)
    ]

    # Crash lifecycle: only instantiated when the fault layer actually
    # declares node outages, so the no-crash path schedules exactly the
    # same events as the pre-lifecycle substrate (bit-identity).  The
    # lifecycle events are scheduled before the clients start, giving
    # them the lowest sequence numbers at their timestamps — a crash and
    # a protocol event at the same instant always resolve crash-first.
    lifecycle: Optional[NodeLifecycle] = None
    coordinator: Optional[RecoveryCoordinator] = None
    if crash_windows:
        participants = {
            p: [obj for obj in (allocators[p], clients[p]) if hasattr(obj, "on_crash")]
            for p in range(params.num_processes)
        }
        lifecycle = NodeLifecycle(sim, crash_windows, participants)
        detector = scenario.detector.bind(params) if scenario.detector is not None else None
        if detector is not None:
            coordinator = RecoveryCoordinator(
                sim, allocators, lifecycle, detector, params.num_resources
            )

    # Telemetry is the nullable seam of repro.obs: nothing below imports
    # — or executes a single frame of — the package unless the scenario
    # carries a spec, which is what test_call_contracts.py pins.
    telemetry_runtime = None
    if scenario.telemetry is not None:
        from repro.obs.runtime import TelemetryRuntime

        telemetry_runtime = TelemetryRuntime(
            scenario.telemetry,
            sim,
            network=network,
            allocators=allocators,
            clients=clients,
            coordinator=coordinator,
        )
        metrics.telemetry = telemetry_runtime

    for client in clients:
        client.start()

    max_events = scenario.max_events
    if max_events is None:
        max_events = default_max_events(
            params, expected_requests=workload.expected_requests()
        )

    # Crash and reboot edges past the cap keep the queue alive but cap
    # nothing: a run left with only those has drained.
    late_edges = 0
    try:
        try:
            if faults is None:
                sim.run(max_events=max_events)
            else:
                # The cap is a stall guard, not a target: the clock stays at
                # the last event, so a run that drains before it reports its
                # real drain time, comparable to a reliable run's.  A run
                # still granting within one grace period of the cap is
                # draining, not stalled: the cap moves to its last grant plus
                # the grace, and the event budget stays one for the whole run.
                cap = fault_run_until(params)
                grace = stall_grace(params)
                while True:
                    sim.run(until=cap, max_events=max_events - sim.processed_events)
                    late_edges = sum(
                        cap < edge < math.inf
                        for _node, at, back in crash_windows
                        for edge in (at, back)
                    )
                    last = last_grant(clients)
                    if sim.pending_events == late_edges or last is None or last + grace <= cap:
                        break
                    cap = last + grace
        except SimulationError as exc:
            progress = _termination("error", clients).progress()
            raise SimulationError(f"{exc}; {progress}") from exc
        # The bounded loop stops only on a live event past the cap, so
        # anything queued beyond the late edges means the cap ended the run.
        termination = _termination(
            "fault_cap" if sim.pending_events > late_edges else "drained", clients
        )

        horizon = min(params.duration, sim.now) if sim.now > params.warmup else sim.now
        messages_total = network.stats.total if network is not None else 0
        messages_by_type: Dict[str, int] = (
            network.stats.snapshot() if network is not None else {}
        )
        run_metrics = metrics.build(
            algorithm=scenario.algorithm,
            horizon=horizon,
            messages_total=messages_total,
            messages_by_type=messages_by_type,
            size_buckets=(
                list(scenario.size_buckets) if scenario.size_buckets is not None else None
            ),
            # Only materialised when crashes actually aborted a CS, keeping
            # no-fault RunMetrics byte-identical to the pre-lifecycle layout.
            extra={"aborted": float(metrics.aborted)} if metrics.aborted else None,
        )

        if scenario.require_all_completed and termination.waiting:
            first = termination.waiting[0][0]
            raise RuntimeError(
                f"liveness failure under {scenario.algorithm!r}: run ended "
                f"{termination.reason}; {termination.progress()} (first: process {first}, "
                f"index {clients[first].waiting_index})"
            )

        return ExperimentResult(
            algorithm=scenario.algorithm,
            params=params,
            metrics=run_metrics,
            trace=trace,
            simulated_time=sim.now,
            events_processed=sim.processed_events,
            record_columns=metrics.result_columns(),
            termination=termination,
            messages_dropped=network.stats.dropped if network is not None else 0,
            resend_count=network.stats.resent if network is not None else 0,
            tokens_regenerated=coordinator.tokens_regenerated if coordinator is not None else 0,
            recovery_time=coordinator.recovery_time if coordinator is not None else 0.0,
            downtime=lifecycle.downtime_columns(sim.now) if lifecycle is not None else None,
            telemetry=telemetry_runtime.finalize() if telemetry_runtime is not None else None,
        )
    finally:
        # Returned or raised, nothing of the run outlives this call but
        # its result, so its objects are dead.  Each cycle among them
        # passes through a queued event, the network's bound send, a
        # protocol object or the telemetry hook; breaking those frees the
        # graph by reference counting.  Dropping an allocator's state
        # unties the network's node table and route cache, an
        # outstanding request's callbacks with its client and the
        # Naimi–Tréhel callbacks; dropping the coordinator's unties it
        # from the lifecycle.
        sim.clear()
        if network is not None:
            del network.send
        for obj in allocators:
            vars(obj).clear()
        if coordinator is not None:
            vars(coordinator).clear()
        metrics.telemetry = None
