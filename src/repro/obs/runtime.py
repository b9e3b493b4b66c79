"""Live instrumentation of a running experiment.

:class:`TelemetryRuntime` is created by the runner only when a run asks
for telemetry (``Scenario(telemetry=...)``) — the nullable seam that
keeps default runs at zero frames from this package.  It samples the run **pull-style**: a self-rescheduling probe
event reads counters the hot layers already maintain (the engine's
dispatched/pending totals, :class:`~repro.sim.network.MessageStats`,
allocator resend counts and queue depths, recovery totals) every
``sample_interval`` simulated ms, so instrumentation costs nothing on
the per-event path.  The single *push* hook is
:meth:`observe_grant`, called by the metrics collector behind a
``None``-check when a request enters its critical section — the one
place a per-request waiting time exists.

Everything is driven by simulated time: snapshots of the same scenario
are bit-identical whichever worker produced them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.driver import last_grant
from repro.obs.health import HealthMonitor, HeartbeatCheck, HealthStatus, StallCheck
from repro.obs.metrics import MetricsRegistry, TelemetrySnapshot
from repro.obs.spec import TelemetrySpec

__all__ = ["TelemetryRuntime"]


class TelemetryRuntime:
    """Registry + probe + health checks for one experiment run.

    Parameters mirror what the runner has in hand when it wires a run:
    the simulator, the (possibly absent) network, the allocator nodes,
    the workload clients and the (possibly absent) recovery coordinator.
    """

    def __init__(
        self,
        spec: TelemetrySpec,
        sim,
        network=None,
        allocators: Sequence = (),
        clients: Sequence = (),
        coordinator=None,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self.network = network
        self.allocators = list(allocators)
        self.clients = list(clients)
        self.coordinator = coordinator

        reg = MetricsRegistry()
        self.registry = reg
        self._events = reg.counter(
            "repro_events_dispatched_total", "Simulation events dispatched."
        )
        self._backlog = reg.gauge(
            "repro_scheduler_backlog", "Events pending in the scheduler queue."
        )
        self._sim_time = reg.gauge(
            "repro_sim_time_ms", "Current simulated time in ms."
        )
        self._samples_taken = reg.counter(
            "repro_telemetry_samples_total", "Telemetry probe firings."
        )
        self._sent = reg.counter(
            "repro_messages_sent_total",
            "Messages sent, by message class.",
            labelnames=("type",),
        )
        self._dropped = reg.counter(
            "repro_messages_dropped_total",
            "Messages dropped by the fault layer, by message class.",
            labelnames=("type",),
        )
        self._resends = reg.counter(
            "repro_resends_total", "Control-plane resends across allocator nodes."
        )
        self._issued = reg.counter(
            "repro_requests_issued_total", "Requests issued by workload clients."
        )
        self._completed = reg.counter(
            "repro_requests_completed_total", "Requests completed (CS exited)."
        )
        self._grants = reg.counter(
            "repro_grants_total", "Requests granted (CS entered)."
        )
        self._wait = reg.histogram(
            "repro_request_wait_ms",
            "Request waiting time (issue to grant), simulated ms.",
            buckets=spec.wait_buckets,
        )
        self._queue_depth = reg.gauge(
            "repro_node_queue_depth",
            "Waiting requests queued on tokens owned by each node.",
            labelnames=("node",),
        )
        self._token_wait = reg.gauge(
            "repro_node_token_wait_ms",
            "Most recent request wait granted by each node, simulated ms.",
            labelnames=("node",),
        )
        self._regenerated = reg.counter(
            "repro_tokens_regenerated_total", "Tokens regenerated after crashes."
        )
        self._fences = reg.counter(
            "repro_fences_applied_total", "Fencing-epoch updates applied to nodes."
        )
        self._recovery_time = reg.gauge(
            "repro_recovery_time_ms", "Simulated time spent in token recovery."
        )
        self._health_gauge = reg.gauge(
            "repro_health",
            "Health status by check (0 healthy, 1 unknown, 2 degraded, 3 unhealthy).",
            labelnames=("check",),
        )

        self.monitor = HealthMonitor()
        self._heartbeat = self.monitor.register(HeartbeatCheck())
        self._stall = self.monitor.register(StallCheck(spec.stall_after))

        # Last-seen totals for delta sampling of cumulative sources.
        self._last: Dict[str, float] = {}
        self._last_sent: Dict[str, int] = {}
        self._last_dropped: Dict[str, int] = {}
        self._armed = False

        # Child series are resolved once here, not per sample/grant:
        # ``labels()`` validates the label set and stringifies values on
        # every call, which would dominate telemetry cost on short runs
        # (the probe touches every node each sample, the grant hook
        # fires per request).
        if spec.node_gauges:
            self._wait_children = [
                self._token_wait.labels(node=p) for p in range(len(self.clients))
            ]
            self._depth_children = [
                (a, self._queue_depth.labels(node=getattr(a, "node_id", i)))
                for i, a in enumerate(self.allocators)
                if hasattr(a, "telemetry_queue_depth")
            ]
        else:
            self._wait_children = []
            self._depth_children = []
        self._sent_children: Dict[str, object] = {}
        self._dropped_children: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # push hook (collector.on_grant, behind a None-check)
    # ------------------------------------------------------------------ #
    def observe_grant(self, time: float, process: int, wait: float) -> None:
        """Record one granted request: called when a CS is entered."""
        self._grants.inc()
        self._wait.observe(wait)
        wait_children = self._wait_children
        if wait_children:
            wait_children[process].set(wait)

    # ------------------------------------------------------------------ #
    # pull-style sampling probe
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Arm the sampling probe (first firing one interval from now)."""
        if not self._armed:
            self._armed = True
            self.sim.post_in(self.spec.sample_interval, self._probe)

    def _delta(self, key: str, current: float) -> float:
        """Non-negative delta of a cumulative source since the last sample."""
        last = self._last.get(key, 0.0)
        self._last[key] = current
        return current - last if current > last else 0.0

    def sample(self) -> None:
        """Read every pull-style source into the registry, once."""
        sim = self.sim
        now = sim.now
        self._samples_taken.inc()
        self._sim_time.set(now)
        self._events.inc(self._delta("events", sim.processed_events))
        self._backlog.set(sim.pending_events)

        if self.network is not None:
            stats = self.network.stats
            for name, count in stats.by_type.items():
                prev = self._last_sent.get(name, 0)
                if count > prev:
                    child = self._sent_children.get(name)
                    if child is None:
                        child = self._sent.labels(type=name)
                        self._sent_children[name] = child
                    child.inc(count - prev)
                self._last_sent[name] = count
            for name, count in stats.dropped_snapshot().items():
                prev = self._last_dropped.get(name, 0)
                if count > prev:
                    child = self._dropped_children.get(name)
                    if child is None:
                        child = self._dropped.labels(type=name)
                        self._dropped_children[name] = child
                    child.inc(count - prev)
                self._last_dropped[name] = count

        resends = sum(getattr(a, "resend_count", 0) for a in self.allocators)
        self._resends.inc(self._delta("resends", resends))
        for allocator, child in self._depth_children:
            child.set(allocator.telemetry_queue_depth)

        issued = sum(c.issued for c in self.clients)
        completed = sum(c.completed for c in self.clients)
        self._issued.inc(self._delta("issued", issued))
        self._completed.inc(self._delta("completed", completed))

        if self.coordinator is not None:
            coord = self.coordinator
            self._regenerated.inc(
                self._delta("regenerated", coord.tokens_regenerated)
            )
            self._fences.inc(
                self._delta("fences", getattr(coord, "fences_applied", 0))
            )
            self._recovery_time.set(coord.recovery_time)

        self._heartbeat.beat(now)
        self._stall.update(now, last_grant(self.clients))

    def _probe(self) -> None:
        self.sample()
        # Re-arm while clients still issue or hold requests (stale resend
        # timers keep a healthy closed loop's queue non-empty after the last
        # grant), never into an otherwise empty queue: the run has drained.
        if self.sim.pending_events and any(c.waiting or not c.stopped for c in self.clients):
            self.sim.post_in(self.spec.sample_interval, self._probe)
        else:
            self._armed = False

    # ------------------------------------------------------------------ #
    # end of run
    # ------------------------------------------------------------------ #
    def finalize(self) -> TelemetrySnapshot:
        """Take a final sample and freeze the run's telemetry."""
        self.sample()
        reports = self.monitor.run_all(self.sim.now)
        for report in reports:
            self._health_gauge.labels(check=report.name).set(
                HealthStatus.severity(report.status)
            )
        return TelemetrySnapshot(samples=self.registry.collect(), health=reports)
