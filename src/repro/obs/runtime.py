"""Live instrumentation of a running experiment.

:class:`TelemetryRuntime` is created by the runner only when a run asks
for telemetry (``Scenario(telemetry=...)``) — the nullable seam that
keeps default runs at zero frames from this package.  Every counter it
reports is a monotone total a hot layer already maintains (the engine's
dispatched count, :class:`~repro.sim.network.MessageStats` with the
channel's re-sent tries, client issue/complete counts, recovery totals), so
:meth:`~TelemetryRuntime.finalize` reads each total once, at the final
sample, and builds the snapshot's samples directly; gauges are read at
that sample too.  A self-rescheduling probe fires every
``sample_interval`` simulated ms and counts itself.  The single *push*
hook is :meth:`~TelemetryRuntime.observe_grant`, called by the metrics
collector behind a ``None``-check when a request enters its critical
section — the one place a per-request waiting time exists.

Everything is driven by simulated time: snapshots of the same scenario
are bit-identical whichever worker produced them.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Mapping, Sequence

from repro.experiments.driver import last_grant
from repro.obs.health import HealthStatus, grant_progress, heartbeat
from repro.obs.metrics import MetricSample, TelemetrySnapshot
from repro.obs.spec import TelemetrySpec

__all__ = ["TelemetryRuntime"]


def _single(name: str, kind: str, help: str, value: float) -> MetricSample:
    """Sample of an unlabelled family."""
    return MetricSample(name, kind, help, (((), float(value)),))


def _labelled(name: str, kind: str, help: str, label: str, values: Mapping) -> MetricSample:
    """Sample of a family with one label, series sorted by label value."""
    series = tuple((((label, key),), float(value)) for key, value in sorted(values.items()))
    return MetricSample(name, kind, help, series)


class TelemetryRuntime:
    """Probe, wait histogram and end-of-run snapshot for one experiment run.

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
        self._samples = 0
        # Wait histogram: per-bucket (non-cumulative) hit counts, the
        # last slot being +Inf; ``le`` is inclusive, as in Prometheus.
        self._bounds = tuple(float(b) for b in spec.wait_buckets)
        self._bucket_hits = [0] * (len(self._bounds) + 1)
        self._wait_sum = 0.0
        # Most recent granted wait per process (per-node gauges only).
        self._last_wait = [0.0] * len(self.clients) if spec.node_gauges else []

    def observe_grant(self, time: float, process: int, wait: float) -> None:
        """Record one granted request: called when a CS is entered."""
        self._bucket_hits[bisect_left(self._bounds, wait)] += 1
        self._wait_sum += wait
        if self._last_wait:
            self._last_wait[process] = float(wait)

    def start(self) -> None:
        """Arm the sampling probe (first firing one interval from now)."""
        self.sim.schedule(self.spec.sample_interval, self._probe)

    def _probe(self) -> None:
        self._samples += 1
        # Re-arm while clients still issue or hold requests, never into an
        # otherwise empty queue: the run has drained.
        if self.sim.pending_events and any(c.waiting or not c.stopped for c in self.clients):
            self.sim.schedule(self.spec.sample_interval, self._probe)

    def finalize(self) -> TelemetrySnapshot:
        """Take the final sample and freeze the run's telemetry."""
        self._samples += 1
        sim, spec, coord = self.sim, self.spec, self.coordinator
        now = sim.now
        sent = dropped = {}
        if self.network is not None:
            sent = self.network.stats.by_type
            dropped = self.network.stats.dropped_by_type
        depths = {}
        if spec.node_gauges:
            depths = {
                str(getattr(a, "node_id", i)): a.telemetry_queue_depth
                for i, a in enumerate(self.allocators)
                if hasattr(a, "telemetry_queue_depth")
            }
        cumulative = tuple(accumulate(self._bucket_hits))
        health = (
            heartbeat(now),
            grant_progress(now, last_grant(self.clients), spec.stall_after),
        )
        samples = (
            _single("repro_events_dispatched_total", "counter",
                    "Simulation events dispatched.", sim.processed_events),
            _single("repro_scheduler_backlog", "gauge",
                    "Events pending in the scheduler queue.", sim.pending_events),
            _single("repro_sim_time_ms", "gauge", "Current simulated time in ms.", now),
            _single("repro_telemetry_samples_total", "counter",
                    "Telemetry probe firings.", self._samples),
            _labelled("repro_messages_sent_total", "counter",
                      "Messages sent, by message class.", "type", sent),
            _labelled("repro_messages_dropped_total", "counter",
                      "Messages dropped by the fault layer, by message class.", "type", dropped),
            _single("repro_resends_total", "counter",
                    "Control-plane resends across allocator nodes.",
                    self.network.stats.resent if self.network is not None else 0),
            _single("repro_requests_issued_total", "counter",
                    "Requests issued by workload clients.",
                    sum(c.issued for c in self.clients)),
            _single("repro_requests_completed_total", "counter",
                    "Requests completed (CS exited).", sum(c.completed for c in self.clients)),
            _single("repro_grants_total", "counter", "Requests granted (CS entered).",
                    cumulative[-1]),
            MetricSample(
                "repro_request_wait_ms", "histogram",
                "Request waiting time (issue to grant), simulated ms.",
                (((), (cumulative, self._wait_sum, cumulative[-1])),), self._bounds,
            ),
            _labelled("repro_node_queue_depth", "gauge",
                      "Waiting requests queued on tokens owned by each node.", "node", depths),
            _labelled("repro_node_token_wait_ms", "gauge",
                      "Most recent request wait granted by each node, simulated ms.", "node",
                      {str(p): wait for p, wait in enumerate(self._last_wait)}),
            _single("repro_tokens_regenerated_total", "counter",
                    "Tokens regenerated after crashes.",
                    coord.tokens_regenerated if coord is not None else 0),
            _single("repro_fences_applied_total", "counter",
                    "Fencing-epoch updates applied to nodes.",
                    coord.fences_applied if coord is not None else 0),
            _single("repro_recovery_time_ms", "gauge",
                    "Simulated time spent in token recovery.",
                    coord.recovery_time if coord is not None else 0.0),
            _labelled("repro_health", "gauge",
                      "Health status by check (0 healthy, 1 unknown, 2 degraded, 3 unhealthy).",
                      "check", {r.name: HealthStatus.severity(r.status) for r in health}),
        )
        return TelemetrySnapshot(samples=samples, health=health)
