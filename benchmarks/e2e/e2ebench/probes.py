"""Isolated probes: one layer's public API driven directly, no simulation.

Each probe returns raw seconds per unit of work for one sample; the
worker takes the median of several samples and normalises it.  Read them
beside the traced shares: cProfile inflates call-heavy layers, these do
not.
"""

from __future__ import annotations

import gc
import itertools
import pickle
from time import perf_counter
from typing import Callable, Sequence

from repro.experiments.scenario import Scenario
from repro.metrics.collector import MetricsCollector
from repro.parallel.cache import RunCache
from repro.sim.engine import Simulator
from repro.sim.faults import NodeCrashModel
from repro.sim.latency import ConstantLatency, UniformJitterLatency
from repro.sim.network import Network
from repro.sim.node import Node
from repro.workload.params import WorkloadParams
from repro.workload.spec import WorkloadSpec


def _timed(fn: Callable[[], object]) -> float:
    gc.collect()
    start = perf_counter()
    fn()
    return perf_counter() - start


def _nop() -> None:
    pass


def engine_event(scheduler: str, events: int) -> float:
    """Seconds per no-op event: ``schedule`` then ``run`` of ``events`` events."""
    sim = Simulator(scheduler)

    def work() -> None:
        schedule = sim.schedule
        for i in range(events):
            schedule(float(i % 97) * 0.01, _nop)
        sim.run()

    return _timed(work) / events


class _Ping:
    __slots__ = ()


class _Sink(Node):
    def on__Ping(self, src: int, message: _Ping) -> None:
        pass


def network_send(general: bool, sends: int, nodes: int = 32) -> float:
    """Seconds per message, send through delivery, between stub nodes.

    ``general=False`` is the no-fault constant-latency binding;
    ``general=True`` is jittered latency plus an armed crash model, the
    binding ``crash_recovery`` runs on (fault hooks, FIFO clamp,
    ``_deliver``).
    """
    sim = Simulator()
    if general:
        network = Network(
            sim,
            UniformJitterLatency(0.6, 0.4, seed=1),
            faults=NodeCrashModel(node=nodes, at=0.0),
        )
    else:
        network = Network(sim, ConstantLatency(0.6))
    for node_id in range(nodes):
        _Sink(sim, network, node_id)
    message = _Ping()
    batch = 1_000

    def work() -> None:
        send = network.send
        for start in range(0, sends, batch):
            for i in range(start, start + batch):
                send(i % nodes, (i * 7 + 1) % nodes, message)
            sim.run()

    return _timed(work) / sends


def stream_request(spec: WorkloadSpec, params: WorkloadParams, per_process: int) -> float:
    """Seconds per request drawn from ``spec``'s lazy per-process streams."""
    drawn = 0

    def work() -> None:
        nonlocal drawn
        workload = spec.build(params)
        for process in range(params.num_processes):
            for _ in itertools.islice(workload.stream_for(process), per_process):
                drawn += 1

    seconds = _timed(work)
    return seconds / max(drawn, 1)


def collect_request(chunk_rows, requests: int, processes: int = 32) -> float:
    """Seconds per request through the collector: issue, grant, release, build, columns."""
    resources = [frozenset((p, 32 + p)) for p in range(processes)]

    def work() -> None:
        collector = MetricsCollector(80, warmup=10.0, chunk_rows=chunk_rows)
        now = 0.0
        for index in range(requests // processes):
            for p in range(processes):
                collector.on_issue(now, p, index, resources[p])
            for p in range(processes):
                collector.on_grant(now + 1.0, p, index)
            for p in range(processes):
                collector.on_release(now + 6.0, p, index)
            now += 7.0
        collector.build("probe", horizon=now)
        collector.result_columns()

    return _timed(work) / requests


def pickle_results(results: Sequence[object]) -> float:
    """Seconds to pickle every result of the workload (what IPC and the cache pay)."""
    return _timed(lambda: [pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL) for r in results])


def unpickle_results(blobs: Sequence[bytes]) -> float:
    """Seconds to unpickle every result of the workload."""
    return _timed(lambda: [pickle.loads(b) for b in blobs])


def scenario_key(jobs: Sequence[Scenario]) -> float:
    """Seconds per ``Scenario.key()`` (normalise, canonicalise, SHA-256)."""
    return _timed(lambda: [job.key() for job in jobs]) / len(jobs)


def cache_put(directory: str, keys: Sequence[str], results: Sequence[object]) -> float:
    """Seconds per ``RunCache.put`` to disk."""
    cache = RunCache.persistent(directory)
    return _timed(lambda: [cache.put(k, r) for k, r in zip(keys, results)]) / len(keys)


def cache_get(directory: str, keys: Sequence[str]) -> float:
    """Seconds per disk ``RunCache.get`` (new cache object, so nothing is in memory)."""
    cache = RunCache.persistent(directory)
    return _timed(lambda: [cache.get(k) for k in keys]) / len(keys)
