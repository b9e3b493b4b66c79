"""The workload process: a fresh interpreter that owns one workload.

The orchestrator (``run.py``) starts one worker per workload, waits for
its ``ready`` line (that interval is ``setup_s``), then sends one command
per line on stdin (``run``, ``trace``, ``finish``, ``quit``) and reads one
JSON reply per line on stdout.
Only one worker is ever busy, so repeats of different workloads can be
interleaved while ``peak_rss_mb`` stays this process's own.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import math
import os
import pickle
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentResult, run
from repro.metrics.columns import ChunkedColumns
from repro.metrics.stats import percentile
from repro.parallel import RunCache, SweepExecutor
from repro.workload.arrivals import MarkovModulatedArrivals
from repro.workload.spec import OpenLoopSpec, SyntheticSpec, TraceReplaySpec

from . import probes
from .layers import fold
from .measure import normalise, spin
from .spec import LAYERS
from .workloads import Workload, build, warmup_scenario

#: A spin taken this recently stands in for the next repeat's spin-before.
_SPIN_REUSE_S = 0.05

#: Samples per isolated probe.
_PROBE_SAMPLES = 5

#: Warm samples, and cached results one sample reads (the figure sweep's size).
_WARM_SAMPLES = 9
_WARM_RESULTS = 40


def _chunks(columns) -> list:
    if isinstance(columns, ChunkedColumns):
        return [columns.chunk(i) for i in range(columns.chunk_count)]
    return [columns]


def _peak_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _digest(results: Sequence[ExperimentResult]) -> str:
    """One digest over everything a run reports, records included."""
    h = hashlib.sha256()
    for r in results:
        m = r.metrics
        h.update(
            repr(
                (
                    r.algorithm, r.events_processed, m.issued, m.completed,
                    r.use_rate, m.waiting.mean, m.messages_per_cs,
                    r.record_columns.content_key(),
                )
            ).encode("ascii")
        )
    return h.hexdigest()


def _backlog_max(columns) -> int:
    """Most requests one process ever had issued and not yet granted."""
    events: Dict[int, list] = {}
    for chunk in _chunks(columns):
        for process, issue, grant in zip(chunk.process, chunk.issue, chunk.grant):
            per_process = events.setdefault(process, [])
            per_process.append((issue, 1))
            if not math.isnan(grant):
                per_process.append((grant, -1))
    worst = 0
    for per_process in events.values():
        depth = 0
        # A grant at the instant of the next arrival frees its slot first.
        for _, step in sorted(per_process):
            depth += step
            worst = max(worst, depth)
    return worst


def _simulated(results: Sequence[ExperimentResult]) -> dict:
    """Simulated metrics and exact counters, pooled over the workload's jobs."""
    waits: List[float] = []
    backlog = 0
    for r in results:
        warmup = r.params.warmup
        for chunk in _chunks(r.record_columns):
            waits += [
                grant - issue
                for issue, grant in zip(chunk.issue, chunk.grant)
                if issue >= warmup and not math.isnan(grant)
            ]
        backlog = max(backlog, _backlog_max(r.record_columns))
    completed = sum(r.metrics.completed for r in results)
    return {
        "use_rate_pct": sum(r.use_rate for r in results) / len(results),
        "msgs_per_cs": sum(r.metrics.messages_total for r in results) / completed,
        "wait_mean_ms": sum(waits) / len(waits),
        "wait_p99_ms": percentile(waits, 99.0),
        "sim.engine.events": sum(r.events_processed for r in results),
        "sim.network.msgs": sum(r.metrics.messages_total for r in results),
        "sim.network.dropped": sum(r.messages_dropped for r in results),
        "core.resends": sum(r.resend_count for r in results),
        "core.recovery.regenerated": sum(r.tokens_regenerated for r in results),
        "experiments.driver.issued": sum(r.metrics.issued for r in results),
        "experiments.driver.completed": completed,
        "experiments.driver.backlog_max": backlog,
    }


class Worker:
    """State of one workload process."""

    def __init__(self, name: str, seed: int, scale: float, work_dir: str) -> None:
        self.workload: Workload = build(name, seed, scale)
        self.scale = scale
        self.keys = [job.key() for job in self.workload.jobs]
        self._tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=work_dir)
        self.cache_dir: Optional[str] = None
        self._last_spin = (0.0, -math.inf)
        self._reference: Optional[str] = None
        self._simulated: Optional[dict] = None
        run(warmup_scenario())

    def close(self) -> None:
        shutil.rmtree(self._tmp, ignore_errors=True)

    # -- calibration ---------------------------------------------------- #
    def _spin(self, reuse: bool = False) -> float:
        value, ended = self._last_spin
        if reuse and perf_counter() - ended < _SPIN_REUSE_S:
            return value
        value = spin(self.scale)
        self._last_spin = (value, perf_counter())
        return value

    # -- output checks --------------------------------------------------- #
    def _check(self, results: Sequence[ExperimentResult], problems: Sequence[str] = ()) -> dict:
        """Requests issued, digest and problems of one repeat's results.

        Any problem fails the whole repeat: the orchestrator then counts
        every request it issued as failed.
        """
        problems = list(problems)
        for r in results:
            m = r.metrics
            lost = m.issued - m.completed
            if lost and self.workload.crash_node is not None:
                # The request in flight on the node at the instant it is
                # killed dies with it by construction; a request of a
                # surviving node that never completes is a failure.
                lost_by_survivors = sum(
                    1
                    for chunk in _chunks(r.record_columns)
                    for process, release in zip(chunk.process, chunk.release)
                    if math.isnan(release) and process != self.workload.crash_node
                )
                if lost - lost_by_survivors > 1:
                    problems.append(f"dead node lost {lost - lost_by_survivors} requests")
                lost = lost_by_survivors
            if lost:
                problems.append(f"{r.algorithm}: {lost} of {m.issued} requests never completed")
        digest = _digest(results)
        if self._reference is None:
            self._reference = digest
            self._simulated = _simulated(results)
        elif digest != self._reference:
            problems.append("result digest differs from the first repeat")
        issued = sum(r.metrics.issued for r in results)
        return {"digest": digest, "issued": issued, "problems": problems}

    def _sweep(self, warm: bool, passes: int = 1) -> tuple:
        """The job list through two pool workers and a disk cache.

        Cold (``warm=False``) starts from a fresh cache directory; warm
        reads the one the last cold sweep filled.  ``passes`` > 1 repeats
        the pass, a new ``RunCache`` object each.  Returns the mean
        seconds of one pass, the last pass's results, and a problem if
        the cache did not hit exactly when it should.
        """
        jobs = self.workload.jobs
        if not warm:
            if self.cache_dir is not None:
                shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self._tmp)
        gc.collect()
        start = perf_counter()
        for _ in range(passes):
            cache = RunCache.persistent(self.cache_dir)
            results = SweepExecutor(workers=2, cache=cache).run(jobs)
        raw = (perf_counter() - start) / passes
        want = (len(jobs), 0) if warm else (0, len(jobs))
        problems = []
        if (cache.hits, cache.misses) != want:
            problems.append(
                f"cache served {cache.hits} hits and {cache.misses} misses, "
                f"expected {want[0]} and {want[1]}"
            )
        return raw, results, problems

    # -- end-to-end operations ------------------------------------------- #
    def op_run(self) -> dict:
        """One cold repeat: ``run(scenario)``, or the sweep on a fresh cache."""
        before = self._spin(reuse=True)
        if self.workload.sweep:
            raw, results, problems = self._sweep(warm=False)
        else:
            gc.collect()
            start = perf_counter()
            results = [run(self.workload.jobs[0])]
            raw = perf_counter() - start
            problems = []
        after = self._spin()
        check = self._check(results, problems)
        return {"raw": [raw], "spin_before": before, "spin_after": after, "checks": [check]}

    def op_finish(self) -> dict:
        """Simulated metrics and this process's peak memory.

        Pool children are left out: which jobs the pool hands each child
        is a race, and the same sweep peaked anywhere from 62 to 74 MiB
        in them.  A child's footprint is that of single runs, which the
        other workloads report; the traced run gives it unbounded as
        ``parallel.child_rss_mb``.
        """
        return {"simulated": self._simulated, "peak_rss_mb": _peak_mib(resource.RUSAGE_SELF)}

    # -- traced run -------------------------------------------------------- #
    def _serial(self, scheduler: Optional[str] = None) -> tuple:
        """Every job in process, one after the other: (results, normalised per-job seconds)."""
        jobs = self.workload.jobs
        if scheduler is not None:
            jobs = [job.replace(scheduler=scheduler) for job in jobs]
        before = self._spin(reuse=True)
        gc.collect()
        results, seconds = [], []
        for job in jobs:
            start = perf_counter()
            results.append(run(job))
            seconds.append(perf_counter() - start)
        after = self._spin()
        return results, [normalise(raw, before, after) for raw in seconds]

    def op_trace(self) -> dict:
        """The per-layer numbers: untraced pass, traced pass, sweep spans, probes."""
        jobs = self.workload.jobs
        values: Dict[str, float] = {}

        results, job_seconds = self._serial()
        serial_s = sum(job_seconds)
        checks = [self._check(results)]
        values["parallel.jobs_serial_s"] = serial_s
        values["parallel.job_s_max"] = max(job_seconds)
        values["sim.engine.events_per_s"] = sum(r.events_processed for r in results) / serial_s

        profile = cProfile.Profile()
        before = self._spin(reuse=True)
        gc.collect()
        start = perf_counter()
        profile.enable()
        traced = [run(job) for job in jobs]
        profile.disable()
        traced_s = normalise(perf_counter() - start, before, self._spin())
        checks.append(self._check(traced))
        values["trace.overhead_x"] = traced_s / serial_s
        table = fold(pstats.Stats(profile).stats)
        for layer in LAYERS:
            row = table[layer]
            # cProfile's own clock ran under tracing; scale the shares to
            # the traced wall time so self_s sums to what was waited for.
            values[f"{layer}.self_s"] = row["self_share"] * traced_s
            values[f"{layer}.self_share"] = row["self_share"]
            values[f"{layer}.calls"] = row["calls"]

        before = self._spin(reuse=True)
        cold_raw, pooled, problems = self._sweep(warm=False)
        cold_s = normalise(cold_raw, before, self._spin())
        checks.append(self._check(pooled, problems))
        # One warm sample reads about _WARM_RESULTS cached results, so a
        # single-scenario workload (a millisecond per pass) averages many
        # passes where the 40-job sweep makes one.
        passes = max(1, int(_WARM_RESULTS * self.scale) // len(jobs))
        before = self._spin(reuse=True)
        warm = [self._sweep(warm=True, passes=passes) for _ in range(_WARM_SAMPLES)]
        after = self._spin()
        checks += [self._check(served, problems) for _, served, problems in warm]
        values["parallel.sweep_warm_s"] = normalise(
            statistics.median(raw for raw, _, _ in warm), before, after
        )
        values["parallel.pool_overhead_share"] = (cold_s - serial_s / min(2, len(jobs))) / cold_s
        values["parallel.child_rss_mb"] = _peak_mib(resource.RUSAGE_CHILDREN)
        values["parallel.disk_bytes"] = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(self.cache_dir)
            for name in names
        )
        # Checked above: the cold pass missed every job, the warm pass hit every one.
        values["parallel.cache_misses"] = len(jobs)
        values["parallel.cache_hits"] = len(jobs)

        ratios = []
        for pair in range(self.workload.calendar_pairs):
            order = ("heap", "calendar") if pair % 2 == 0 else ("calendar", "heap")
            seconds = {}
            for scheduler in order:
                again, per_job = self._serial(scheduler)
                seconds[scheduler] = sum(per_job)
                checks.append(self._check(again))
            ratios.append(seconds["calendar"] / seconds["heap"])
        values["sim.engine.calendar_run_ratio"] = statistics.median(ratios)

        values.update(self._probes(results))
        values.update(self._simulated)
        return {"values": values, "checks": checks}

    def _probes(self, results: Sequence[ExperimentResult]) -> Dict[str, float]:
        """Median of ``_PROBE_SAMPLES`` normalised samples of each isolated probe."""
        scale = self.scale
        events = max(1_000, int(200_000 * scale))
        sends = max(1_000, int(50_000 * scale))
        requests = max(320, int(20_000 * scale))
        params = self.workload.jobs[0].params
        swf = os.path.join(_repo_root(), "examples", "data", "sample.swf")
        arrivals = MarkovModulatedArrivals(
            rate=0.01, burst_factor=12, burst_fraction=0.15, dwell=400
        )
        blobs = [pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL) for r in results]
        put_dir = os.path.join(self._tmp, "probe-cache")
        table = {
            "sim.engine.heap_ns_per_event": (1e9, lambda: probes.engine_event("heap", events)),
            "sim.engine.calendar_ns_per_event": (
                1e9, lambda: probes.engine_event("calendar", events)),
            "sim.network.send_const_ns": (1e9, lambda: probes.network_send(False, sends)),
            "sim.network.send_general_ns": (1e9, lambda: probes.network_send(True, sends)),
            "workload.synthetic_ns_per_req": (
                1e9, lambda: probes.stream_request(SyntheticSpec(), params, requests // 32)),
            "workload.openloop_ns_per_req": (
                1e9,
                lambda: probes.stream_request(
                    OpenLoopSpec(arrival=arrivals), params, requests // 32),
            ),
            "workload.trace_ns_per_req": (
                1e9, lambda: probes.stream_request(TraceReplaySpec(path=swf), params, 10**9)),
            "metrics.collect_ns_per_req": (1e9, lambda: probes.collect_request(None, requests)),
            "metrics.collect_chunked_ns_per_req": (
                1e9, lambda: probes.collect_request(512, requests)),
            "metrics.pickle_ms": (1e3, lambda: probes.pickle_results(results)),
            "metrics.unpickle_ms": (1e3, lambda: probes.unpickle_results(blobs)),
            "parallel.key_us": (1e6, lambda: probes.scenario_key(self.workload.jobs)),
            "parallel.cache_put_ms": (
                1e3, lambda: probes.cache_put(put_dir, self.keys, results)),
            "parallel.cache_get_ms": (1e3, lambda: probes.cache_get(put_dir, self.keys)),
        }
        values: Dict[str, float] = {"metrics.result_bytes": sum(len(b) for b in blobs)}
        for name, (unit_scale, probe) in table.items():
            before = self._spin(reuse=True)
            raw = statistics.median(probe() for _ in range(_PROBE_SAMPLES))
            after = self._spin()
            values[name] = normalise(raw, before, after) * unit_scale
        return values


def _repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, os.pardir, os.pardir, os.pardir))


def serve(name: str, seed: int, scale: float, work_dir: str) -> int:
    """Build the workload, report ready, then answer commands until ``quit``."""
    worker = Worker(name, seed, scale, work_dir)
    try:
        print(json.dumps({"ready": True}), flush=True)
        for line in sys.stdin:
            op = line.strip()
            if op == "quit":
                break
            try:
                reply = getattr(worker, "op_" + op)()
            except Exception:  # the boundary: report the failure, keep serving
                reply = {"error": traceback.format_exc()}
            print(json.dumps(reply), flush=True)
    finally:
        worker.close()
    return 0
