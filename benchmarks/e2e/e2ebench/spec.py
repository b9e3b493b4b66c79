"""Names of the benchmark: workloads, metrics, layers.

``BENCHMARK.json`` at the repository root carries the same workload and
metric names (the driver reads that file, the harness reads this one);
``test_e2e_harness.py`` asserts the two agree.
"""

from __future__ import annotations

#: Nominal measuring window of one workload run (``run_seconds`` in
#: ``BENCHMARK.json``).  ``--seconds`` scales the repeat counts from it.
RUN_SECONDS = 20

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS = {
    "closed_loop_paper": (
        "paper's testbed: with_loan, closed loop of 32 clients, high load, no faults; "
        "core does most of the work and Network takes its constant fast path"
    ),
    "open_loop_bl": (
        "bouabdallah under bursty open-loop arrivals with chunked records; core does "
        "nothing, so metrics, engine, baselines, network, workload and driver share the time"
    ),
    "crash_recovery": (
        "closed_loop_paper plus a permanent node crash, heartbeat detector and jittered "
        "latency; Network on its general send path, fault hooks, lifecycle and core.recovery"
    ),
    "figure_sweep": (
        "40-scenario figure grid (5 algorithms x 4 phi x 2 loads) through SweepExecutor with "
        "2 workers and a disk cache; the only workload where parallel and all baselines work"
    ),
}

#: Cold repeats of each workload at the nominal ``--seconds``.
REPEATS = {
    "closed_loop_paper": 9,
    "open_loop_bl": 9,
    "crash_recovery": 9,
    "figure_sweep": 6,
}

#: End-to-end metrics: name -> (unit, better, bound).  Every workload
#: reports every one of them (the driver's contract).
END_TO_END = {
    "run_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.08),
    "use_rate_pct": ("%", "higher", 0.25),
    "msgs_per_cs": ("count", "lower", 0.20),
}

#: Simulated metrics: pure functions of (code, seed).  ``compare.py``
#: requires them identical when two result files share a seed.
EXACT_END_TO_END = ("use_rate_pct", "msgs_per_cs")

#: The layer fold: a profiled frame's file decides its layer.
LAYERS = (
    "workload",
    "sim.engine",
    "sim.network",
    "sim.faults",
    "allocator",
    "core",
    "core.recovery",
    "mutex",
    "baselines",
    "experiments.driver",
    "experiments.runner",
    "metrics",
    "parallel",
    "obs",
    "stdlib",
)

#: Per-layer counters read from the public result; exact.  name -> (unit, better).
COUNTERS = {
    "sim.engine.events": ("count", "lower"),
    "sim.network.msgs": ("count", "lower"),
    "sim.network.dropped": ("count", "lower"),
    "core.resends": ("count", "lower"),
    "core.recovery.regenerated": ("count", "lower"),
    "experiments.driver.issued": ("count", "higher"),
    "experiments.driver.completed": ("count", "higher"),
    "experiments.driver.backlog_max": ("count", "lower"),
    "metrics.result_bytes": ("B", "lower"),
    "parallel.disk_bytes": ("B", "lower"),
    "parallel.cache_hits": ("count", "higher"),
    "parallel.cache_misses": ("count", "lower"),
    # Simulated like use_rate_pct and msgs_per_cs, but heavy-tailed: their
    # spread across seeds (20-40 %) is wider than any bound the driver
    # accepts, so they are reported here, unbounded, and compared exactly.
    "wait_mean_ms": ("ms", "lower"),
    "wait_p99_ms": ("ms", "lower"),
}

#: Per-layer host-time metrics (traced run, isolated probes, sweep spans).
TIMED = {
    "trace.overhead_x": ("x", "lower"),
    "sim.engine.events_per_s": ("1/s", "higher"),
    "sim.engine.heap_ns_per_event": ("ns", "lower"),
    "sim.engine.calendar_ns_per_event": ("ns", "lower"),
    "sim.engine.calendar_run_ratio": ("x", "lower"),
    "sim.network.send_const_ns": ("ns", "lower"),
    "sim.network.send_general_ns": ("ns", "lower"),
    "workload.synthetic_ns_per_req": ("ns", "lower"),
    "workload.openloop_ns_per_req": ("ns", "lower"),
    "workload.trace_ns_per_req": ("ns", "lower"),
    "metrics.collect_ns_per_req": ("ns", "lower"),
    "metrics.collect_chunked_ns_per_req": ("ns", "lower"),
    "metrics.pickle_ms": ("ms", "lower"),
    "metrics.unpickle_ms": ("ms", "lower"),
    "parallel.key_us": ("us", "lower"),
    "parallel.cache_put_ms": ("ms", "lower"),
    "parallel.cache_get_ms": ("ms", "lower"),
    "parallel.jobs_serial_s": ("s", "lower"),
    "parallel.job_s_max": ("s", "lower"),
    "parallel.pool_overhead_share": ("share", "lower"),
    "parallel.sweep_warm_s": ("s", "lower"),
    "parallel.child_rss_mb": ("MiB", "lower"),
}


def per_layer() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    names = {}
    for layer in LAYERS:
        names[f"{layer}.self_s"] = ("s", "lower")
        names[f"{layer}.self_share"] = ("share", "lower")
        names[f"{layer}.calls"] = ("count", "lower")
    names.update(TIMED)
    names.update(COUNTERS)
    return names


def exact_per_layer() -> tuple:
    """Per-layer names that must repeat exactly for one (code, seed)."""
    return tuple(f"{layer}.calls" for layer in LAYERS) + tuple(COUNTERS)
