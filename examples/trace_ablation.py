#!/usr/bin/env python3
"""Workload ablation: the loan algorithm under bursty and trace-driven load.

The paper's evaluation (Section 5.1) drives every algorithm with one
closed-loop synthetic workload: each process thinks, requests, runs its
critical section and only then thinks again, so a slow protocol throttles
its own offered load.  The declarative workload axis drops that
assumption per scenario:

* ``OpenLoopSpec`` issues requests at externally timed instants — smooth
  (Poisson), or bursty (a two-state MMPP whose rate jumps by an order of
  magnitude during bursts) — at the *same mean rate*, so burstiness is
  isolated from offered load;
* ``TraceReplaySpec`` replays a checked-in SWF job trace
  (``examples/data/sample.swf``: 200 jobs in tight bursts separated by
  long quiet gaps, heavy-tailed runtimes) through the same protocols.

Two things the table shows, and the script self-checks:

1. **Burstiness is expensive at fixed offered load.**  For every
   algorithm, mean waiting time under the bursty MMPP and under the
   trace is a multiple of the rate-matched Poisson wait: arrivals that
   cluster overlap their resource footprints, queueing where the smooth
   process slips through an idle system.
2. **The loan mechanism's advantage follows the contention.**  Under
   smooth stable open-loop load the with/without-loan gap nearly closes
   (there is rarely a conflicting holder to borrow from), while the
   contended closed loop keeps it open — and the trace/bursty columns
   show where between those poles each bursty workload lands at your
   scale.  Bursts recreate the transient multi-resource contention the
   loan rule (Section 4.2) was designed to defuse.

The trace scenarios also exercise the streaming path end-to-end: records
are collected in bounded chunks (``record_chunk_rows``), the trace file
is parsed once per run into 20 bytes a job (no job objects), and its
SHA-256 — not its path — keys the run cache.

Run with::

    python examples/trace_ablation.py [--quick] [--workers N]

Results are bit-identical at any ``--workers`` because every workload
spec draws its streams afresh from the scenario inside the worker.
"""

from __future__ import annotations

import argparse
import os
import sys
from statistics import fmean

from repro.experiments import Scenario
from repro.experiments.report import format_table
from repro.parallel import run_sweep
from repro.workload.arrivals import MarkovModulatedArrivals, PoissonArrivals
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import OpenLoopSpec, TraceReplaySpec

TRACE = os.path.join(os.path.dirname(__file__), "data", "sample.swf")
ALGORITHMS = ("with_loan", "without_loan")


def workload_grid(rate: float, time_scale: float):
    """The ablation's workload families at one mean open-loop rate."""
    return {
        "closed-loop": None,  # normalises to SyntheticSpec
        "poisson": OpenLoopSpec(arrival=PoissonArrivals(rate=rate)),
        "bursty": OpenLoopSpec(
            arrival=MarkovModulatedArrivals(
                rate=rate, burst_factor=12.0, burst_fraction=0.15, dwell=400.0
            )
        ),
        "trace": TraceReplaySpec(path=TRACE, time_scale=time_scale),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller system and shorter runs (CI smoke)"
    )
    parser.add_argument("--workers", type=int, default=2, help="sweep worker processes")
    args = parser.parse_args()

    if args.quick:
        seeds = (7, 21)
        base_params = WorkloadParams(
            num_processes=5, num_resources=10, phi=3, duration=2_000.0, warmup=200.0,
            load=LoadLevel.HIGH, seed=7,
        )
        rate = 0.02  # per-process requests/ms, well below saturation
        # Compress the trace's ~3.4 s span into the shorter run so all
        # 200 jobs replay.
        time_scale = 0.5
    else:
        seeds = (7, 21, 35)
        base_params = WorkloadParams(
            num_processes=8, num_resources=20, phi=4, duration=4_000.0, warmup=400.0,
            load=LoadLevel.HIGH, seed=7,
        )
        rate = 0.02
        time_scale = 1.0
    workloads = workload_grid(rate, time_scale)

    cells = [
        (
            (algorithm, name, seed),
            Scenario(
                algorithm=algorithm,
                params=base_params.with_seed(seed),
                workload=spec,
                # Exercise the streaming record path: live rows stay
                # O(chunk) however long the replayed trace is.
                record_chunk_rows=512,
            ),
        )
        for algorithm in ALGORITHMS
        for name, spec in workloads.items()
        for seed in seeds
    ]
    results = run_sweep([scenario for _, scenario in cells], workers=args.workers)

    waits: dict = {}
    completed_all = True
    rows = []
    for ((algorithm, name, seed), _), result in zip(cells, results):
        m = result.metrics
        waits.setdefault((algorithm, name), []).append(m.waiting.mean)
        completed_all &= m.completed == m.issued
        if seed == seeds[0]:
            rows.append((algorithm, name, f"{m.completed}/{m.issued}", m.waiting.mean, m.waiting.stddev, f"{m.messages_per_cs:.1f}"))

    header = ["algorithm", "workload", "completed", "avg wait (ms)", "sd", "msgs/cs"]
    print(base_params.describe())
    print()
    print(
        format_table(
            header,
            rows,
            title=f"Workload ablation, first seed (workers={args.workers})",
        )
    )

    mean_wait = {key: fmean(values) for key, values in waits.items()}
    advantage = {
        name: mean_wait[("without_loan", name)] / mean_wait[("with_loan", name)]
        for name in workloads
    }
    print()
    print(format_table(
        ["workload", "wait with_loan", "wait without_loan", "advantage"],
        [
            (name, mean_wait[("with_loan", name)], mean_wait[("without_loan", name)],
             f"{advantage[name]:.3f}x")
            for name in workloads
        ],
        title=f"Seed-averaged ({len(seeds)} seeds) loan advantage (without/with wait ratio)",
    ))
    print()
    print("At one fixed mean rate, the bursty MMPP and the bursty SWF trace multiply")
    print("the smooth-Poisson waiting time; and while smooth stable open-loop load")
    print("closes the with/without-loan gap, contention (the closed loop, the bursts)")
    print("keeps it open — the loan rule pays off exactly when arrivals pile")
    print("conflicting footprints into short windows.")

    # ----------------------------------------------------------------- #
    # self-checks: fail loudly if the qualitative story regresses
    # ----------------------------------------------------------------- #
    failures = []
    if not completed_all:
        failures.append("some runs did not complete their full workload")
    for algorithm in ALGORITHMS:
        poisson = mean_wait[(algorithm, "poisson")]
        if not mean_wait[(algorithm, "bursty")] > 1.3 * poisson:
            failures.append(f"{algorithm}: bursty wait not clearly above poisson")
        if not mean_wait[(algorithm, "trace")] > 1.5 * poisson:
            failures.append(f"{algorithm}: trace wait not clearly above poisson")
    if not advantage["closed-loop"] > advantage["poisson"]:
        failures.append(
            "loan advantage under the contended closed loop did not exceed the "
            "smooth stable open-loop advantage"
        )
    if failures:
        print("\nSELF-CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print("\nSelf-checks passed: burstiness wait-time shift and contention-bound "
          "loan advantage hold.")


if __name__ == "__main__":
    main()
