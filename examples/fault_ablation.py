#!/usr/bin/env python3
"""Fault-injection robustness study: message loss swept across algorithms.

Section 3.1 of the paper assumes reliable FIFO links; the declarative
``FaultSpec`` axis drops that assumption per scenario.  This example
subjects the three distributed algorithms to Bernoulli loss of their
*control-plane* messages (requests and counter replies — token transfer
stays reliable, as over a reliable transport) and reports how much of the
workload still completes, as **goodput**: requests completed relative to
the same algorithm's 0%-loss row.  (``completed/issued`` would flatter a
wedged run: a closed-loop client that never gets its grant stops issuing.)

* the paper's loan-based algorithm carries a requester-side re-send safety
  net (Section 4.2.1), so a lost *request* is re-issued; a lost *counter
  reply* is not recovered (ROADMAP item 3), so it still ends with nodes
  waiting — later and less often than the baselines;
* the incremental and Bouabdallah–Laforest baselines have no resend
  machinery: the first lost request on a path stalls that requester (and
  everyone queued behind it) forever.

A second, shorter table drops *all* messages — including tokens — at 1%:
no algorithm replicates tokens, so a single lost token envelope stalls its
resource for good and goodput collapses.  The resend timers help only
with what they were designed for.

Runs with faults cannot rely on the event queue draining (stalled
protocols re-arm their resend timers forever), so the runner caps them at
a deterministic horizon; the ``ended`` column is ``result.termination``:
``drained`` or ``fault_cap``, and how many requests live nodes still held.
``require_all_completed=False`` keeps those runs as rows instead of errors.

Run with::

    python examples/fault_ablation.py [--quick] [--workers N]

The sweep fans out over worker processes; results are bit-identical at any
``--workers`` because each scenario binds its fault spec (and the loss's
own RNG) inside the worker.
"""

from __future__ import annotations

import argparse

from repro.core.config import CoreConfigSpec
from repro.experiments import Scenario
from repro.experiments.report import format_table
from repro.parallel import run_sweep
from repro.sim.faults import BernoulliLoss
from repro.workload.params import LoadLevel, WorkloadParams

#: Request/reply message classes of each algorithm — the messages a lossy
#: datagram transport would lose, and the ones resend timers can recover.
CONTROL_PLANE = {
    "incremental": ("NTRequest",),
    "bouabdallah": ("NTRequest", "BLInquire"),
    "with_loan": ("RequestEnvelope", "CounterEnvelope"),
}
ALGORITHMS = tuple(CONTROL_PLANE)


def ended(result) -> str:
    end = result.termination
    held = sum(count for _, count in end.waiting)
    return f"{end.reason}, {held} waiting" if held else end.reason


def loss_row(result, twin) -> tuple:
    """One table row; ``twin`` is the same algorithm's 0%-loss result."""
    m = result.metrics
    return (
        f"{m.completed}/{m.issued}",
        f"{m.completed / twin.metrics.completed:.2f}",
        ended(result),
        result.messages_dropped,
        result.resend_count,
        f"{m.waiting.mean:.2f} ({m.waiting.count})",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload and fewer loss levels (CI smoke)"
    )
    parser.add_argument("--workers", type=int, default=2, help="sweep worker processes")
    args = parser.parse_args()

    if args.quick:
        loss_levels = (0.0, 0.05)
        params = WorkloadParams(
            num_processes=5, num_resources=10, phi=3, duration=500.0, warmup=50.0,
            load=LoadLevel.HIGH, seed=7,
        )
    else:
        loss_levels = (0.0, 0.01, 0.05, 0.10)
        params = WorkloadParams(
            num_processes=8, num_resources=20, phi=4, duration=2_000.0, warmup=200.0,
            load=LoadLevel.HIGH, seed=7,
        )

    base = Scenario(algorithm=ALGORITHMS[0], params=params, require_all_completed=False)

    def scenario_for(algorithm: str, faults) -> Scenario:
        changes = {"algorithm": algorithm, "faults": faults}
        if algorithm == "with_loan":
            # Tighten the resend safety net (default 500 ms) so recovery
            # latency is visible at this workload's time scale.
            changes["config"] = CoreConfigSpec(enable_loan=True, resend_interval=50.0)
        return base.replace(**changes)

    # (row label, scenario) pairs keep labels and results aligned no
    # matter how the grids are reordered or extended.
    all_loss = 0.05 if args.quick else 0.01
    control_cells = [
        ((algorithm, f"{p:.0%}"),
         scenario_for(algorithm, BernoulliLoss(p=p, kinds=CONTROL_PLANE[algorithm]) if p else None))
        for algorithm in ALGORITHMS
        for p in loss_levels
    ]
    all_cells = [
        ((algorithm, f"{all_loss:.0%}"), scenario_for(algorithm, BernoulliLoss(p=all_loss)))
        for algorithm in ALGORITHMS
    ]
    cells = control_cells + all_cells
    results = run_sweep([scenario for _, scenario in cells], workers=args.workers)

    twins = {
        label[0]: result
        for (label, scenario), result in zip(cells, results)
        if scenario.faults is None
    }
    rows = [label + loss_row(result, twins[label[0]]) for (label, _), result in zip(cells, results)]
    control_rows = rows[: len(control_cells)]
    all_rows = rows[len(control_cells):]

    header = ["algorithm", "loss", "completed", "goodput", "ended", "dropped", "resends",
              "avg wait ms (of n granted)"]
    print(params.describe())
    print()
    print(
        format_table(
            header,
            control_rows,
            title=f"Control-plane loss (requests/replies only, workers={args.workers})",
        )
    )
    print()
    print(format_table(header, all_rows, title="All-message loss (tokens included)"))
    print()
    print("Goodput is completed requests over the same algorithm's 0%-loss row; 'ended'")
    print("is how the run stopped and how many requests live nodes still held.  The")
    print("baselines have no resend path: the first lost request wedges its requester")
    print("and, soon, everyone queued behind it.  The loan algorithm re-issues a lost")
    print("request, so it gets further — but a lost counter reply is never re-elicited,")
    print("so it too ends at the stall cap with nodes waiting and goodput well below 1.")
    print("Once tokens themselves can vanish (second table) no algorithm recovers: a")
    print("lost token retires its resource for the run.")

if __name__ == "__main__":
    main()
