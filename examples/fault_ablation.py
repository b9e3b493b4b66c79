#!/usr/bin/env python3
"""Fault-injection robustness study: message loss swept across algorithms.

Section 3.1 of the paper assumes reliable FIFO links, and the network
keeps that model under the declarative ``FaultSpec`` axis: a try lost to
Bernoulli loss is re-sent by the channel ``RTO`` (5 ms) later, behind
which the rest of its link waits, so loss becomes *delay* and no protocol
needs a resend path of its own.  This example subjects the three
distributed algorithms to Bernoulli loss of their *control-plane*
messages (requests and counter replies), then of every message, tokens
included, and reports how much of the workload still completes, as
**goodput**: requests completed relative to the same algorithm's
0%-loss row.  (``completed/issued`` would flatter a wedged run: a
closed-loop client that never gets its grant stops issuing.)

``dropped`` counts the tries the channel lost and ``resends`` the ones it
re-sent (equal here: with ``p < 1`` every lost try is re-sent).  Runs
with faults are capped at a deterministic horizon as a stall guard; the
``ended`` column is ``result.termination``: ``drained`` or
``fault_cap``, and how many requests live nodes still held.
``require_all_completed=False`` keeps a wedged run as a row instead of an
error.

Run with::

    python examples/fault_ablation.py [--quick] [--workers N]

The sweep fans out over worker processes; results are bit-identical at any
``--workers`` because each scenario binds its fault spec (and the loss's
own RNG) inside the worker.
"""

from __future__ import annotations

import argparse

from repro.experiments import Scenario
from repro.experiments.report import format_table
from repro.parallel import run_sweep
from repro.sim.faults import BernoulliLoss
from repro.workload.params import LoadLevel, WorkloadParams

#: Request/reply message classes of each algorithm — the messages a lossy
#: datagram transport would lose.
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
        return base.replace(algorithm=algorithm, faults=faults)

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
    print("channel re-sends every lost try, tokens included, so no protocol needs a")
    print("resend path of its own: at 1% and 5% loss every algorithm drains with goodput")
    print("near 1, paying only the retransmission delay.  At full size the")
    print("Bouabdallah-Laforest baseline wedges at 10% control-plane loss; it wedges under")
    print("plain jittered latency too, so a reliable but slower channel is enough to")
    print("stall it.")

if __name__ == "__main__":
    main()
