#!/usr/bin/env python3
"""Crash-recovery ablation: node crashes with and without failure detection.

The paper assumes nodes never halt.  ``NodeCrash`` drops that assumption
twice over: the fault layer cuts the node off the network (its sends are
lost; messages due at it wait in the channel until it reboots, and are
lost if it never does), and the lifecycle layer
(:mod:`repro.sim.lifecycle`) halts its local timers — a full fail-silent
crash.  Tokens held by the dead node are unreachable, so without
recovery every algorithm stalls: requesters wait on a dead
probable-owner chain, and the run drains with every survivor that needs
one of those tokens still waiting.

The ``detector`` scenario axis (:mod:`repro.sim.detectorspec`) closes
the gap.  With a ``HeartbeatDetector``, crashes are detected after a
deterministic worst-case heartbeat delay and the recovery protocol
(:mod:`repro.core.recovery`) adjudicates token losses, regenerates each
lost token at the lowest-id surviving requester, repoints survivors and
fences the rebooted node — the run drains with no live node waiting, the
only unavoidable casualty being the request that died with its process.

Two columns say whether that happened.  ``goodput`` is requests completed
relative to the same algorithm's crash-free ``none`` row
(``completed/issued`` would flatter a wedged run: a closed-loop client
that never gets its grant stops issuing).  ``ended`` is
``result.termination``: ``drained`` or ``fault_cap``, and how many
requests live nodes still held; requests that died with the crashed node
are ``abandoned``, not waiting.

Three crash shapes are swept per algorithm:

* ``permanent`` — the node never comes back (tokens must be regenerated);
* ``reboot``    — down long enough to be detected, then fenced on return;
* ``blip``      — recovers *before* detection: heartbeats resume in time,
  no regeneration happens at all, and the node simply rejoins, receiving
  on reboot what was sent to it while it was down.

Run with::

    python examples/crash_recovery.py [--quick] [--workers N]

Results are bit-identical at any ``--workers`` because lifecycle events,
detection times and regeneration are all deterministic functions of the
scenario.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import Scenario
from repro.experiments.report import format_table
from repro.parallel import run_sweep
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faults import NodeCrash
from repro.workload.params import LoadLevel, WorkloadParams

ALGORITHMS = ("with_loan", "incremental")

#: Goodput floor (against the crash-free row) asserted for the loan
#: algorithm under a detected single-node crash, beside "no live node
#: still waiting" — the acceptance bar of the recovery subsystem.
RECOVERY_GOODPUT_FLOOR = 0.7


def crash_shapes(params: WorkloadParams, detection_delay: float):
    """The three crash windows of the study, scaled to the workload."""
    at = 0.25 * params.duration
    return (
        ("permanent", NodeCrash(node=2, at=at)),
        ("reboot", NodeCrash(node=2, at=at, recover_at=at + 4.0 * detection_delay)),
        ("blip", NodeCrash(node=2, at=at, recover_at=at + 0.5 * detection_delay)),
    )


def ended(result) -> str:
    end = result.termination
    held = sum(count for _, count in end.waiting)
    return f"{end.reason}, {held} waiting" if held else end.reason


def result_row(result, twin) -> tuple:
    """One table row; ``twin`` is the same algorithm's crash-free result."""
    m = result.metrics
    downtime = result.downtime.total if result.downtime is not None else 0.0
    return (
        f"{m.completed}/{m.issued}",
        f"{m.completed / twin.metrics.completed:.2f}",
        ended(result),
        result.termination.abandoned,
        result.tokens_regenerated,
        f"{result.recovery_time:g}",
        f"{downtime:g}",
        int(m.extra.get("aborted", 0)),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload (CI smoke)"
    )
    parser.add_argument("--workers", type=int, default=2, help="sweep worker processes")
    args = parser.parse_args()

    if args.quick:
        params = WorkloadParams(
            num_processes=5, num_resources=10, phi=3, duration=500.0, warmup=50.0,
            load=LoadLevel.HIGH, seed=7,
        )
    else:
        params = WorkloadParams(
            num_processes=8, num_resources=20, phi=4, duration=2_000.0, warmup=200.0,
            load=LoadLevel.HIGH, seed=7,
        )

    # Tight heartbeats make recovery latency visible at this time scale.
    detector = HeartbeatDetector(interval=10.0, timeout=30.0)
    base = Scenario(algorithm=ALGORITHMS[0], params=params, require_all_completed=False)

    def scenario_for(algorithm: str, faults, det) -> Scenario:
        return base.replace(algorithm=algorithm, faults=faults, detector=det)

    shapes = crash_shapes(params, detector.detection_delay)
    cells = []
    for algorithm in ALGORITHMS:
        cells.append(((algorithm, "none", "-"), scenario_for(algorithm, None, None)))
        for shape, crash in shapes:
            cells.append(((algorithm, shape, "off"), scenario_for(algorithm, crash, None)))
            cells.append(((algorithm, shape, "on"), scenario_for(algorithm, crash, detector)))
    results = run_sweep([scenario for _, scenario in cells], workers=args.workers)

    twins = {
        label[0]: result for (label, _), result in zip(cells, results) if label[1] == "none"
    }
    header = ["algorithm", "crash", "detector", "completed", "goodput", "ended",
              "abandoned", "regen", "rec time", "downtime", "aborted"]
    rows = [
        label + result_row(result, twins[label[0]]) for (label, _), result in zip(cells, results)
    ]
    print(params.describe())
    print(f"detector: {detector.describe()} (worst-case detection "
          f"{detector.detection_delay:g} ms)")
    print()
    print(format_table(header, rows, title=f"Crash recovery (workers={args.workers})"))
    print()
    print("Without a detector a permanent crash stalls both algorithms: the dead")
    print("node's tokens are gone and every requester that needs one waits for good.")
    print("With the heartbeat detector, lost tokens are regenerated at the lowest-id")
    print("surviving requester and the run drains with nobody waiting — the only loss")
    print("is the request that died with its process ('abandoned'; also 'aborted' if")
    print("it was inside its critical section).  A blip that recovers before detection")
    print("regenerates nothing (regen=0): the node just rejoins, and the channel hands")
    print("it on reboot what was sent to it while it was down.  The incremental")
    print("baseline has no recovery of its own, so a crash can still leave one of its")
    print("requesters waiting.")

    # Self-check: the recovery bar this example exists to demonstrate.
    failures = []
    for (label, _), result in zip(cells, results):
        algorithm, shape, det = label
        if algorithm == "with_loan" and det == "on":
            end = result.termination
            if end.waiting:
                nodes = ", ".join(str(node) for node, _ in end.waiting)
                failures.append(
                    f"{shape}/on: node {nodes} still waiting when the run ended ({end.reason} "
                    f"at t={result.simulated_time:.0f}, last grant t={end.last_grant:.0f})"
                )
            goodput = result.metrics.completed / twins[algorithm].metrics.completed
            if goodput < RECOVERY_GOODPUT_FLOOR:
                failures.append(f"{shape}/on: goodput {goodput:.2f} < {RECOVERY_GOODPUT_FLOOR}")
        if algorithm == "with_loan" and shape == "blip" and det == "on":
            if result.tokens_regenerated != 0:
                failures.append(f"blip/on: regenerated {result.tokens_regenerated} tokens")
    if failures:
        print(f"\nRECOVERY REGRESSION: {failures}", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
