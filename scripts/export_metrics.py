#!/usr/bin/env python3
"""Run one scenario with telemetry and dump the Prometheus exposition.

The bridge from a simulated run to standard observability tooling: the
run's end-of-run :class:`~repro.obs.metrics.TelemetrySnapshot` renders
as Prometheus text exposition, suitable for ``promtool check metrics``,
a pushgateway, or simple diffing between runs::

    python scripts/export_metrics.py                        # canonical scenario
    python scripts/export_metrics.py --algorithm incremental --phi 8
    python scripts/export_metrics.py -o run.prom
    python scripts/export_metrics.py --health               # health reports too

The scenario printed at the top (``Scenario(telemetry=...)``) is the
complete description of the run.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))


def build_scenario(args):
    """Fold the CLI selection into a telemetry-enabled Scenario."""
    from repro.experiments.scenario import Scenario
    from repro.obs import TelemetrySpec
    from repro.workload.params import WorkloadParams

    params = WorkloadParams(
        num_processes=args.processes,
        num_resources=args.resources,
        phi=args.phi,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
    )
    spec = TelemetrySpec(node_gauges=not args.no_node_gauges)
    return Scenario(algorithm=args.algorithm, params=params, telemetry=spec)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="with_loan",
                        help="registered algorithm name (default: with_loan)")
    parser.add_argument("--processes", type=int, default=10, help="N (default 10)")
    parser.add_argument("--resources", type=int, default=24, help="M (default 24)")
    parser.add_argument("--phi", type=int, default=4, help="max request size (default 4)")
    parser.add_argument("--duration", type=float, default=1_500.0,
                        help="simulated duration in ms (default 1500)")
    parser.add_argument("--warmup", type=float, default=200.0,
                        help="warmup cut-off in ms (default 200)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--no-node-gauges", action="store_true",
                        help="skip per-node series (large clusters)")
    parser.add_argument("--health", action="store_true",
                        help="append health reports as comments")
    parser.add_argument("-o", "--output", default=None,
                        help="write exposition to this file (default: stdout)")
    args = parser.parse_args()

    from repro.experiments.runner import run

    scenario = build_scenario(args)
    print(f"# scenario: {scenario.describe()}", file=sys.stderr)
    result = run(scenario)
    snapshot = result.telemetry
    assert snapshot is not None  # the scenario above always asks for telemetry

    text = snapshot.render_text()
    if args.health:
        lines = [
            f"# HEALTH {r.name} {r.status} at={r.checked_at:g} {r.detail}"
            for r in snapshot.health
        ]
        text += "".join(line + "\n" for line in lines)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
