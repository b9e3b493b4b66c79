#!/usr/bin/env python3
"""Future-work experiment: hierarchical (cloud-like) topologies.

The paper's conclusion argues that avoiding the global lock should pay off
most on hierarchical physical topologies (two distant data centres), where
shipping a control token across the wide-area link is expensive.  This
example runs the Bouabdallah–Laforest baseline and the paper's algorithm on
a flat cluster and on a two-cluster topology with a much slower
inter-cluster link, and prints how each algorithm's waiting time degrades.

Run with::

    python examples/cloud_topology.py
"""

from __future__ import annotations

from repro.experiments import Scenario
from repro.experiments.report import format_table
from repro.parallel import run_sweep
from repro.sim.latency import ConstantLatencySpec, HierarchicalLatencySpec
from repro.workload.params import LoadLevel, WorkloadParams

ALGORITHMS = ("bouabdallah", "without_loan", "with_loan")


def main() -> None:
    params = WorkloadParams(
        num_processes=12,
        num_resources=30,
        phi=4,
        duration=2_500.0,
        warmup=300.0,
        load=LoadLevel.HIGH,
        seed=9,
    )
    flat = ConstantLatencySpec()                      # params.gamma everywhere
    cloud = HierarchicalLatencySpec(
        gamma_remote=params.gamma * 30.0,   # ~intercontinental vs rack-local
        num_clusters=2,
    )

    # One declarative grid: (algorithm x topology), fanned out as a sweep.
    base = Scenario(algorithm=ALGORITHMS[0], params=params)
    grid = base.sweep(algorithm=ALGORITHMS, latency=(flat, cloud))
    results = iter(run_sweep(grid))

    rows = []
    for algorithm in ALGORITHMS:
        flat_result = next(results)
        cloud_result = next(results)
        rows.append(
            (
                algorithm,
                flat_result.metrics.waiting.mean,
                cloud_result.metrics.waiting.mean,
                cloud_result.metrics.waiting.mean / max(flat_result.metrics.waiting.mean, 1e-9),
                cloud_result.use_rate,
            )
        )

    print(params.describe())
    print()
    print(
        format_table(
            ["algorithm", "flat wait (ms)", "cloud wait (ms)", "degradation x", "cloud use rate (%)"],
            rows,
            title="Two-cluster cloud topology (30x inter-cluster latency)",
        )
    )
    print()
    print("The control-token baseline keeps crossing the slow link even for requests")
    print("that conflict with nobody; the paper's algorithm only pays the inter-cluster")
    print("cost when the conflicting processes actually live in different clusters.")


if __name__ == "__main__":
    main()
