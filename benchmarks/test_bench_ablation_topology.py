"""Ablation A3 — hierarchical (cloud-like) topologies.

The paper's conclusion argues that removing the global lock should pay off
most on hierarchical physical topologies (e.g. geo-distributed clouds)
where exchanging a control token between distant sites is expensive.  This
benchmark runs the Bouabdallah–Laforest baseline and the paper's algorithm
on a flat cluster and on a two-cluster topology with a 20x inter-cluster
latency, and reports how much each algorithm degrades.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments.report import format_table
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.latency import HierarchicalLatencySpec
from repro.workload.params import LoadLevel

ALGORITHMS = ("bouabdallah", "without_loan", "with_loan")


def _run_topology_sweep(bench_params):
    params = bench_params.with_load(LoadLevel.HIGH)
    cloud = HierarchicalLatencySpec(gamma_remote=params.gamma * 20.0, num_clusters=2)
    rows = []
    for algorithm in ALGORITHMS:
        base = Scenario(algorithm=algorithm, params=params)
        flat_result = run(base)  # default latency: constant params.gamma
        cloud_result = run(base.replace(latency=cloud))
        degradation = (
            cloud_result.metrics.waiting.mean / flat_result.metrics.waiting.mean
            if flat_result.metrics.waiting.mean
            else float("inf")
        )
        rows.append(
            (
                algorithm,
                flat_result.metrics.waiting.mean,
                cloud_result.metrics.waiting.mean,
                degradation,
            )
        )
    return rows


def test_ablation_hierarchical_topology(benchmark, bench_params):
    """Flat cluster vs. two-cluster cloud (20x inter-cluster latency)."""
    rows = run_once(benchmark, _run_topology_sweep, bench_params)
    print(
        "\n"
        + format_table(
            ["algorithm", "flat wait (ms)", "cloud wait (ms)", "degradation x"],
            rows,
            title="Ablation A3: hierarchical topology (high load, phi=4)",
        )
    )
    benchmark.extra_info["rows"] = [
        {"algorithm": a, "flat": round(f, 2), "cloud": round(c, 2), "x": round(d, 2)}
        for a, f, c, d in rows
    ]
    degradation = {a: d for a, _, _, d in rows}
    # Everybody degrades on the cloud topology...
    assert all(d >= 1.0 for d in degradation.values())
    # ...and the global-lock baseline degrades at least as much as the
    # paper's algorithm (its control token keeps crossing the slow link).
    assert degradation["bouabdallah"] >= min(
        degradation["without_loan"], degradation["with_loan"]
    ) * 0.9
