"""Ablation A2 — choice of the scheduling function ``A``.

The total order over requests is parameterised by ``A`` (Section 3.3.2);
the paper evaluates the average of non-zero counter values and notes that
the choice "basically defines the scheduling resource policy".  This
benchmark compares the registered policies on the same workload.
"""

from __future__ import annotations

from conftest import run_once

from repro.core.config import CoreConfigSpec
from repro.core.policies import available_policies
from repro.experiments.report import format_table
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.workload.params import LoadLevel


def _run_policy_sweep(bench_params):
    params = bench_params.with_load(LoadLevel.HIGH)
    rows = []
    for policy in available_policies():
        result = run(
            Scenario(algorithm="with_loan", params=params, config=CoreConfigSpec(policy=policy))
        )
        rows.append(
            (
                policy,
                result.use_rate,
                result.metrics.waiting.mean,
                result.metrics.waiting.stddev,
            )
        )
    return rows


def test_ablation_scheduling_policy(benchmark, bench_params):
    """Compare mean/max/min/sum scheduling functions (phi = 4, high load)."""
    rows = run_once(benchmark, _run_policy_sweep, bench_params)
    print(
        "\n"
        + format_table(
            ["policy A", "use rate (%)", "avg wait (ms)", "wait sd (ms)"],
            rows,
            title="Ablation A2: scheduling function A (with_loan, high load, phi=4)",
        )
    )
    benchmark.extra_info["rows"] = [
        {"policy": p, "use_rate": round(u, 2), "wait": round(w, 2)} for p, u, w, _ in rows
    ]
    # Every policy must produce a live, non-degenerate schedule.
    assert all(u > 0 and w >= 0 for _, u, w, _ in rows)
    names = [p for p, *_ in rows]
    assert "mean_nonzero" in names
