"""Ablation A4 — message complexity per critical section.

The paper discusses message complexity qualitatively (Naimi–Tréhel's
O(log N), Bouabdallah–Laforest's "good message complexity", the broadcast
cost of Maddi/Ginat-style solutions) but does not plot it.  This benchmark
measures the average number of network messages per completed critical
section for every distributed algorithm, per message type, making the
trade-off visible: the paper's algorithm trades extra counter/token
messages for the removal of the global lock.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments.report import format_table
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.workload.params import LoadLevel

ALGORITHMS = ("incremental", "bouabdallah", "without_loan", "with_loan")


def _run_message_accounting(bench_params, phi):
    params = bench_params.with_load(LoadLevel.HIGH).with_phi(phi)
    rows = []
    per_type = {}
    for algorithm in ALGORITHMS:
        result = run(Scenario(algorithm=algorithm, params=params))
        rows.append(
            (
                algorithm,
                result.metrics.messages_per_cs,
                result.metrics.messages_total,
                result.metrics.completed,
            )
        )
        per_type[algorithm] = result.metrics.messages_by_type
    return rows, per_type


def test_messages_per_cs_small_requests(benchmark, bench_params):
    """Message complexity at phi = 4 (the Figure 6 configuration)."""
    rows, per_type = run_once(benchmark, _run_message_accounting, bench_params, 4)
    print(
        "\n"
        + format_table(
            ["algorithm", "msgs / CS", "total msgs", "completed CS"],
            rows,
            title="Ablation A4: message complexity (high load, phi=4)",
        )
    )
    for algorithm, types in per_type.items():
        print(f"  {algorithm}: " + ", ".join(f"{k}={v}" for k, v in sorted(types.items())))
    benchmark.extra_info["per_cs"] = {a: round(m, 2) for a, m, _, _ in rows}
    assert all(m > 0 for _, m, _, _ in rows)


def test_messages_per_cs_large_requests(benchmark, bench_params):
    """Message complexity at phi = M/2 (larger requests, more tokens moved)."""
    phi = max(4, bench_params.num_resources // 2)
    rows, _ = run_once(benchmark, _run_message_accounting, bench_params, phi)
    print(
        "\n"
        + format_table(
            ["algorithm", "msgs / CS", "total msgs", "completed CS"],
            rows,
            title=f"Ablation A4: message complexity (high load, phi={phi})",
        )
    )
    per_cs = {a: m for a, m, _, _ in rows}
    benchmark.extra_info["per_cs"] = {a: round(m, 2) for a, m in per_cs.items()}
    # Larger requests cost more messages per CS than small ones for the
    # paper's algorithm (one counter+token exchange per resource).
    assert per_cs["with_loan"] > 0
