#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository's benchmark, judged by its own rule.

``python scripts/bench_pairs.py REF_A REF_B --workload W [--seeds 1,2] [--pairs 10]``

REF_A is the parent, REF_B the change (any tree-ish; ``$(git stash
create)`` names an uncommitted working tree).  Both are exported with
``git archive`` into temporary directories, so neither carries bytecode
(``PYTHONDONTWRITEBYTECODE=1`` keeps it that way) and each is measured by
*its own, unmodified* ``benchmarks/e2e`` harness, called the way
``BENCHMARK.json`` says the driver calls it::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds 20 --trace 0

Pairs alternate which side runs first.  Every run is printed as it
finishes; then, per seed and end-to-end metric: median [Q1-Q3] of each
side, pairs won by B, and the verdict of the ``choosing-metrics`` rule —
``better`` / ``worse`` only when one side wins at least nine tenths of
the pairs (ties count for neither) **and** the medians differ by more
than A's own quartile spread, over at least ten pairs; ``same`` when
every pair ties (the exact, simulated metrics); ``unresolved`` otherwise.
Only the final JSON line of each run is read.  Exit status 1 if any run
failed its output checks or, over ten pairs or more, B's median is worse
than A's by more than the bound ``BENCHMARK.json`` fixes for the metric.

Each harness run is its own session: a SIGTERM or SIGINT kills the
running harness with its workers, then removes both trees.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

#: Share of pairs one side must win for a difference to count, and the
#: fewest pairs from which one is called at all.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def export(ref: str, target: str) -> None:
    """``git archive REF | tar -x`` into ``target``."""
    os.makedirs(target)
    with subprocess.Popen(["git", "-C", ROOT, "archive", ref], stdout=subprocess.PIPE) as git:
        subprocess.run(["tar", "-x", "-C", target], stdin=git.stdout, check=True)
    if git.returncode:
        raise SystemExit(f"git archive {ref} failed")


def run_once(tree: str, declared: dict, workload: str, seed: int, smoke: bool) -> Optional[dict]:
    """One harness run from ``tree``; its final JSON line, or ``None`` if it printed none."""
    command = list(declared["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(declared["run_seconds"]), "--trace", "0",
    ]
    if smoke:
        command.append("--smoke")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # The harness and its workers form their own process group, so an
    # interrupted run can be ended whole before its tree is removed.
    with subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as harness:
        try:
            stdout, _ = harness.communicate()
        finally:
            if harness.poll() is None:
                kill_group(harness)
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def kill_group(harness: subprocess.Popen) -> None:
    """SIGKILL ``harness``'s process group and wait until no member is left."""
    try:
        os.killpg(harness.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    harness.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(harness.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def stop(signum: int, _frame) -> None:
    """SIGTERM handler: unwind, so the running harness is killed and the trees are removed."""
    raise SystemExit(128 + signum)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3), inclusive method; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str) -> Tuple[int, int, str]:
    """(pairs won by B, pairs won by A, verdict for B) by the choosing-metrics rule."""
    sign = -1.0 if better == "lower" else 1.0
    b_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    a_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    if not a_wins and not b_wins:
        return b_wins, a_wins, "same"
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    apart = len(a) >= MIN_PAIRS and abs(med_b - med_a) > q3 - q1
    if apart and b_wins >= WIN_SHARE * len(a) and sign * (med_b - med_a) > 0:
        return b_wins, a_wins, "better"
    if apart and a_wins >= WIN_SHARE * len(a) and sign * (med_b - med_a) < 0:
        return b_wins, a_wins, "worse"
    return b_wins, a_wins, "unresolved"


def summarise(seed: int, declared: dict, runs: Dict[str, List[dict]]) -> bool:
    """Print the per-metric table of one seed; whether B stayed inside every bound."""
    print(f"\n== seed {seed}: median [Q1-Q3] per side, {len(runs['A'])} pairs")
    inside = True
    for metric in declared["end_to_end"]:
        name = metric["name"]
        a = [run["metrics"][name]["value"] for run in runs["A"]]
        b = [run["metrics"][name]["value"] for run in runs["B"]]
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        b_wins, a_wins, word = verdict(a, b, metric["better"])
        change = (b2 - a2) / abs(a2) if a2 else 0.0
        worsening = change if metric["better"] == "lower" else -change
        if len(a) >= MIN_PAIRS and worsening > metric["bound"]:
            inside = False
            word += ", BEYOND THE BOUND"
        print(
            f"   {name:<13} A {a2:.4f} [{a1:.4f}-{a3:.4f}]  B {b2:.4f} [{b1:.4f}-{b3:.4f}]  "
            f"{change:>+7.1%}  B won {b_wins}/{len(a)}, A won {a_wins}/{len(a)}  "
            f"{word} ({metric['better']} is better, bound {metric['bound']:.0%})"
        )
    return inside


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref_a", metavar="REF_A", help="parent tree-ish")
    parser.add_argument("ref_b", metavar="REF_B", help="change tree-ish")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1", help="comma-separated benchmark seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to the harness")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    signal.signal(signal.SIGTERM, stop)  # SIGINT already unwinds, as KeyboardInterrupt

    clean = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"A": os.path.join(tmp, "a"), "B": os.path.join(tmp, "b")}
        export(args.ref_a, trees["A"])
        export(args.ref_b, trees["B"])
        with open(os.path.join(trees["A"], "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        print(f"A = {args.ref_a}   B = {args.ref_b}   workload {args.workload}")
        for seed in seeds:
            runs: Dict[str, List[dict]] = {"A": [], "B": []}
            for pair in range(args.pairs):
                for side in ("AB", "BA")[pair % 2]:
                    result = run_once(trees[side], declared, args.workload, seed, args.smoke)
                    if result is None:
                        print(f"seed {seed} pair {pair + 1} {side}: no result line")
                        return 1
                    clean = clean and result["correct"] and result["failed"] == 0
                    shown = "  ".join(
                        f"{name}={entry['value']:.4f}" for name, entry in result["metrics"].items()
                    )
                    print(
                        f"seed {seed} pair {pair + 1:>2} {side}  {shown}  "
                        f"correct={result['correct']} failed={result['failed']}",
                        flush=True,
                    )
                    runs[side].append(result)
            clean = summarise(seed, declared, runs) and clean
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
