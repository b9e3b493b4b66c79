#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

``python benchmarks/e2e/compare.py A.json B.json`` prints one row per
(workload, metric) with both medians, both IQRs and a verdict, applying
each end-to-end metric's direction and bound from ``BENCHMARK.json``:

``same``        B's median is within the bound of A's;
``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better by more than the bound;
``unresolved``  either side's median is itself uncertain by more than the
                bound (IQR / sqrt(n) of its samples, as a share of the
                median), so a difference inside the bound cannot be called
                (unless every sample of one side beats every sample of the
                other);
``differs``     an exact metric (simulated, counter, ``*.calls``) changed
                although both files used the same seed.

Per-layer host times have no bound; they are printed with their change
and the verdict ``info``.  Exit code 1 on any ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)

from e2ebench import spec  # noqa: E402
from e2ebench.measure import summarise  # noqa: E402


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """Verdict on B against A, and by what share of A's median B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    cost_a = [sign * v for v in a]  # larger is worse, whatever the direction
    cost_b = [sign * v for v in b]
    sa, sb = summarise(cost_a), summarise(cost_b)
    worsening = (sb["median"] - sa["median"]) / abs(sa["median"])
    if worsening > bound:
        return "worse", worsening
    # What has to stay inside the bound is the uncertainty of a median of
    # n samples, not the scatter of single samples.
    spread = max(
        side["iqr"] / math.sqrt(side["n"]) / abs(side["median"]) for side in (sa, sb)
    )
    apart = min(cost_b) > max(cost_a) or max(cost_b) < min(cost_a)
    if spread > bound and not apart:
        return "unresolved", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def _row(workload: str, metric: str, a: Sequence[float], b: Sequence[float], word: str,
         change: Optional[float]) -> str:
    sa, sb = summarise(a), summarise(b)
    delta = "" if change is None else f"{change:+8.2%}"
    return (
        f"{workload:<18} {metric:<38} {sa['median']:>14.6g} {sa['iqr']:>10.3g} "
        f"{sb['median']:>14.6g} {sb['iqr']:>10.3g} {delta:>9} {word}"
    )


def end_to_end_rules() -> dict:
    """``{metric: (better, bound)}`` as ``BENCHMARK.json`` fixes them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def compare(doc_a: dict, doc_b: dict, rules: dict) -> Tuple[List[str], int]:
    """Rows to print and the number of ``worse``/``differs`` verdicts."""
    rows, bad = [], 0
    same_seed = doc_a["seed"] == doc_b["seed"]
    exact_names = set(spec.EXACT_END_TO_END) | set(spec.exact_per_layer())
    for workload in spec.WORKLOADS:
        wa = doc_a["workloads"].get(workload)
        wb = doc_b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        for metric, (better, bound) in rules.items():
            a = wa["samples"].get(metric, {}).get("normalised") or wa["exact"].get(metric)
            b = wb["samples"].get(metric, {}).get("normalised") or wb["exact"].get(metric)
            if a is None or b is None:
                continue
            a = a if isinstance(a, list) else [a]
            b = b if isinstance(b, list) else [b]
            if metric in exact_names and same_seed:
                word, change = ("same" if a == b else "differs"), None
            else:
                word, change = verdict(a, b, better, bound)
            bad += word in ("worse", "differs")
            rows.append(_row(workload, metric, a, b, word, change))
        for metric in spec.per_layer():
            if metric not in wa["exact"] or metric not in wb["exact"]:
                continue
            a, b = wa["exact"][metric], wb["exact"][metric]
            if metric in exact_names:
                if not same_seed:
                    continue
                word, change = ("same" if a == b else "differs"), None
            else:
                word, change = "info", ((b - a) / abs(a) if a else None)
            bad += word == "differs"
            rows.append(_row(workload, metric, [a], [b], word, change))
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"] or w["problems"]:
                bad += 1
                rows.append(f"{workload:<18} {side}: {w['failed']} failed of {w['attempted']}; "
                            + "; ".join(w["problems"]))
    return rows, bad


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    if docs[0]["trace"] != docs[1]["trace"]:
        print("one file is a traced run and the other is not", file=sys.stderr)
        return 2
    print(
        f"{'workload':<18} {'metric':<38} {'A median':>14} {'A IQR':>10} "
        f"{'B median':>14} {'B IQR':>10} {'B worse':>9} verdict"
    )
    rows, bad = compare(*docs, end_to_end_rules())
    print("\n".join(rows))
    print(f"\n{bad} worse/differs" if bad else "\nno regression")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
