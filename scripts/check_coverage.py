#!/usr/bin/env python3
"""Line-coverage floor for ``repro/obs/``, with no external dependencies.

The observability layer is pinned by ``tests/obs/``; this script asserts
the suite actually exercises it: line coverage of every module under
``src/repro/obs/`` must stay at or above the floor (90%).

Neither the container nor CI installs a coverage plugin, so the
measurement is a stdlib ``sys.settrace`` tracer:

* executable lines come from compiling each module and walking its code
  objects' ``co_lines()`` tables (minus ``# pragma: no cover`` lines);
* executed lines are collected by a trace function that pays the local
  tracing cost *only* for frames whose file lives under ``repro/obs``;
* the obs test suite runs in-process via ``pytest.main`` under the
  tracer.

Usage::

    python scripts/check_coverage.py            # gate at 90%
    python scripts/check_coverage.py --floor 80 # custom floor
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

OBS_DIR = os.path.join(REPO, "src", "repro", "obs")
DEFAULT_FLOOR = 90.0


def executable_lines(path: str) -> Set[int]:
    """Line numbers the interpreter can actually execute in ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    excluded = {
        i
        for i, line in enumerate(source.splitlines(), start=1)
        if "pragma: no cover" in line
    }
    lines: Set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        for _start, _end, lineno in code.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    # The module's docstring/def lines register as executable but only
    # run at import; they still count — imports happen under the tracer.
    return lines - excluded


def run_suite_traced(test_args) -> Dict[str, Set[int]]:
    """Run pytest in-process, tracing lines executed under OBS_DIR."""
    import pytest

    executed: Dict[str, Set[int]] = {}
    prefix = OBS_DIR + os.sep

    def local_tracer(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local_tracer

    def global_tracer(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(prefix):
                executed.setdefault(filename, set())
                return local_tracer
        return None

    # Drop cached obs modules so their import-time lines run under the
    # tracer too (the gate process may have imported them already).
    for name in [m for m in sys.modules if m == "repro.obs" or m.startswith("repro.obs.")]:
        del sys.modules[name]

    sys.settrace(global_tracer)
    try:
        exit_code = pytest.main(test_args)
    finally:
        sys.settrace(None)
    if exit_code != 0:
        print(f"obs test suite failed (pytest exit {exit_code})", file=sys.stderr)
        sys.exit(int(exit_code))
    return executed


def report(executed: Dict[str, Set[int]], floor: float) -> int:
    """Print the per-module table; return 1 when the total misses the floor."""
    rows: list[Tuple[str, int, int]] = []
    for entry in sorted(os.listdir(OBS_DIR)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(OBS_DIR, entry)
        want = executable_lines(path)
        got = executed.get(path, set()) & want
        rows.append((entry, len(got), len(want)))

    width = max(len(name) for name, _, _ in rows)
    total_got = total_want = 0
    for name, got, want in rows:
        pct = 100.0 * got / want if want else 100.0
        print(f"  {name:<{width}}  {got:>4}/{want:<4}  {pct:6.1f}%")
        total_got += got
        total_want += want
    total_pct = 100.0 * total_got / total_want if total_want else 100.0
    print(f"  {'TOTAL':<{width}}  {total_got:>4}/{total_want:<4}  {total_pct:6.1f}%")

    if total_pct < floor:
        print(
            f"repro/obs coverage {total_pct:.1f}% is below the {floor:.0f}% floor",
            file=sys.stderr,
        )
        return 1
    print(f"repro/obs coverage {total_pct:.1f}% >= {floor:.0f}% floor")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR,
                        help=f"minimum total line coverage in percent (default {DEFAULT_FLOOR})")
    parser.add_argument("tests", nargs="*", default=["tests/obs"],
                        help="pytest targets to run (default: tests/obs)")
    args = parser.parse_args()

    os.chdir(REPO)
    executed = run_suite_traced(["-q", "-p", "no:cacheprovider", *args.tests])
    sys.exit(report(executed, args.floor))


if __name__ == "__main__":
    main()
