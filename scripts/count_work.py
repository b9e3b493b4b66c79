#!/usr/bin/env python3
"""Executed bytecodes of a benchmark workload, per layer: a deterministic cost count.

``python scripts/count_work.py [--workload W ...] [--scale S] [REF ...]``

For each REF (any tree-ish; none: the working tree) the tree is exported
with ``git archive``, as ``scripts/bench_pairs.py`` does, and a fresh
interpreter builds that tree's own ``e2ebench.workloads.build(W, 1,
S).jobs[0]``, runs it once to warm up, then runs it again under
``sys.settrace`` with ``frame.f_trace_opcodes`` set, counting opcode
events by the file of the executing code.  Files group into the package
under ``src/repro`` (``core``, ``sim``, ``allocator`` for a top-level
module, ...), ``generated`` (code compiled from a string: dataclass and
namedtuple constructors), ``stdlib`` and ``other``.  The table prints
one column per REF and, for two or more, the change of the last against
the first.

The count is exact and repeatable (``PYTHONHASHSEED`` is fixed in the
counting interpreter), so two runs on one tree print the same table;
``--repeat-check`` runs every count twice and exits 1 if they differ.
It is blind to work done in C, so a change that swaps Python frames for
C calls of equal cost reads as a saving the clock may not see: it aims
and predicts a wall-clock measurement, it does not replace one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import sysconfig
import tempfile
from collections import Counter
from typing import Dict, List, Optional

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

WORKLOADS = ("closed_loop_paper", "open_loop_bl", "crash_recovery", "figure_sweep")


def layer_of(filename: str, src: str, stdlib: str) -> str:
    """Layer of the code defined in ``filename`` for a tree whose sources are ``src``."""
    if filename.startswith("<"):
        return "generated"
    repro = os.path.join(src, "repro") + os.sep
    if filename.startswith(repro):
        head = filename[len(repro):].split(os.sep, 1)[0]
        return head[:-3] if head.endswith(".py") else head
    if filename.startswith(stdlib):
        return "stdlib"
    return "other"


def probe(workload: str, scale: float) -> Dict[str, int]:
    """Opcode events per layer of one warmed run of ``workload`` (in this interpreter)."""
    from e2ebench.workloads import build

    import repro
    from repro.experiments.runner import run

    scenario = build(workload, 1, scale).jobs[0]
    run(scenario)
    by_code: Counter = Counter()

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        code = frame.f_code

        def on_event(frame, event, arg):
            if event == "opcode":
                by_code[code] += 1
            return on_event

        return on_event

    sys.settrace(on_call)
    try:
        run(scenario)
    finally:
        sys.settrace(None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    stdlib = os.path.normpath(sysconfig.get_paths()["stdlib"]) + os.sep
    layers: Counter = Counter()
    for code, count in by_code.items():
        layers[layer_of(code.co_filename, src, stdlib)] += count
    return dict(layers)


def count_tree(tree: str, workload: str, scale: float) -> Dict[str, int]:
    """Run :func:`probe` in a fresh interpreter inside ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.pathsep.join(
        (os.path.join(tree, "src"), os.path.join(tree, "benchmarks", "e2e"))
    )
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable, os.path.abspath(__file__), "--probe", workload, "--scale", str(scale)
    ]
    done = subprocess.run(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def export(ref: str, target: str) -> None:
    """``git archive REF | tar -x`` into ``target``."""
    os.makedirs(target)
    with subprocess.Popen(["git", "-C", ROOT, "archive", ref], stdout=subprocess.PIPE) as git:
        subprocess.run(["tar", "-x", "-C", target], stdin=git.stdout, check=True)
    if git.returncode:
        raise SystemExit(f"git archive {ref} failed")


def table(workload: str, names: List[str], counts: List[Dict[str, int]]) -> str:
    """One workload's per-layer counts, one column per tree."""
    outside = ("generated", "stdlib", "other")
    layers = sorted(set().union(*counts), key=lambda layer: (layer in outside, layer))
    width = max(12, *(len(name) for name in names))
    lines = [f"== {workload}", f"   {'layer':<12}" + "".join(f" {name:>{width}}" for name in names)]
    rows = [(layer, [c.get(layer, 0) for c in counts]) for layer in layers]
    rows.append(("total", [sum(c.values()) for c in counts]))
    for layer, values in rows:
        line = f"   {layer:<12}" + "".join(f" {value:>{width},}" for value in values)
        if len(values) > 1:
            first, last = values[0], values[-1]
            line += f"  {(last - first) / first:+8.1%}" if first else "       new"
        lines.append(line)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("refs", metavar="REF", nargs="*", help="tree-ish (none: the working tree)")
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS, help="repeatable (default: all)"
    )
    parser.add_argument("--scale", type=float, default=0.2, help="workload duration scale")
    parser.add_argument(
        "--repeat-check", action="store_true", help="count twice, exit 1 on a difference"
    )
    parser.add_argument("--probe", metavar="W", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(probe(args.probe, args.scale), sort_keys=True))
        return 0

    workloads = args.workload or list(WORKLOADS)
    stable = True
    with tempfile.TemporaryDirectory(prefix="count-work-") as tmp:
        trees = []
        for i, ref in enumerate(args.refs):
            trees.append(os.path.join(tmp, str(i)))
            export(ref, trees[-1])
        names = list(args.refs) or ["worktree"]
        trees = trees or [ROOT]
        for workload in workloads:
            counts = [count_tree(tree, workload, args.scale) for tree in trees]
            if args.repeat_check:
                again = [count_tree(tree, workload, args.scale) for tree in trees]
                if again != counts:
                    stable = False
                    print(f"== {workload}: counts differ between two runs", file=sys.stderr)
            print(table(workload, names, counts), flush=True)
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main())
