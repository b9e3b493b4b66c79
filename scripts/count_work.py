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

In-process, the same hook is :func:`count_opcodes` (opcodes per
function of one call) and, with no opcode tracing, :func:`count_calls`
(the Python calls one call makes, per function and caller's file).  The
call-count contracts of ``tests/integration/test_call_contracts.py`` and
the benchmark suite's lifecycle contract are assertions over them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import sysconfig
import tempfile
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

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


def traced(hook, fn, *args):
    """``fn(*args)`` with ``hook`` as the global trace function, then the previous one again."""
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        return fn(*args)
    finally:
        sys.settrace(previous)


def code_key(function) -> Tuple[str, int, str]:
    """``(file, first line, name)``: how the counters key ``function``'s code, as ``pstats`` does."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def count_calls(fn, *args) -> Tuple[Any, Counter]:
    """``fn(*args)`` and the Python calls it made, as ``(result, calls)``.

    ``calls`` counts each call by ``(file, first line, name, caller's
    file)``: the callee's :func:`code_key` (so the generated constructors
    of one name share a ``<string>`` key) and the file of the frame that
    made the call.  A generator counts once per resume.  Garbage left by
    earlier code is collected first, so its finalizers (a dropped
    generator's close) are not counted here.  A trace function already
    installed keeps seeing every call, and is installed again afterwards.
    """
    gc.collect()
    calls: Counter = Counter()
    outer = sys.gettrace()

    def on_call(frame, event, arg):
        code = frame.f_code
        caller = frame.f_back
        calls[
            code.co_filename, code.co_firstlineno, code.co_name,
            caller.f_code.co_filename if caller is not None else "",
        ] += 1
        return outer(frame, event, arg) if outer is not None else None

    return traced(on_call, fn, *args), calls


def by_function(calls: Counter) -> Counter:
    """:func:`count_calls`' counts summed over callers, keyed by :func:`code_key`."""
    counts: Counter = Counter()
    for (file, line, name, _caller), n in calls.items():
        counts[file, line, name] += n
    return counts


def count_opcodes(fn, *args) -> Tuple[Any, Counter]:
    """``fn(*args)`` and the opcodes it executed, per function keyed by :func:`code_key`.

    Collects garbage first and keeps an outer trace function, as
    :func:`count_calls` does; the outer one sees every event but the
    opcodes.
    """
    gc.collect()
    opcodes: Counter = Counter()
    outer = sys.gettrace()

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        local = outer(frame, event, arg) if outer is not None else None

        def on_event(frame, event, arg):
            nonlocal local
            if event == "opcode":
                opcodes[key] += 1
            elif local is not None:
                local = local(frame, event, arg)
            return on_event

        return on_event

    return traced(on_call, fn, *args), opcodes


def probe(workload: str, scale: float) -> Dict[str, int]:
    """Opcode events per layer of one warmed run of ``workload`` (in this interpreter)."""
    from e2ebench.workloads import build

    import repro
    from repro.experiments.runner import run

    scenario = build(workload, 1, scale).jobs[0]
    run(scenario)
    _result, opcodes = count_opcodes(run, scenario)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    stdlib = os.path.normpath(sysconfig.get_paths()["stdlib"]) + os.sep
    layers: Counter = Counter()
    for (filename, _line, _name), count in opcodes.items():
        layers[layer_of(filename, src, stdlib)] += count
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
