#!/usr/bin/env python3
"""Executed bytecodes of a benchmark workload, per layer: a deterministic cost count.

``python scripts/count_work.py [--workload W ...] [--scale S] [--by function [--top K]] [REF ...]``

For each REF (any tree-ish; none: the working tree) the tree is exported
with ``git archive``, as ``scripts/bench_pairs.py`` does, and a fresh
interpreter builds that tree's own ``e2ebench.workloads.build(W, 1,
S).jobs[0]``, runs it once to warm up, then runs it again under
``sys.settrace`` with ``frame.f_trace_opcodes`` set, counting opcode
events by the file of the executing code.  Files group into the package
under ``src/repro`` (``core``, ``sim``, ``allocator`` for a top-level
module, ...), ``generated`` (code compiled from a string: dataclass and
namedtuple constructors), ``stdlib`` and ``other``.  With ``--by
function`` they group by function instead, labelled ``path:qualname``
(the path relative to the tree or the standard library, so one function
lines up across REFs), and the table shows the ``--top K`` (default 20)
with the most opcodes in any tree, then the ``rest``.  The table prints
one column per REF and, for two or more, the change of the last against
the first.

The count is exact and repeatable (``PYTHONHASHSEED`` is fixed in the
counting interpreter), so two runs on one tree print the same table;
``--repeat-check`` runs every count twice and exits 1 if they differ.
It is blind to work done in C, so a change that swaps Python frames for
C calls of equal cost reads as a saving the clock may not see: it aims
and predicts a wall-clock measurement, it does not replace one.  The
reverse holds too.  Moving constant-latency deliveries from the event
heap to the engine's FIFO lane (:mod:`repro.sim.engine`) replaced a
``heappush`` and a ``heappop`` sift per message, C work this count
never saw, with a merge of two queue heads written in bytecode.  On
``open_loop_bl`` at the default scale the count rose 4.2 % (20 128 801
to 20 979 423 opcodes: ``Simulator.run`` 3 094 683 to 3 753 390,
``Network._send_constant`` 4 478 096 to 4 669 976, all other functions
together +35), while the benchmark's spin-normalised ``run_s`` fell
10.7 % and 14.6 % (seeds 1 and 2, the change faster in 10 of 10 pairs
each).

Below each table, one line gives the cyclic collector's passes per
generation (0/1/2) during one more, untraced run of the same job in
each tree (:func:`collector_passes`).  The collector is the second cost
this count cannot see: it walks every container the run has allocated
and not yet freed, in C, whenever allocations outrun frees by 700.  A
run grows its live graph all the way, so on ``closed_loop_paper`` at
the default scale the collector made 44 young and 4 middle passes,
and ``gc.callbacks`` timed 61 young and 5 middle passes at 50 + 17 ms
of one full-size 1.09 s run (6.1 %; CPython 3.11.7, 2-core container).  ``run`` now pauses the collector
and leaves no cyclic garbage (:mod:`repro.experiments.runner`), and
every workload reads 0/0/0; the other three read 3/0/0
(``open_loop_bl``), 44/3/0 (``crash_recovery``) and 6/0/0
(``figure_sweep``) before.  The reading is as exact as the count: the
same ``PYTHONHASHSEED``, and the garbage of earlier code collected
first, so ``--repeat-check`` covers it too.

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
    result, qualified = count_qualified_opcodes(fn, *args)
    opcodes: Counter = Counter()
    for (file, line, name, _qualname), n in qualified.items():
        opcodes[file, line, name] += n
    return result, opcodes


def count_qualified_opcodes(fn, *args) -> Tuple[Any, Counter]:
    """:func:`count_opcodes`, keyed ``(file, first line, name, qualified name)``."""
    gc.collect()
    opcodes: Counter = Counter()
    outer = sys.gettrace()

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        code = frame.f_code
        key = (
            code.co_filename, code.co_firstlineno, code.co_name,
            getattr(code, "co_qualname", code.co_name),  # Python 3.11+
        )
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


def function_label(filename: str, qualname: str, src: str, stdlib: str) -> str:
    """``path:qualname`` of a function, the same in every tree whose sources are ``src``.

    The path is relative to the tree (``src/repro/sim/engine.py``) or to
    the standard library (``heapq.py``); any other file keeps its name.
    """
    tree = os.path.dirname(src) + os.sep
    for base in (tree, stdlib):
        if filename.startswith(base):
            filename = filename[len(base):]
            break
    return f"{filename}:{qualname}"


def collector_passes(fn, *args) -> List[int]:
    """The cyclic collector's passes per generation (0, 1, 2) while ``fn(*args)`` runs.

    Garbage left by earlier code is collected first, which also zeroes
    the allocation counts that start a pass, so the reading depends on
    ``fn`` alone.
    """
    passes = [0, 0, 0]

    def on_collect(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(on_collect)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(on_collect)
    return passes


def probe(workload: str, scale: float, by: str = "layer") -> Tuple[Dict[str, int], List[int]]:
    """Opcode events per layer (or per function) of one warmed run of ``workload``, and
    the collector's passes per generation in one more, untraced run (in this interpreter)."""
    from e2ebench.workloads import build

    import repro
    from repro.experiments.runner import run

    scenario = build(workload, 1, scale).jobs[0]
    run(scenario)
    _result, opcodes = count_qualified_opcodes(run, scenario)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    stdlib = os.path.normpath(sysconfig.get_paths()["stdlib"]) + os.sep
    groups: Counter = Counter()
    for (filename, _line, _name, qualname), count in opcodes.items():
        if by == "function":
            groups[function_label(filename, qualname, src, stdlib)] += count
        else:
            groups[layer_of(filename, src, stdlib)] += count
    return dict(groups), collector_passes(run, scenario)


def count_tree(
    tree: str, workload: str, scale: float, by: str = "layer"
) -> Tuple[Dict[str, int], List[int]]:
    """Run :func:`probe` in a fresh interpreter inside ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.pathsep.join(
        (os.path.join(tree, "src"), os.path.join(tree, "benchmarks", "e2e"))
    )
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable, os.path.abspath(__file__), "--probe", workload, "--scale", str(scale),
        "--by", by,
    ]
    done = subprocess.run(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    groups, passes = json.loads(done.stdout.strip().splitlines()[-1])
    return groups, passes


def export(ref: str, target: str) -> None:
    """``git archive REF | tar -x`` into ``target``."""
    os.makedirs(target)
    with subprocess.Popen(["git", "-C", ROOT, "archive", ref], stdout=subprocess.PIPE) as git:
        subprocess.run(["tar", "-x", "-C", target], stdin=git.stdout, check=True)
    if git.returncode:
        raise SystemExit(f"git archive {ref} failed")


def table(
    workload: str, names: List[str], counts: List[Dict[str, int]], top: Optional[int] = None
) -> str:
    """One workload's counts, one column per tree.

    Per layer (``top`` is ``None``): every layer, ``src/repro`` packages
    first.  Per function: the ``top`` functions with the most opcodes in
    any tree, most first, then one ``rest`` row for all the others.
    """
    groups = set().union(*counts)
    rest: List[str] = []
    if top is None:
        outside = ("generated", "stdlib", "other")
        shown = sorted(groups, key=lambda layer: (layer in outside, layer))
    else:
        ranked = sorted(groups, key=lambda group: (-max(c.get(group, 0) for c in counts), group))
        shown, rest = ranked[:top], ranked[top:]
    rows = [(group, [c.get(group, 0) for c in counts]) for group in shown]
    if rest:
        rows.append(("rest", [sum(c.get(group, 0) for group in rest) for c in counts]))
    rows.append(("total", [sum(c.values()) for c in counts]))
    label = max(12, *(len(group) for group, _values in rows))
    width = max(12, *(len(name) for name in names))
    heading = "layer" if top is None else "function"
    lines = [
        f"== {workload}",
        f"   {heading:<{label}}" + "".join(f" {name:>{width}}" for name in names),
    ]
    for group, values in rows:
        line = f"   {group:<{label}}" + "".join(f" {value:>{width},}" for value in values)
        if len(values) > 1:
            first, last = values[0], values[-1]
            line += f"  {(last - first) / first:+8.1%}" if first else "       new"
        lines.append(line)
    return "\n".join(lines)


def collector_line(passes: List[List[int]]) -> str:
    """The collector's passes per tree, as ``gen0/gen1/gen2`` columns under :func:`table`."""
    readings = ["/".join(str(n) for n in tree) for tree in passes]
    return "   collector passes (gen 0/1/2): " + "  ".join(readings)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("refs", metavar="REF", nargs="*", help="tree-ish (none: the working tree)")
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS, help="repeatable (default: all)"
    )
    parser.add_argument("--scale", type=float, default=0.2, help="workload duration scale")
    parser.add_argument(
        "--by", choices=("layer", "function"), default="layer", help="group opcodes by (default: layer)"
    )
    parser.add_argument(
        "--top", type=int, default=20, metavar="K", help="functions shown with --by function"
    )
    parser.add_argument(
        "--repeat-check", action="store_true", help="count twice, exit 1 on a difference"
    )
    parser.add_argument("--probe", metavar="W", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        groups, passes = probe(args.probe, args.scale, args.by)
        print(json.dumps([groups, passes], sort_keys=True))
        return 0
    top = args.top if args.by == "function" else None

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
            readings = [count_tree(tree, workload, args.scale, args.by) for tree in trees]
            if args.repeat_check:
                again = [count_tree(tree, workload, args.scale, args.by) for tree in trees]
                if again != readings:
                    stable = False
                    print(f"== {workload}: counts differ between two runs", file=sys.stderr)
            counts = [groups for groups, _passes in readings]
            print(table(workload, names, counts, top), flush=True)
            print(collector_line([passes for _groups, passes in readings]), flush=True)
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main())
