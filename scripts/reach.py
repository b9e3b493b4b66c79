#!/usr/bin/env python3
"""Which functions under ``src/repro`` does no run reach?  A gate.

Runs every user-facing entry point (:data:`ENTRY_POINTS`: the figure
reproduction, the nine examples, the telemetry export and the
benchmark's smoke run), each in its own subprocess, and records every
function of ``src/repro`` that any of their processes enters.  A
generated ``sitecustomize.py`` on ``PYTHONPATH`` installs the probe in
every interpreter, so pool workers and the benchmark's worker processes
are traced too.  The probe is both a trace and a profile hook: cProfile
(the benchmark's traced run uses it) replaces the profile hook while it
runs and removes it when it stops, and the trace hook sees what the
profile hook misses then.  Each process writes the ``(file,
co_firstlineno)`` of the code objects it entered when it exits.

Every ``def`` under ``src/repro`` is found with :mod:`ast` and matched at
its first line, which for a decorated function is its first decorator's
line: that is the code object's ``co_firstlineno``.

The functions no run enters must be exactly those listed in
``scripts/reach_unreached.txt``, one per line::

    path:qualname  kind  reason

where ``kind`` is one of ROADMAP item 14's kinds (``a`` a test-only
API, ``b`` held for item 8: the calendar queue and the chunked record
container, ``c`` an axis no example exercises, ``d`` a rare branch of a
live path, ``e`` a path the entry points switch off) or ``interface`` (a
hook or abstract method that exists to be overridden or satisfied).
Run::

    python scripts/reach.py          # the gate (~27 s)
    python scripts/reach.py --list   # every unreached function, with its length

The gate exits 1 when a function no run enters is not listed (it prints
the lines to add, kind ``?``) or when a listed function is now reached or
no longer exists, and 2 when an entry point fails.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
LIST_FILE = REPO / "scripts" / "reach_unreached.txt"
KINDS = ("a", "b", "c", "d", "e", "interface")

#: What a user runs, with the cheapest options that keep each path on
#: (quick mode and one worker where offered; the disk cache stays on in
#: the benchmark's figure sweep).  ``{tmp}`` is a scratch directory.
ENTRY_POINTS: Tuple[Tuple[str, ...], ...] = (
    ("scripts/reproduce_results.py", "--quick", "--no-disk-cache", "--workers", "1"),
    ("examples/quickstart.py",),
    ("examples/three_process_walkthrough.py",),
    ("examples/gantt_illustration.py",),
    ("examples/figure_reproduction.py",),
    ("examples/cloud_topology.py",),
    ("examples/latency_ablation.py",),
    ("examples/crash_recovery.py", "--quick", "--workers", "1"),
    ("examples/fault_ablation.py", "--quick", "--workers", "1"),
    ("examples/trace_ablation.py", "--quick", "--workers", "1"),
    ("scripts/export_metrics.py", "--health", "-o", "{tmp}/run.prom"),
    ("benchmarks/e2e/run.py", "--smoke"),
)

#: The probe every traced interpreter imports at startup.
SITECUSTOMIZE = '''\
import os, sys, threading

_MARK = {mark!r}
_OUT = {out!r}
_seen = set()


def _trace(frame, event, arg):
    code = frame.f_code
    if _MARK in code.co_filename:
        _seen.add((code.co_filename, code.co_firstlineno))


def _profile(frame, event, arg):
    if event == "call":
        _trace(frame, event, arg)


def _dump():
    name = os.path.join(_OUT, "%d-%s.txt" % (os.getpid(), os.urandom(4).hex()))
    with open(name, "w") as fh:
        fh.writelines("%s\\t%d\\n" % entry for entry in tuple(_seen))


_os_exit = os._exit


def _exit(code):
    # Forked pool workers leave through os._exit, past atexit.
    _dump()
    _os_exit(code)


import atexit
atexit.register(_dump)
os._exit = _exit
sys.settrace(_trace)
sys.setprofile(_profile)
threading.settrace(_trace)
threading.setprofile(_profile)
'''


class Function(NamedTuple):
    """One ``def`` of the package."""

    path: str  # relative to the repository root
    qualname: str
    first_line: int  # co_firstlineno: the first decorator's line, if any
    lines: int

    @property
    def name(self) -> str:
        """``path:qualname``, the key of a list entry."""
        return f"{self.path}:{self.qualname}"


def functions_in(path: Path, relative: str) -> Iterator[Function]:
    """Every ``def`` in the module at ``path``, named as Python's ``__qualname__``."""

    def visit(node: ast.AST, prefix: str) -> Iterator[Function]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield Function(relative, qualname, first, child.end_lineno - first + 1)
                yield from visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), "")


def package_functions() -> List[Function]:
    """Every ``def`` under ``src/repro``, sorted by path and line."""
    found = []
    for source in sorted(PACKAGE.rglob("*.py")):
        found.extend(functions_in(source, source.relative_to(REPO).as_posix()))
    return found


def reached_by_entry_points() -> Set[Tuple[str, int]]:
    """``(path relative to the repo, co_firstlineno)`` of every code object entered."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir, out_dir = Path(tmp, "hook"), Path(tmp, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        mark = os.sep + "repro" + os.sep
        (hook_dir / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(mark=mark, out=str(out_dir))
        )
        path = [str(hook_dir), str(REPO / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        for entry in ENTRY_POINTS:
            command = [sys.executable] + [arg.format(tmp=tmp) for arg in entry]
            proc = subprocess.run(
                command, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"reach: {' '.join(entry)} exited {proc.returncode}", file=sys.stderr)
                raise SystemExit(2)
        reached = set()
        for dump in out_dir.iterdir():
            for line in dump.read_text().splitlines():
                filename, first_line = line.rsplit("\t", 1)
                resolved = Path(filename).resolve()
                if resolved.is_relative_to(PACKAGE):
                    reached.add((resolved.relative_to(REPO).as_posix(), int(first_line)))
        return reached


def read_list() -> Dict[str, Tuple[str, str]]:
    """``path:qualname -> (kind, reason)`` from the committed list."""
    entries = {}
    for number, raw in enumerate(LIST_FILE.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3 or parts[1] not in KINDS:
            raise SystemExit(
                f"{LIST_FILE.name}:{number}: want 'path:qualname kind reason', got {raw!r}"
            )
        if parts[0] in entries:
            raise SystemExit(f"{LIST_FILE.name}:{number}: {parts[0]} is listed twice")
        entries[parts[0]] = (parts[1], parts[2])
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function with its length, then check")
    args = parser.parse_args()

    functions = package_functions()
    listed = read_list()
    reached = reached_by_entry_points()
    unreached = [f for f in functions if (f.path, f.first_line) not in reached]
    if args.list:
        for f in unreached:
            kind = listed.get(f.name, ("?",))[0]
            print(f"{f.lines:4d}  {kind:9s}  {f.name}")

    names = {f.name for f in functions}
    unreached_names = {f.name for f in unreached}
    problems = 0
    for f in unreached:
        if f.name not in listed:
            print(f"unlisted: {f.name}  ?  <kind and reason>  ({f.lines} lines)")
            problems += 1
    for name in listed:
        if name not in names:
            print(f"gone: {name} is listed but no longer exists")
            problems += 1
        elif name not in unreached_names:
            print(f"reached: {name} is listed but a run now enters it")
            problems += 1
    print(
        f"reach: runs enter {len(functions) - len(unreached)} of {len(functions)} functions; "
        f"the {len(unreached)} they miss hold {sum(f.lines for f in unreached)} lines"
        + ("" if problems else f", all listed in {LIST_FILE.name}")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
