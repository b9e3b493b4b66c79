#!/usr/bin/env python3
"""Docstring gate for the documented-API modules.

Stand-in for ``ruff check --select D1`` / ``pydocstyle`` (not available
in the dev container): every public module, class, function and method
in the gated files below must carry a docstring.  Public means the name
does not start with ``_``; ``__init__`` is exempt (the class docstring
documents construction — D107 relaxed), as are ``on_<Message>`` handler
overrides whose contract lives on ``Node.deliver``.

Run directly or through ``scripts/check.sh`` / CI::

    python scripts/check_docstrings.py

Exit status is the number of missing docstrings (0 = gate passes).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Files/directories whose public symbols must be documented.
GATED = [
    "src/repro/experiments",
    "src/repro/obs",
    "src/repro/sim/engine.py",
    "src/repro/sim/faults.py",
    "src/repro/sim/schedulers.py",
    "src/repro/workload",
    "src/repro/core/config.py",
    "src/repro/core/ordering.py",
    "src/repro/core/token.py",
]

#: Dunder methods whose semantics are standard enough to skip (D105).
DUNDER_EXEMPT = True


def iter_gated_files():
    for entry in GATED:
        path = REPO / entry
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def is_public(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return not DUNDER_EXEMPT and name != "__init__"
    if name.startswith("on_") and name[3:4].isupper():
        # ``on_<MessageClass>`` dispatch overrides: the contract lives on
        # ``Node.deliver``, not on each handler.
        return False
    return not name.startswith("_")


def check_file(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    missing = []
    rel = path.relative_to(REPO)

    if ast.get_docstring(tree) is None:
        missing.append(f"{rel}:1: missing module docstring")

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                qual = f"{prefix}{name}"
                if is_public(name) and ast.get_docstring(child) is None:
                    kind = "class" if isinstance(child, ast.ClassDef) else "function"
                    missing.append(f"{rel}:{child.lineno}: missing {kind} docstring: {qual}")
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{qual}.")

    walk(tree, "")
    return missing


def main() -> int:
    missing = []
    for path in iter_gated_files():
        missing.extend(check_file(path))
    for line in missing:
        print(line)
    if missing:
        print(f"\n{len(missing)} public symbol(s) without docstrings", file=sys.stderr)
    else:
        print("docstring gate OK")
    return min(len(missing), 99)


if __name__ == "__main__":
    raise SystemExit(main())
