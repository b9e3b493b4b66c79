"""The spec tables of ``docs/scenarios.md`` name only real fields.

Each row of the LatencySpec, FaultSpec and DetectorSpec tables starts
with a call such as ``BernoulliLoss(p, seed=0, kinds=None)``; every name
it passes, by keyword or as a bare positional name, must be a field of
the class it calls, or a reader copying the row gets a ``TypeError``.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import repro.sim

DOC = Path(__file__).resolve().parents[2] / "docs" / "scenarios.md"

#: Headings of the sections whose tables list spec constructors.
SECTIONS = ("LatencySpec", "FaultSpec", "DetectorSpec")


def table_calls(section):
    """The call in the first cell of every row of ``section``'s table."""
    text = DOC.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return [
        match.group(1)
        for match in re.finditer(r"^\| `([A-Za-z]+\(.*?\))` \|", text, flags=re.MULTILINE)
    ]


def test_every_table_has_rows():
    assert all(table_calls(section) for section in SECTIONS)


@pytest.mark.parametrize(
    "call", [call for section in SECTIONS for call in table_calls(section)], ids=str
)
def test_row_names_only_fields_of_its_class(call):
    node = ast.parse(call, mode="eval").body
    cls = getattr(repro.sim, node.func.id)
    fields = {field.name for field in dataclasses.fields(cls)}
    named = [kw.arg for kw in node.keywords]
    named += [arg.id for arg in node.args if isinstance(arg, ast.Name)]
    assert set(named) <= fields, f"{call}: {sorted(set(named) - fields)} not in {sorted(fields)}"
