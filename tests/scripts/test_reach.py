"""``scripts/reach.py``: its ``def`` finder and its committed list.

The gate matches each ``def`` to the code objects a run entered by
``co_firstlineno``, which for a decorated function is its first
decorator's line.  These tests pin that match against real code objects,
and check that every line of ``scripts/reach_unreached.txt`` names a
function that exists, with a known kind.  The runs themselves are the
gate's job (``scripts/check.sh``), not the test suite's.
"""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "reach.py"

MODULE = '''\
def tag(fn):
    return fn


@tag
@tag
def stacked():
    return 2


class Holder:
    @property
    def value(self):
        return 3

    def method(self):
        def inner():
            return 4

        return inner


async def waiter():
    return 5
'''


def load_reach():
    spec = importlib.util.spec_from_file_location("reach_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_first_line_is_the_code_objects_first_line(tmp_path):
    reach = load_reach()
    path = tmp_path / "sample.py"
    path.write_text(MODULE)
    namespace = {}
    exec(compile(MODULE, str(path), "exec"), namespace)
    codes = {
        "tag": namespace["tag"].__code__,
        "stacked": namespace["stacked"].__code__,
        "Holder.value": namespace["Holder"].value.fget.__code__,
        "Holder.method": namespace["Holder"].method.__code__,
        "Holder.method.<locals>.inner": namespace["Holder"]().method().__code__,
        "waiter": namespace["waiter"].__code__,
    }
    found = {f.qualname: f for f in reach.functions_in(path, "sample.py")}
    assert set(found) == set(codes)
    for qualname, code in codes.items():
        assert found[qualname].first_line == code.co_firstlineno, qualname
    # A decorated function starts at its first decorator and spans its body.
    assert found["stacked"].first_line == MODULE.splitlines().index("@tag") + 1
    assert found["stacked"].lines == 4


def test_committed_list_names_existing_functions():
    reach = load_reach()
    listed = reach.read_list()
    names = {f.name for f in reach.package_functions()}
    assert listed, "the list is empty"
    assert set(listed) <= names
    assert all(kind in reach.KINDS and reason for kind, reason in listed.values())
