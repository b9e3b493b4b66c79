"""``scripts/count_work.py``: how executed code is grouped into layers.

The counting itself runs workloads and is ``scripts/check.sh``'s job
(two counts of one tree must be equal); these tests pin the grouping and
the table, which need no run.
"""

import importlib.util
import os
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "count_work.py"


def load_count_work():
    spec = importlib.util.spec_from_file_location("count_work_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_files_group_by_repro_package():
    count_work = load_count_work()
    src = os.path.join(os.sep, "tree", "src")
    stdlib = os.path.join(os.sep, "py", "lib", "python3.11") + os.sep

    def layer(*parts):
        return count_work.layer_of(os.path.join(*parts), src, stdlib)

    assert layer(src, "repro", "core", "node.py") == "core"
    assert layer(src, "repro", "sim", "engine.py") == "sim"
    assert layer(src, "repro", "allocator.py") == "allocator"
    assert layer("<string>") == "generated"
    assert layer(stdlib, "random.py") == "stdlib"
    assert layer(os.sep, "tree", "benchmarks", "e2e", "e2ebench", "workloads.py") == "other"
    # Another tree's sources are not this tree's layers.
    assert layer(os.sep, "other", "src", "repro", "core", "node.py") == "other"


def test_table_prints_every_layer_a_total_and_the_change():
    count_work = load_count_work()
    text = count_work.table(
        "open_loop_bl", ["parent", "change"],
        [{"sim": 100, "stdlib": 50}, {"sim": 100, "stdlib": 5, "workload": 20}],
    )
    lines = text.splitlines()
    assert lines[0] == "== open_loop_bl"
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(rows) == ["sim", "workload", "stdlib", "total"]
    assert rows["sim"] == ["100", "100", "+0.0%"]
    assert rows["workload"] == ["0", "20", "new"]
    assert rows["total"] == ["150", "125", "-16.7%"]
