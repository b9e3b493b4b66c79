"""``scripts/count_work.py``: how executed code is grouped, and the in-process counters.

The opcode counting itself runs workloads and is ``scripts/check.sh``'s
job (two counts of one tree must be equal); these tests pin the grouping
and the table, which need no run, and the in-process counters on toy code.
"""

import os
import sys

import pytest


def callee(n):
    return n + 1


def caller(n):
    return callee(n) + callee(n)


def test_files_group_by_repro_package(count_work):
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


def test_table_prints_every_layer_a_total_and_the_change(count_work):
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


def test_count_calls_counts_each_function_by_its_caller_file(count_work):
    result, calls = count_work.count_calls(caller, 1)
    assert result == 4
    here = caller.__code__.co_filename
    scripts = count_work.traced.__code__.co_filename
    assert calls == {
        (here, caller.__code__.co_firstlineno, "caller", scripts): 1,
        (here, callee.__code__.co_firstlineno, "callee", here): 2,
    }


def test_by_function_sums_a_function_over_its_callers(count_work):
    calls = {("f.py", 3, "f", "a.py"): 1, ("f.py", 3, "f", "b.py"): 2, ("g.py", 1, "g", "a.py"): 1}
    assert count_work.by_function(calls) == {("f.py", 3, "f"): 3, ("g.py", 1, "g"): 1}


def test_count_opcodes_counts_each_function_by_its_code(count_work):
    result, opcodes = count_work.count_opcodes(caller, 1)
    assert result == 4
    assert set(opcodes) == {count_work.code_key(caller), count_work.code_key(callee)}
    # Two calls of ``callee`` run its opcodes twice.
    _result, once = count_work.count_opcodes(callee, 1)
    assert opcodes[count_work.code_key(callee)] == 2 * once[count_work.code_key(callee)] > 0


@pytest.mark.parametrize("counter", ["count_calls", "count_opcodes"])
def test_counter_keeps_a_tracer_installed_before_it(count_work, counter):
    seen = []

    def outer(frame, event, arg):
        seen.append(frame.f_code.co_name)

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        getattr(count_work, counter)(caller, 1)
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
    # The outer tracer saw the counted calls too.
    assert seen.count("callee") == 2
