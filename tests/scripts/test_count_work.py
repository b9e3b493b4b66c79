"""``scripts/count_work.py``: how executed code is grouped, and the in-process counters.

The opcode counting itself runs workloads and is ``scripts/check.sh``'s
job (two counts of one tree must be equal, and the per-function table
must print); these tests pin the grouping and the tables, which need no
run, and the in-process counters on toy code.
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


def test_functions_are_labelled_by_tree_relative_path_and_qualified_name(count_work):
    src = os.path.join(os.sep, "tree", "src")
    stdlib = os.path.join(os.sep, "py", "lib", "python3.11") + os.sep

    def label(qualname, *parts):
        return count_work.function_label(os.path.join(*parts), qualname, src, stdlib)

    engine = os.path.join("src", "repro", "sim", "engine.py")
    assert label("Simulator.run", src, "repro", "sim", "engine.py") == f"{engine}:Simulator.run"
    workloads = os.path.join("benchmarks", "e2e", "e2ebench", "workloads.py")
    assert label("build", os.sep, "tree", workloads) == f"{workloads}:build"
    assert label("heappush", stdlib, "heapq.py") == "heapq.py:heappush"
    assert label("__create_fn__.<locals>.__init__", "<string>") == (
        "<string>:__create_fn__.<locals>.__init__"
    )


def test_table_by_function_ranks_the_top_k_and_sums_the_rest(count_work):
    text = count_work.table(
        "open_loop_bl", ["parent", "change"],
        [
            {"engine.py:Simulator.run": 40, "network.py:Network.send": 90, "a.py:f": 3, "b.py:g": 2},
            {"engine.py:Simulator.run": 60, "network.py:Network.send": 70, "a.py:f": 3},
        ],
        top=2,
    )
    lines = text.splitlines()
    assert lines[1].split() == ["function", "parent", "change"]
    rows = [line.split() for line in lines[2:]]
    # Ranked by the larger count in any tree; the rest summed per tree.
    assert rows == [
        ["network.py:Network.send", "90", "70", "-22.2%"],
        ["engine.py:Simulator.run", "40", "60", "+50.0%"],
        ["rest", "5", "3", "-40.0%"],
        ["total", "135", "133", "-1.5%"],
    ]


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


def test_qualified_opcode_counts_name_each_function_and_sum_to_the_plain_ones(count_work):
    _result, qualified = count_work.count_qualified_opcodes(caller, 1)
    _result, plain = count_work.count_opcodes(caller, 1)
    assert {key[3] for key in qualified} == {"caller", "callee"}
    assert {key[:3] for key in qualified} == set(plain)
    assert sum(qualified.values()) == sum(plain.values())


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
