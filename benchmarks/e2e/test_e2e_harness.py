"""Self-tests of the e2e benchmark harness (not of the simulator)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from compare import verdict  # noqa: E402
from e2ebench import spec  # noqa: E402
from e2ebench.layers import fold, layer_of  # noqa: E402
from e2ebench.measure import SPIN_REF_S, normalise, summarise  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_layer_fold_charges_builtins_to_their_caller():
    repro = os.path.join(os.sep, "x", "src", "repro")
    engine = (os.path.join(repro, "sim", "engine.py"), 10, "run")
    node = (os.path.join(repro, "core", "node.py"), 20, "on_Token")
    recovery = (os.path.join(repro, "core", "recovery.py"), 30, "adjudicate")
    other = (os.path.join(os.sep, "usr", "lib", "python3", "random.py"), 40, "random")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    stats = {
        engine: (1, 1, 2.0, 10.0, {}),
        node: (5, 5, 3.0, 4.0, {engine: (5, 5, 3.0, 4.0)}),
        recovery: (1, 1, 0.5, 0.5, {node: (1, 1, 0.5, 0.5)}),
        other: (2, 2, 0.5, 0.5, {node: (2, 2, 0.5, 0.5)}),
        # 8 pops: 6 from the engine (3.0 s), 2 from the protocol (1.0 s).
        heappop: (8, 8, 4.0, 4.0, {engine: (6, 6, 3.0, 3.0), node: (2, 2, 1.0, 1.0)}),
    }
    table = fold(stats)
    assert set(table) == set(spec.LAYERS)
    assert table["sim.engine"] == pytest.approx({"self_s": 5.0, "calls": 7, "self_share": 0.5})
    assert table["core"]["self_s"] == pytest.approx(4.0)
    assert table["core"]["calls"] == 7
    assert table["core.recovery"]["calls"] == 1
    assert table["stdlib"]["self_s"] == pytest.approx(0.5)
    assert sum(row["self_share"] for row in table.values()) == pytest.approx(1.0)
    assert table["obs"] == {"self_s": 0.0, "calls": 0, "self_share": 0.0}


def test_layer_of_maps_files_to_layers():
    base = os.path.join(os.sep, "checkout", "src", "repro")
    cases = {
        ("sim", "schedulers.py"): "sim.engine",
        ("sim", "latencyspec.py"): "sim.network",
        ("sim", "lifecycle.py"): "sim.faults",
        ("allocator.py",): "allocator",
        ("mutex", "naimi_trehel.py"): "mutex",
        ("baselines", "incremental.py"): "baselines",
        ("experiments", "driver.py"): "experiments.driver",
        ("experiments", "scenario.py"): "experiments.runner",
        ("metrics", "columns.py"): "metrics",
        ("parallel", "cache.py"): "parallel",
        ("obs", "runtime.py"): "obs",
        ("workload", "arrivals.py"): "workload",
    }
    for parts, layer in cases.items():
        assert layer_of(os.path.join(base, *parts)) == layer
    assert layer_of(os.path.join(HERE, "e2ebench", "worker.py")) == "stdlib"
    assert layer_of("<frozen importlib._bootstrap>") == "stdlib"


def test_normalisation_and_summary_arithmetic():
    # A machine running the spin 2x slower than the reference reports
    # half the raw seconds.
    assert normalise(3.0, 2 * SPIN_REF_S, 2 * SPIN_REF_S) == pytest.approx(1.5)
    assert normalise(3.0, 0.5 * SPIN_REF_S, 1.5 * SPIN_REF_S) == pytest.approx(3.0)
    s = summarise([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["median"], s["min"], s["n"]) == (3.0, 1.0, 5)
    assert s["iqr"] == pytest.approx(3.0)
    assert summarise([7.0]) == {"median": 7.0, "min": 7.0, "iqr": 0.0, "n": 1}


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert verdict(base, [v * 1.02 for v in base], "lower", 0.10)[0] == "same"
    assert verdict(base, [v * 1.20 for v in base], "lower", 0.10)[0] == "worse"
    assert verdict(base, [v * 0.80 for v in base], "lower", 0.10)[0] == "better"
    assert verdict(base, [v * 0.80 for v in base], "higher", 0.10)[0] == "worse"
    noisy = [0.8, 1.0, 1.3, 0.7, 1.2]
    assert verdict(noisy, [v * 1.03 for v in noisy], "lower", 0.10)[0] == "unresolved"


def test_names_agree_with_benchmark_json():
    listed = subprocess.run(
        RUN + ["--list"], check=True, capture_output=True, text=True
    ).stdout.split("\n")
    rows = [line.split() for line in listed if line]
    by_kind = {
        kind: [row[1] for row in rows if row[0] == kind]
        for kind in ("workload", "end_to_end", "per_layer")
    }
    declared = _benchmark_json()
    assert by_kind["workload"] == [w["name"] for w in declared["workloads"]]
    assert by_kind["end_to_end"] == [m["name"] for m in declared["end_to_end"]]
    assert by_kind["per_layer"] == [m["name"] for m in declared["per_layer"]]
    names = sum(by_kind.values(), [])
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert declared["run_seconds"] == spec.RUN_SECONDS
    for metric in declared["end_to_end"]:
        unit, better, bound = spec.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (unit, better, bound)
    layered = spec.per_layer()
    assert all((m["unit"], m["better"]) == layered[m["name"]] for m in declared["per_layer"])
    assert "setup_s" in spec.END_TO_END
    assert spec.END_TO_END["setup_s"][2] == max(b for _, _, b in spec.END_TO_END.values())


def test_smoke_run_emits_every_end_to_end_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(out.read_text())
    assert sorted(document["workloads"]) == sorted(spec.WORKLOADS)
    for name, workload in document["workloads"].items():
        assert workload["failed"] == 0 and not workload["problems"], name
        assert workload["attempted"] > 0
        for metric in spec.END_TO_END:
            assert metric in workload["samples"] or metric in workload["exact"], (name, metric)
            assert f" {metric} " in done.stdout
    assert not os.path.exists(os.path.join(ROOT, ".bench_e2e_work"))
