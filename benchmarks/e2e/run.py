#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end and layer by layer.

``python benchmarks/e2e/run.py [--seed 1] [--out FILE]``
    runs every workload with tracing off, checks the outputs and prints
    every end-to-end metric by name with its unit;
``python benchmarks/e2e/run.py --trace [--out FILE]``
    makes the separate traced run that yields the per-layer metrics;
``--workload NAME --seed N --seconds S --trace 0|1``
    is the form the driver calls: one workload, and as the last line of
    stdout one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

See ``README.md`` beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
WORK_ROOT = os.path.join(ROOT, ".bench_e2e_work")

sys.path.insert(0, HERE)

from e2ebench import spec  # noqa: E402
from e2ebench.measure import normalise, spin, summarise  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` (the last one stays as the worker).
#: Seven, not five: one slow spawn in five is enough to double the IQR.
SETUP_SAMPLES = 7
SMOKE_SCALE = 1.0 / 20.0


class WorkerFailed(RuntimeError):
    """A workload process died or never reported ready."""


class WorkerProcess:
    """Handle on one ``--worker`` child: spawn timed, then line-per-command."""

    def __init__(self, name: str, seed: int, scale: float, work_dir: str) -> None:
        self.name = name
        command = [
            sys.executable, os.path.join(HERE, "run.py"), "--worker", name,
            "--seed", str(seed), "--scale", repr(scale), "--work-dir", work_dir,
        ]
        start = perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        self._read()
        self.setup_raw = perf_counter() - start

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise WorkerFailed(
                f"worker {self.name} exited with code {self.process.wait()} before replying"
            )
        return json.loads(line)

    def call(self, op: str) -> dict:
        self.process.stdin.write(op + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Spawn:
    """How this invocation starts workers and calibrates: seed, scale, scratch."""

    def __init__(self, seed: int, scale: float, work_dir: str) -> None:
        self.seed, self.scale, self.work_dir = seed, scale, work_dir

    def __call__(self, name: str) -> WorkerProcess:
        return WorkerProcess(name, self.seed, self.scale, self.work_dir)

    def spin(self) -> float:
        return spin(self.scale)


class Tally:
    """What one workload measured: samples, request counts, problems."""

    def __init__(self) -> None:
        self.samples: Dict[str, dict] = {}
        self.exact: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._last_issued = 1

    def add_timed(self, metric: str, raws, spin_before: float, spin_after: float) -> None:
        entry = self.samples.setdefault(
            metric, {"normalised": [], "raw": [], "spins": []}
        )
        for raw in raws:
            entry["raw"].append(raw)
            entry["normalised"].append(normalise(raw, spin_before, spin_after))
        entry["spins"] += [spin_before, spin_after]

    def add_reply(self, metric: str, reply: dict) -> None:
        """Fold one worker reply in.

        A repeat that raised, or whose outputs failed a check, fails every
        request it issued (or would have: the last good repeat's count).
        """
        if "error" in reply:
            self.problems.append(reply["error"].strip().splitlines()[-1])
            self.attempted += self._last_issued
            self.failed += self._last_issued
            return
        for check in reply["checks"]:
            self._last_issued = max(1, check["issued"])
            self.attempted += check["issued"]
            self.failed += check["issued"] if check["problems"] else 0
            self.problems += check["problems"]
        if "raw" in reply:
            self.add_timed(metric, reply["raw"], reply["spin_before"], reply["spin_after"])


def measure_setup(spawn: Spawn, name: str, samples: int, tally: Tally) -> WorkerProcess:
    """Time ``samples`` fresh interpreters to ready; keep the last as the worker."""
    worker = None
    before = spawn.spin()
    for _ in range(samples):
        if worker is not None:
            worker.close()
        worker = spawn(name)
        after = spawn.spin()
        tally.add_timed("setup_s", [worker.setup_raw], before, after)
        before = after
    return worker


def repeats_for(name: str, seconds: float) -> int:
    """Cold repeats: nominal at RUN_SECONDS, scaled by ``--seconds``, never below 3."""
    return max(3, round(spec.REPEATS[name] * seconds / spec.RUN_SECONDS))


def run_end_to_end(spawn: Spawn, names: List[str], seconds: float) -> Dict[str, Tally]:
    """Tracing off: set-up, interleaved cold repeats, memory."""
    smoke = spawn.scale != 1.0
    tallies = {name: Tally() for name in names}
    workers: Dict[str, WorkerProcess] = {}
    try:
        for name in names:
            workers[name] = measure_setup(
                spawn, name, 1 if smoke else SETUP_SAMPLES, tallies[name]
            )
        counts = {name: 1 if smoke else repeats_for(name, seconds) for name in names}
        # Round-robin, one timed thing at a time, so every workload's
        # samples span the whole benchmark window.
        for round_index in range(max(counts.values())):
            for name in names:
                if round_index < counts[name]:
                    tallies[name].add_reply("run_s", workers[name].call("run"))
        for name in names:
            final = workers[name].call("finish")
            tallies[name].exact = final["simulated"] or {}
            tallies[name].samples["peak_rss_mb"] = {"normalised": [final["peak_rss_mb"]]}
    finally:
        for worker in workers.values():
            worker.close()
    return tallies


def run_traced(spawn: Spawn, names: List[str]) -> Dict[str, Tally]:
    """The separate traced run, one workload after the other."""
    tallies = {}
    for name in names:
        tally = tallies[name] = Tally()
        worker = spawn(name)
        try:
            reply = worker.call("trace")
        finally:
            worker.close()
        tally.add_reply("trace", reply)
        tally.exact = reply.get("values", {})
    return tallies


def metric_values(tally: Tally, trace: bool) -> Optional[Dict[str, dict]]:
    """``{name: {value, unit}}`` for the driver, or ``None`` when one is missing."""
    out = {}
    if trace:
        for name, (unit, _) in spec.per_layer().items():
            if name not in tally.exact:
                return None
            out[name] = {"value": tally.exact[name], "unit": unit}
        return out
    for name, (unit, _, _) in spec.END_TO_END.items():
        if name in tally.samples and tally.samples[name]["normalised"]:
            value = summarise(tally.samples[name]["normalised"])["median"]
        elif name in tally.exact:
            value = tally.exact[name]
        else:
            return None
        out[name] = {"value": value, "unit": unit}
    return out


def report(tallies: Dict[str, Tally], trace: bool) -> None:
    """Every metric by name with its unit; timed ones with raw, spin, min, IQR, n."""
    for name, tally in tallies.items():
        share = tally.failed / tally.attempted if tally.attempted else 1.0
        print(f"\n== {name}  (failed_share {share:.6f}: {tally.failed}/{tally.attempted} requests)")
        for problem in tally.problems:
            print(f"   PROBLEM: {problem}")
        if trace:
            for metric, (unit, _) in spec.per_layer().items():
                if metric in tally.exact:
                    value = tally.exact[metric]
                    shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
                    print(f"   {metric:<42} {shown} {unit}")
            continue
        for metric, (unit, better, bound) in spec.END_TO_END.items():
            entry = tally.samples.get(metric)
            if entry and entry["normalised"]:
                s = summarise(entry["normalised"])
                line = (
                    f"   {metric:<14} {s['median']:>11.4f} {unit:<4} "
                    f"min {s['min']:.4f}  IQR {s['iqr']:.4f}  n={s['n']}"
                )
                if entry.get("raw"):
                    raw = summarise(entry["raw"])["median"]
                    spins = summarise(entry["spins"])["median"]
                    line += f"  raw {raw:.4f} s  spin {spins:.4f} s"
                print(line + f"  ({better} is better, bound {bound:.0%})")
            elif metric in tally.exact:
                print(
                    f"   {metric:<14} {tally.exact[metric]:>11.4f} {unit:<4} simulated, exact"
                    f"  ({better} is better, bound {bound:.0%} across seeds)"
                )
        for metric in ("wait_mean_ms", "wait_p99_ms"):
            if metric in tally.exact:
                print(f"   {metric:<14} {tally.exact[metric]:>11.4f} ms   simulated, exact")


def document(tallies: Dict[str, Tally], seed: int, trace: bool) -> dict:
    """The ``--out`` file: everything ``compare.py`` needs."""
    return {
        "seed": seed,
        "trace": trace,
        "workloads": {
            name: {
                "attempted": t.attempted,
                "failed": t.failed,
                "problems": t.problems,
                "samples": t.samples,
                "exact": t.exact,
            }
            for name, t in tallies.items()
        },
    }


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="write samples and metrics as JSON")
    parser.add_argument("--list", action="store_true", help="print every name and exit")
    parser.add_argument("--smoke", action="store_true", help="durations / 20, 1 repeat")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.list:
        for name in spec.WORKLOADS:
            print(f"workload {name}")
        for name, (unit, _, _) in spec.END_TO_END.items():
            print(f"end_to_end {name} {unit}")
        for name, (unit, _) in spec.per_layer().items():
            print(f"per_layer {name} {unit}")
        return 0

    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.worker is not None:
        from e2ebench.worker import serve

        return serve(args.worker, args.seed, args.scale, args.work_dir)
    import repro  # noqa: F401  (fail here, before any child, when the program is absent)

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    trace = bool(args.trace)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    spawn = Spawn(args.seed, SMOKE_SCALE if args.smoke else 1.0, work_dir)
    try:
        tallies = run_traced(spawn, names) if trace else run_end_to_end(spawn, names, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # succeeds for the last invocation out
        except OSError:
            pass
    report(tallies, trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document(tallies, args.seed, trace), fh, indent=1, sort_keys=True)
            fh.write("\n")

    correct = all(not t.problems and t.failed == 0 for t in tallies.values())
    if args.workload:
        tally = tallies[args.workload]
        metrics = metric_values(tally, trace)
        if metrics is None:
            print(f"{args.workload}: no result (see PROBLEM lines above)", file=sys.stderr)
            return 1
        print(
            json.dumps(
                {
                    "correct": not tally.problems,
                    "attempted": max(1, tally.attempted),
                    "failed": tally.failed,
                    "metrics": metrics,
                }
            )
        )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
