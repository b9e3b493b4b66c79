#!/usr/bin/env python3
"""Profile the canonical closed-loop scenario with cProfile.

Two uses:

* ``python scripts/profile_run.py`` — run the canonical no-fault
  benchmark scenario under cProfile and print the top-20 functions by
  cumulative time.  This is the profile the PR 9 hot-path work was
  guided by; keeping the tool in-tree makes the next optimisation pass
  start from evidence instead of guesses.
* ``python scripts/profile_run.py --check`` — assert the zero-overhead
  contract structurally: a no-fault run must execute **no frames at
  all** from the fault layer (``sim/faults.py``), the crash lifecycle
  (``sim/lifecycle.py``), the recovery coordinator
  (``core/recovery.py``) or the telemetry package (the whole
  ``repro/obs/`` directory — the canonical scenario asks for no
  telemetry, so the observability seam must be provably inert).  The
  wall-clock guards for the same contracts live in
  ``benchmarks/test_bench_engine.py`` and
  ``benchmarks/test_bench_obs.py``; this check pins the mechanism (the
  code is truly never entered), so it cannot rot into "slow but under
  the noise floor".  Wired into ``scripts/check.sh``.

Options: ``--scheduler {heap,calendar}`` profiles a specific scheduler
through ``Scenario(scheduler=...)`` (default: the heap); ``--sort`` picks
the pstats sort key.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

#: Modules that must contribute zero frames to a no-fault run.  Entries
#: ending with a path separator name whole directories (matched anywhere
#: in the frame's path); the rest are file suffixes.
FORBIDDEN_ON_NO_FAULT_PATH = (
    os.path.join("sim", "faults.py"),
    os.path.join("sim", "lifecycle.py"),
    os.path.join("core", "recovery.py"),
    os.path.join("repro", "obs") + os.sep,
)

#: Construction-time frames that are allowed even from forbidden modules:
#: importing a module or defining its classes is not "consulting the
#: fault layer per message".  Nothing in the canonical scenario imports
#: these lazily today, so the allowlist is empty — it exists to make the
#: policy explicit.
ALLOWED_FRAMES: frozenset = frozenset()


def profile_canonical(scheduler):
    """Run the canonical closed-loop scenario under cProfile."""
    from repro.experiments.runner import run
    from repro.experiments.scenario import Scenario
    from repro.workload.params import WorkloadParams

    params = WorkloadParams(
        num_processes=10, num_resources=24, phi=4,
        duration=1_500.0, warmup=200.0, seed=1,
    )
    scenario = Scenario(algorithm="with_loan", params=params, scheduler=scheduler)
    run(scenario)  # warm imports and caches
    profile = cProfile.Profile()
    profile.enable()
    result = run(scenario)
    profile.disable()
    return profile, result


def check_no_fault_frames(profile) -> list:
    """Return forbidden (file, line, func) frames executed by the run."""
    stats = pstats.Stats(profile)
    offenders = []
    for (filename, lineno, funcname) in stats.stats:
        if (filename, funcname) in ALLOWED_FRAMES:
            continue
        for suffix in FORBIDDEN_ON_NO_FAULT_PATH:
            if suffix.endswith(os.sep):
                if suffix in filename:
                    offenders.append((filename, lineno, funcname))
            elif filename.endswith(suffix):
                offenders.append((filename, lineno, funcname))
    return offenders


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scheduler", choices=("heap", "calendar"), default=None,
        help="scheduler to profile (default: heap)",
    )
    parser.add_argument(
        "--sort", default="cumulative",
        help="pstats sort key for the report (default: cumulative)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="assert the no-fault run executes no fault/lifecycle/recovery frames",
    )
    args = parser.parse_args()

    profile, result = profile_canonical(args.scheduler)

    if args.check:
        offenders = check_no_fault_frames(profile)
        if offenders:
            print("no-fault run executed frames from the crash subsystem:", file=sys.stderr)
            for filename, lineno, funcname in sorted(offenders):
                rel = os.path.relpath(filename, REPO)
                print(f"  {rel}:{lineno} {funcname}", file=sys.stderr)
            sys.exit(1)
        print(
            "no-fault fast path clean: 0 frames from "
            + ", ".join(FORBIDDEN_ON_NO_FAULT_PATH)
        )
        return

    print(
        f"canonical closed loop: {result.events_processed} events, "
        f"{result.metrics.completed} completed requests\n"
    )
    stats = pstats.Stats(profile)
    stats.sort_stats(args.sort).print_stats(20)


if __name__ == "__main__":
    main()
