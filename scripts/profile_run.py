#!/usr/bin/env python3
"""Profile the canonical closed-loop scenario with cProfile.

``python scripts/profile_run.py [--armed] [--scheduler S] [--sort KEY]``
runs the canonical benchmark scenario (10 processes, 24 resources,
phi 4, duration 1 500) once to warm up, then again under cProfile, and
prints the top-20 functions by the sort key (default: cumulative time).
This is the profile the hot-path work was guided by; keeping the tool
in-tree makes the next optimisation pass start from evidence instead of
guesses.  ``--armed`` profiles the same scenario with a permanent crash
of node 1 at t=300, a heartbeat detector and jittered latency (the
``crash_recovery`` benchmark's configuration in small).

The contracts on what a run may execute are exact call counts, in
``tests/integration/test_call_contracts.py``; this report is for
reading.

A blind spot to know about when reading these profiles: cProfile cannot
count record *constructions*.  ``pstats`` keys a function by ``(file,
line, name)`` and every generated constructor — a dataclass
``__init__``, a namedtuple ``__new__`` — is compiled from a string, so
all of them share one key (``<string>:2 __init__``, ``<string>:1
<lambda>``) and the entry holds whichever code object was profiled
last: seven classes built 263 256 times in one run once read as 4 609
calls.  And ``object.__setattr__``, which a frozen dataclass calls once
per field, is a slot wrapper, not a builtin function: it raises no
``c_call`` event and never appears at all.  ``tuple.__new__`` is a
builtin and does appear, so a layer's call count can *rise* when its
constructors get cheaper.  Count constructions by wrapping the classes,
not by reading ``ncalls``.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))


def profile_canonical(scheduler, armed=False):
    """Run the canonical closed-loop scenario under cProfile: ``(profile, result)``."""
    from repro.experiments.runner import run
    from repro.experiments.scenario import Scenario
    from repro.workload.params import WorkloadParams

    params = WorkloadParams(
        num_processes=10, num_resources=24, phi=4,
        duration=1_500.0, warmup=200.0, seed=1,
    )
    scenario = Scenario(algorithm="with_loan", params=params, scheduler=scheduler)
    if armed:
        from repro.sim.detectorspec import HeartbeatDetector
        from repro.sim.faults import NodeCrash
        from repro.sim.latency import UniformJitterLatencySpec

        scenario = scenario.replace(
            faults=NodeCrash(node=1, at=300.0),
            detector=HeartbeatDetector(interval=10, timeout=30),
            latency=UniformJitterLatencySpec(jitter=0.4),
            require_all_completed=False,
        )
    run(scenario)  # warm imports and caches
    profile = cProfile.Profile()
    profile.enable()
    result = run(scenario)
    profile.disable()
    return profile, result


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
        "--armed", action="store_true",
        help="profile the canonical scenario with a node crash, a detector and "
        "jittered latency",
    )
    args = parser.parse_args()

    profile, result = profile_canonical(args.scheduler, armed=args.armed)
    print(
        f"canonical closed loop{' (armed)' if args.armed else ''}: "
        f"{result.events_processed} events, "
        f"{result.metrics.completed} completed requests\n"
    )
    pstats.Stats(profile).sort_stats(args.sort).print_stats(20)


if __name__ == "__main__":
    main()
