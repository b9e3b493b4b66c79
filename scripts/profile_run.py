#!/usr/bin/env python3
"""Profile the canonical closed-loop scenario with cProfile.

Three uses:

* ``python scripts/profile_run.py`` — run the canonical no-fault
  benchmark scenario under cProfile and print the top-20 functions by
  cumulative time.  This is the profile the PR 9 hot-path work was
  guided by; keeping the tool in-tree makes the next optimisation pass
  start from evidence instead of guesses.
* ``python scripts/profile_run.py --check`` — assert the zero-overhead
  contract structurally: a no-fault run must execute **no frames at
  all** from the fault layer (``sim/faults.py``, where the fault specs and
  their hooks live; its one ``NoFaults.bind`` per run is admitted through
  ``ALLOWED_FRAMES``), the crash lifecycle
  (``sim/lifecycle.py``), the recovery coordinator
  (``core/recovery.py``) or the telemetry package (the whole
  ``repro/obs/`` directory — the canonical scenario asks for no
  telemetry, so the observability seam must be provably inert).  The
  wall-clock guards for the same contracts live in
  ``benchmarks/test_bench_engine.py`` and
  ``benchmarks/test_bench_obs.py``; this check pins the mechanism (the
  code is truly never entered), so it cannot rot into "slow but under
  the noise floor".  Nor may it execute any function defined on the
  crash-recovery subclasses (``RecoverableCoreNode``,
  ``RecoverableIncrementalNode``; :data:`CRASH_ONLY_CLASSES`), which
  only a run with crash windows builds.  The same leg profiles small
  ``bouabdallah`` and ``incremental`` runs too, and asserts for all three
  runs that the shared send path costs one
  frame of ``sim`` per message: no ``Node.send`` frame (a node's
  ``send`` is a ``partial`` over the network's bound send) and no
  ``Simulator.schedule`` or ``Simulator.schedule_at`` called from
  ``sim/network.py`` (the sends queue through the simulator's push
  directly).  It also asserts that a reliable run cancels no timer:
  no ``Simulator.cancel`` frame at all.  Wired into
  ``scripts/check.sh``.
* ``python scripts/profile_run.py --armed --check`` — the same kind of
  structural assertion for a run that *does* have a fault layer: the
  canonical scenario plus a permanent crash of node 1 at t=300, a
  heartbeat detector and jittered latency (the ``crash_recovery``
  benchmark's configuration in small).  An armed network must cost what
  its work costs: the fault hook runs only for messages that touch
  the crashable node (fewer than 0.25 hook calls per message, where
  consulting the hook for every message is 1.0), and the per-message
  path executes no frame of ``MessageStats.record``, ``Random.uniform``
  called by the jittered latency (``sim/latency.py``), a ``now``
  property, or the frames the no-fault leg forbids on the send path.
  (The bounded run loop pops the heap inline; the heap has no
  ``peek``/``pop`` method to call.)
  The exact per-message hook count is pinned by
  ``tests/sim/test_network.py``; this leg checks a whole run.

All three ``--check`` legs also assert that the run executes **zero
Python frames defined in** ``core/messages.py``: a message of the loan
protocol is a tuple-backed record built by one C call, and the envelope
constructors that validate (the only Python functions the module
defines besides ``__eq__``) are not on the protocol's path.  Before the
records were tuple-backed the run executed exactly one ``__post_init__``
frame per message there.  They also assert zero ``request_key`` frames
from ``core/ordering.py``: the sort key of the order ``/`` is an
``operator.attrgetter``, so inserting into a token queue and
``precedes`` run no Python frame per comparison.

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

Options: ``--scheduler {heap,calendar}`` profiles a specific scheduler
through ``Scenario(scheduler=...)`` (default: the heap); ``--armed``
profiles the fault-layer scenario instead of the no-fault one (its
``--check`` is for the heap only); ``--sort`` picks the pstats sort key.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
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

#: Modules that must contribute zero frames to *any* profiled run, armed
#: or not.  ``core/messages.py``: its records are built by C calls, and
#: the validating envelope constructors stay off the protocol's path.
#: (Do not read this the other way round — cProfile's call counts cannot
#: tell how many records a run *built*; see the module docstring.)
FORBIDDEN_ON_EVERY_PATH = (os.path.join("core", "messages.py"),)

#: Construction-time functions allowed to run even from forbidden modules,
#: as ``(module, qualified name)``: binding a run's specs, like importing
#: a module or defining its classes, is not "consulting the fault layer
#: per message".  A no-fault run binds its ``NoFaults()`` once (and gets
#: ``None``, so the network keeps its reliable path).
ALLOWED_FRAMES = (("repro.sim.faults", "NoFaults.bind"),)

#: Classes, as ``(module, name)``, none of whose own functions a no-fault
#: run may execute: the crash-recovery subclasses, which the runner builds
#: only for a scenario with crash windows.
CRASH_ONLY_CLASSES = (
    ("repro.core.recovery", "RecoverableCoreNode"),
    ("repro.baselines.incremental", "RecoverableIncrementalNode"),
)

#: The algorithms the no-fault ``--check`` profiles.
NO_FAULT_ALGORITHMS = ("with_loan", "bouabdallah", "incremental")


#: Ceiling on ``handover`` calls per message of the armed run.
#: Consulting the hook for every message is 1.0.
ARMED_HOOK_CALLS_PER_MESSAGE = 0.25

#: ``(file suffix, function name, caller's file suffix)`` frames no
#: profiled run may execute between a handler and the event queue: each
#: was one Python frame per message before a node's ``send`` became a
#: ``partial`` over the network's bound send and the sends queued through
#: the simulator's push directly.  An empty caller suffix matches any
#: caller (``schedule``/``schedule_at`` are how every other layer queues
#: its timers, so only the network's calls count).
FORBIDDEN_ON_SEND_PATH = (
    (os.path.join("sim", "node.py"), "send", ""),
    (os.path.join("sim", "engine.py"), "schedule", os.path.join("sim", "network.py")),
    (os.path.join("sim", "engine.py"), "schedule_at", os.path.join("sim", "network.py")),
)

#: Frames, as above, no profiled run may execute anywhere: the sort key
#: of the order ``/`` is an ``operator.attrgetter``, so the token queues'
#: ``bisect_left`` inserts and ``precedes`` enter no Python frame per
#: comparison.  A ``def request_key`` was one frame per comparison.
FORBIDDEN_ON_EVERY_RUN = FORBIDDEN_ON_SEND_PATH + (
    (os.path.join("core", "ordering.py"), "request_key", ""),
)

#: Frames, as above, a no-fault run must never execute: no per-request
#: timer is armed or cancelled on reliable links.  A requester-side
#: resend timer once cancelled its timer at every CS entry (one
#: ``cancel`` frame per critical section).
FORBIDDEN_ON_RELIABLE_PATH = FORBIDDEN_ON_EVERY_RUN + (
    (os.path.join("sim", "engine.py"), "cancel", ""),
)

#: Frames, as above, the armed run must never execute: each was one
#: Python frame per message or per event before the armed path was made
#: to cost what its work costs.  ``Random.uniform`` is only forbidden to
#: the latency model (the workload generator draws think times with it,
#: once per request).
FORBIDDEN_ON_ARMED_PATH = (
    (os.path.join("sim", "network.py"), "record", ""),
    (os.path.join("sim", "engine.py"), "now", ""),
    ("random.py", "uniform", os.path.join("sim", "latency.py")),
) + FORBIDDEN_ON_EVERY_RUN


def profile_canonical(scheduler, armed=False, algorithm="with_loan"):
    """Run the canonical closed-loop scenario under cProfile.

    ``armed`` adds a permanent crash of node 1, a heartbeat detector and
    jittered latency: every message on the general send, the run loop
    bounded by ``until``.  ``algorithm`` swaps the protocol.
    """
    from repro.experiments.runner import run
    from repro.experiments.scenario import Scenario
    from repro.workload.params import WorkloadParams

    params = WorkloadParams(
        num_processes=10, num_resources=24, phi=4,
        duration=1_500.0, warmup=200.0, seed=1,
    )
    scenario = Scenario(algorithm=algorithm, params=params, scheduler=scheduler)
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


def _lookup(module: str, qualname: str):
    obj = importlib.import_module(module)
    for name in qualname.split("."):
        obj = getattr(obj, name)
    return obj


def _key(code) -> tuple:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def allowed_frames() -> frozenset:
    """The ``pstats`` keys ``(file, line, func)`` of :data:`ALLOWED_FRAMES`."""
    return frozenset(
        _key(_lookup(module, qualname).__code__) for module, qualname in ALLOWED_FRAMES
    )


def crash_only_frames() -> frozenset:
    """The ``pstats`` keys of every function defined on :data:`CRASH_ONLY_CLASSES`."""
    return frozenset(
        _key(function.__code__)
        for module, name in CRASH_ONLY_CLASSES
        for function in vars(_lookup(module, name)).values()
        if hasattr(function, "__code__")
    )


def forbidden_frames(profile, forbidden) -> list:
    """Return the (file, line, func) frames the run executed in ``forbidden`` modules."""
    stats = pstats.Stats(profile)
    allowed = allowed_frames()
    offenders = []
    for (filename, lineno, funcname) in stats.stats:
        if (filename, lineno, funcname) in allowed:
            continue
        for suffix in forbidden:
            if suffix.endswith(os.sep):
                if suffix in filename:
                    offenders.append((filename, lineno, funcname))
            elif filename.endswith(suffix):
                offenders.append((filename, lineno, funcname))
    return offenders


def forbidden_calls(profile, forbidden) -> list:
    """Printable lines for the ``(file suffix, function, caller suffix)`` frames that ran."""
    problems = []
    for (filename, lineno, funcname), (_cc, _nc, _tt, _ct, callers) in (
        pstats.Stats(profile).stats.items()
    ):
        for suffix, name, caller_suffix in forbidden:
            if funcname != name or not filename.endswith(suffix):
                continue
            ncalls = sum(
                calls[0] for caller, calls in callers.items()
                if caller[0].endswith(caller_suffix)
            )
            if ncalls:
                rel = os.path.relpath(filename, REPO)
                problems.append(f"{rel}:{lineno} {funcname} ran {ncalls} times (budget: 0)")
    return problems


def check_armed_budget(profile, messages: int) -> tuple:
    """Return the armed run's budget violations (printable lines) and hook-call count."""
    stats = pstats.Stats(profile)
    faults_py = os.path.join("sim", "faults.py")
    hook_calls = 0
    for (filename, _lineno, funcname), (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        if filename.endswith(faults_py) and funcname == "handover":
            hook_calls += sum(calls[0] for calls in callers.values())
    problems = forbidden_calls(profile, FORBIDDEN_ON_ARMED_PATH)
    for filename, lineno, funcname in forbidden_frames(profile, FORBIDDEN_ON_EVERY_PATH):
        rel = os.path.relpath(filename, REPO)
        problems.append(f"{rel}:{lineno} {funcname} ran (budget: 0 frames from its module)")
    ceiling = ARMED_HOOK_CALLS_PER_MESSAGE * messages
    if not 0 < hook_calls < ceiling:
        problems.append(
            f"fault hooks ran {hook_calls} times for {messages} messages "
            f"(budget: more than 0, below {ceiling:.0f})"
        )
    return sorted(problems), hook_calls


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
        help="assert the no-fault runs (with_loan, bouabdallah, incremental) execute "
        "no fault/lifecycle/recovery/obs frames, no crash-recovery subclass frame, "
        "no frame defined in core/messages.py and no Node.send, network-called "
        "schedule/schedule_at, request_key or cancel frame",
    )
    parser.add_argument(
        "--armed", action="store_true",
        help="profile the canonical scenario with a node crash, a detector and "
        "jittered latency; with --check, assert the armed per-message budget",
    )
    args = parser.parse_args()
    if args.armed and args.check and args.scheduler == "calendar":
        parser.error("--armed --check budgets the heap's bounded loop; drop --scheduler calendar")

    profile, result = profile_canonical(args.scheduler, armed=args.armed)

    if args.check and args.armed:
        messages = result.metrics.messages_total
        problems, hook_calls = check_armed_budget(profile, messages)
        if problems:
            print("armed run exceeded its per-message budget:", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            sys.exit(1)
        print(
            f"armed path within budget: {hook_calls} fault-hook calls for {messages} "
            f"messages ({hook_calls / messages:.3f} per message, ceiling "
            f"{ARMED_HOOK_CALLS_PER_MESSAGE}); 0 frames of "
            + ", ".join(name for _suffix, name, _caller in FORBIDDEN_ON_ARMED_PATH)
            + "; 0 frames from "
            + ", ".join(FORBIDDEN_ON_EVERY_PATH)
        )
        return

    if args.check:
        forbidden = FORBIDDEN_ON_NO_FAULT_PATH + FORBIDDEN_ON_EVERY_PATH
        crash_only = crash_only_frames()
        problems = []
        for algorithm in NO_FAULT_ALGORITHMS:
            run_profile = (
                profile if algorithm == "with_loan"
                else profile_canonical(args.scheduler, algorithm=algorithm)[0]
            )
            offenders = [
                f"{os.path.relpath(filename, REPO)}:{lineno} {funcname} "
                "(budget: 0 frames from its module)"
                for filename, lineno, funcname in forbidden_frames(run_profile, forbidden)
            ]
            offenders += [
                f"{os.path.relpath(filename, REPO)}:{lineno} {funcname} "
                "(budget: 0 frames of a crash-recovery subclass)"
                for filename, lineno, funcname in pstats.Stats(run_profile).stats
                if (filename, lineno, funcname) in crash_only
            ]
            offenders += forbidden_calls(run_profile, FORBIDDEN_ON_RELIABLE_PATH)
            problems += [f"{algorithm}: {line}" for line in sorted(offenders)]
        if problems:
            print("no-fault runs executed forbidden frames:", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            sys.exit(1)
        print(
            f"no-fault fast path clean ({', '.join(NO_FAULT_ALGORITHMS)}): 0 frames from "
            + ", ".join(forbidden)
            + f", 0 of the {len(crash_only)} functions of "
            + ", ".join(name for _module, name in CRASH_ONLY_CLASSES)
            + " beside the allowed "
            + ", ".join(name for _module, name in ALLOWED_FRAMES)
            + "; 0 frames of "
            + ", ".join(f"{suffix} {name}" + (f" called from {caller}" if caller else "")
                        for suffix, name, caller in FORBIDDEN_ON_RELIABLE_PATH)
        )
        return

    print(
        f"canonical closed loop{' (armed)' if args.armed else ''}: "
        f"{result.events_processed} events, "
        f"{result.metrics.completed} completed requests\n"
    )
    stats = pstats.Stats(profile)
    stats.sort_stats(args.sort).print_stats(20)


if __name__ == "__main__":
    main()
