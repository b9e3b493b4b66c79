#!/usr/bin/env bash
# Local mirror of the CI workflow (.github/workflows/ci.yml):
# tier-1 test suite plus a benchmark collection smoke-check.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Docs gates first: they are instant and catch the cheapest regressions
# (a dead relative link in docs//README, a public experiments/, obs/,
# workload/, core/{config,ordering,token}.py or sim/{engine,faults,schedulers}.py
# symbol without a docstring —
# scripts/check_docstrings.py is the container-local stand-in for
# `ruff check --select D1`).
echo "== docs link check =="
python scripts/check_links.py

echo "== docstring gate (experiments/, obs/, workload/, core/{config,ordering,token}.py, sim/{engine,faults,schedulers}.py) =="
python scripts/check_docstrings.py

echo "== tier-1 test suite =="
python -m pytest -x -q

echo "== benchmark collection smoke-check =="
python -m pytest benchmarks -q --collect-only >/dev/null
echo "benchmarks collect OK"

# The payload-size benchmark is cheap (one quick run) and guards the
# columnar transport contract: records payload >= 5x smaller than the
# legacy record-list pickle.  Run it for real, not just collected.
echo "== result-payload benchmark (quick run) =="
python -m pytest benchmarks/test_bench_results.py -q >/dev/null
echo "result payload OK"

# The examples smoke tests (tests/integration/test_examples.py, which
# also run fault_ablation --quick in a subprocess) are part of the tier-1
# suite above; this explicit run is a cheap direct guard so a regression
# in the fault-ablation study is reported by name, not buried in a
# pytest failure list.
echo "== fault-ablation example (--quick) =="
python examples/fault_ablation.py --quick >/dev/null
echo "fault ablation (--quick) OK"

# The crash-recovery ablation self-checks its acceptance bar (for the
# loan algorithm under detected single-node crashes: no live node left
# waiting and goodput >= 0.7 of the crash-free row; zero regenerations on
# an undetected blip) and exits nonzero on a recovery regression.
echo "== crash-recovery example (--quick) =="
python examples/crash_recovery.py --quick >/dev/null
echo "crash recovery (--quick) OK"

# The workload ablation self-checks the burstiness story (bursty/trace
# waits a multiple of rate-matched Poisson; loan advantage larger under
# the contended closed loop than under smooth stable open-loop load)
# and exits nonzero if it regresses.
echo "== trace-ablation example (--quick) =="
python examples/trace_ablation.py --quick >/dev/null
echo "trace ablation (--quick) OK"

# One small telemetry run exported as Prometheus text with its health
# reports (tests/obs/test_export_metrics.py checks the output's format).
echo "== telemetry export (scripts/export_metrics.py --health) =="
prom="$(mktemp)"
python scripts/export_metrics.py --processes 4 --resources 8 --duration 300 \
    --warmup 50 --health -o "$prom" 2>/dev/null
grep -q '^# HEALTH grant_progress ' "$prom"
rm -f "$prom"
echo "telemetry export OK"

# Structural zero-overhead check: a no-fault run must execute no frames
# from the fault layer, the crash lifecycle or the recovery coordinator
# (the wall-clock version of the same contract lives in
# benchmarks/test_bench_engine.py).  Profiled under both schedulers
# (Scenario(scheduler=...)) so neither dispatch loop can quietly
# re-enter the crash subsystem.  The third leg is the same kind of pin
# for a run that has a fault layer (node crash + detector + jitter): the
# fault hooks run only for messages touching the crashable node (< 0.25
# hook calls per message; asking about every message is 2.0) and the
# per-message path has no peek/pop, stats-method, Random.uniform or
# `now` property frame.  All three legs also assert zero Python frames
# defined in core/messages.py (its records are built by C calls).
echo "== no-fault fast-path and armed-path profile checks =="
python scripts/profile_run.py --check
python scripts/profile_run.py --scheduler calendar --check
python scripts/profile_run.py --armed --check

# The repository's benchmark at 1/20 scale (~3 s): runs all four
# workloads through the real harness and applies its output checks —
# equal result digests across repeats, zero failed requests, cache
# hit/miss counts of the cold sweep.  No timing is judged here.
echo "== end-to-end benchmark smoke (benchmarks/e2e, --smoke) =="
python benchmarks/e2e/run.py --smoke >/dev/null
echo "e2e benchmark smoke OK"

# The pairs protocol (git archive both refs, alternate them through the
# unmodified harness, judge by the choosing-metrics rule) on HEAD against
# itself, one smoke pair on each workload a claim has been made on (the
# no-fault closed loop, and the same loop with an armed network): keeps
# scripts/bench_pairs.py from rotting.
echo "== bench_pairs smoke (HEAD vs HEAD, 1 pair, --smoke) =="
python scripts/bench_pairs.py HEAD HEAD --workload closed_loop_paper --pairs 1 --smoke >/dev/null
python scripts/bench_pairs.py HEAD HEAD --workload crash_recovery --pairs 1 --smoke >/dev/null
echo "bench_pairs smoke OK"

# What no run reaches: every function under src/repro that the entry
# points (figure reproduction, the nine examples, the telemetry export,
# the benchmark smoke) never enter must be listed, with its kind and
# reason, in scripts/reach_unreached.txt, and nothing listed may be
# reached (~27 s).
echo "== reach list (scripts/reach.py) =="
python scripts/reach.py

# The observability package is pinned to a >=90% line-coverage floor by
# its dedicated suite (tests/obs).  check_coverage.py measures with a
# stdlib settrace tracer, so the gate runs in the bare container too.
echo "== repro/obs coverage floor (>=90%) =="
python scripts/check_coverage.py

