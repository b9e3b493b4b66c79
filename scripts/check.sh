#!/usr/bin/env bash
# Local mirror of the CI workflow (.github/workflows/ci.yml): docs
# gates, the tier-1 test suite, then the examples, scripts and
# benchmark smoke runs the suite does not cover.
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

# The call-count contracts (a no-fault run enters no fault, lifecycle,
# recovery or obs code; the send path and an armed run cost what their
# work costs) are tier-1 tests: tests/integration/test_call_contracts.py.
# The human-readable cProfile report is run so that it cannot rot.
echo "== profile report smoke (scripts/profile_run.py) =="
python scripts/profile_run.py >/dev/null
echo "profile report OK"

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

# The deterministic cost count (scripts/count_work.py): executed
# bytecodes per layer of one warmed closed_loop_paper run at 1/20 scale,
# counted twice in fresh interpreters (~10 s).  The two counts must be
# equal, or the count cannot aim or predict a performance change.
echo "== bytecode count repeatability (scripts/count_work.py) =="
python scripts/count_work.py --workload closed_loop_paper --scale 0.05 --repeat-check >/dev/null
echo "bytecode count repeatable"

# The same count per function, the five costliest (~5 s): keeps the
# per-function table from rotting.
echo "== per-function bytecode count smoke (scripts/count_work.py --by function) =="
python scripts/count_work.py --workload closed_loop_paper --scale 0.05 --by function --top 5 >/dev/null
echo "per-function count OK"

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

