"""Sweep executor: serial reference path and process-pool fan-out.

See :mod:`repro.parallel` for the design rationale.  The executor's one
contract is *submission-order determinism*: ``run(jobs)`` returns results
in the order the jobs were submitted, and each result is a pure function
of its spec — so ``workers=1`` and ``workers=N`` are interchangeable.

Jobs are declarative :class:`~repro.experiments.scenario.Scenario` values;
the scenario's content hash :meth:`~repro.experiments.scenario.Scenario.key`
is the memoisation key.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.parallel.cache import RunCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentResult
    from repro.experiments.scenario import Scenario


def execute_job(spec: "Scenario") -> "ExperimentResult":
    """Run one scenario to completion (also the worker-process entry point)."""
    # Imported lazily: the experiments package imports the figure drivers,
    # which import this module — a module-level import would be circular.
    from repro.experiments.runner import run

    return run(spec)


def _execute_job_shipped(spec: "Scenario") -> "ExperimentResult":
    """Worker-pool entry point: run the job, strip process-local state.

    A :class:`~repro.sim.trace.TraceRecorder` is heavy (one event object
    per protocol step) and only meaningful in the process that produced
    it, so it never crosses the pool boundary: ``trace`` is only
    available on in-process (``workers=1``) runs.  The request records
    themselves already travel in compact columnar form
    (:class:`~repro.metrics.columns.RecordColumns` packs itself on
    pickling).
    """
    result = execute_job(spec)
    result.trace = None
    return result


class SweepExecutor:
    """Fan a list of scenarios over ``workers`` processes.

    Parameters
    ----------
    workers:
        ``1`` (default) runs every job in the current process, in
        submission order — the bit-for-bit reference path.  ``N > 1``
        uses a ``ProcessPoolExecutor`` with at most ``N`` workers.
    cache:
        Optional :class:`~repro.parallel.cache.RunCache`; completed runs
        are memoised by scenario key, and duplicate specs within one
        submission are simulated only once.
    """

    def __init__(self, workers: int = 1, cache: Optional[RunCache] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.cache = cache

    def run(self, jobs: Iterable["Scenario"]) -> List["ExperimentResult"]:
        """Execute ``jobs`` and return their results in submission order."""
        specs = list(jobs)
        results: List[Optional["ExperimentResult"]] = [None] * len(specs)

        # With a cache, resolve hits and collapse duplicate specs
        # (``unique`` keeps the first index of each distinct job).
        # Without one, every job runs — the exact pre-executor behaviour.
        pending: List[int] = []
        unique: dict[str, int] = {}
        keys: List[Optional[str]] = [None] * len(specs)
        for i, spec in enumerate(specs):
            if self.cache is None:
                pending.append(i)
                continue
            key = spec.key()
            keys[i] = key
            hit = self.cache.get(key)
            if hit is not None:
                results[i] = hit
                continue
            if key in unique:
                continue
            unique[key] = i
            pending.append(i)

        if pending:
            if self.workers == 1:
                for i in pending:
                    results[i] = execute_job(specs[i])
            else:
                workers = min(self.workers, len(pending))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for i, result in zip(
                        pending, pool.map(_execute_job_shipped, [specs[i] for i in pending])
                    ):
                        results[i] = result
            if self.cache is not None:
                for i in pending:
                    # A cache outlives the process that filled it (the
                    # persistent level by design), so the process-local
                    # TraceRecorder never enters it: serial and parallel
                    # sweeps sharing a cache must serve identical entries.
                    results[i].trace = None
                    self.cache.put(keys[i], results[i])

        # Fill duplicate-spec slots from the run that covered them.
        if self.cache is not None:
            for i in range(len(specs)):
                if results[i] is None:
                    results[i] = results[unique[keys[i]]]
        return results  # type: ignore[return-value]


def run_sweep(
    jobs: Sequence["Scenario"],
    workers: int = 1,
    cache: Optional[RunCache] = None,
) -> List["ExperimentResult"]:
    """Convenience wrapper: ``SweepExecutor(workers, cache).run(jobs)``."""
    return SweepExecutor(workers=workers, cache=cache).run(jobs)
