"""Sweep executor: serial reference path and process-pool fan-out.

See :mod:`repro.parallel` for the design rationale.  The executor's one
contract is *submission-order determinism*: ``run(jobs)`` returns results
in the order the jobs were submitted, and each result is a pure function
of its spec — so ``workers=1`` and ``workers=N`` are interchangeable.

Jobs are declarative :class:`~repro.experiments.scenario.Scenario` values;
the scenario's content hash :meth:`~repro.experiments.scenario.Scenario.key`
is the memoisation key.

A result is encoded once on its way from the process that computed it to
the disk cache.  A pool worker returns the result's *pickle* (``bytes``,
which the pool ships with a memcpy); the parent unpickles it once for the
returned list and hands the same bytes to
:meth:`RunCache.put <repro.parallel.cache.RunCache.put>` as the entry
file's content.  At ``workers=1`` nothing is shipped and ``put`` makes
the one pickle.  Either way entries are written as results arrive, not
after the sweep: a sweep that dies part-way keeps what it finished.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def _execute_job_shipped(spec: "Scenario") -> bytes:
    """Worker-pool entry point: run the job, return the result's pickle.

    A :class:`~repro.sim.trace.TraceRecorder` is heavy (one event object
    per protocol step) and only meaningful in the process that produced
    it, so it never crosses the pool boundary: ``trace`` is only
    available on in-process (``workers=1``) runs.  The request records
    travel in compact columnar form
    (:class:`~repro.metrics.columns.RecordColumns` LZMA-packs itself on
    pickling); pickling here, rather than leaving it to the pool, is what
    lets the parent reuse the bytes as the cache entry instead of packing
    the records again.
    """
    result = execute_job(spec)
    result.trace = None
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


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

        for i, result, pickled in self._execute(specs, pending):
            results[i] = result
            if self.cache is not None:
                # A cache outlives the process that filled it (the
                # persistent level by design), so the process-local
                # TraceRecorder never enters it: serial and parallel
                # sweeps sharing a cache must serve identical entries.
                result.trace = None
                self.cache.put(keys[i], result, pickled)

        # Fill duplicate-spec slots from the run that covered them.
        if self.cache is not None:
            for i in range(len(specs)):
                if results[i] is None:
                    results[i] = results[unique[keys[i]]]
        return results  # type: ignore[return-value]

    def _execute(
        self, specs: List["Scenario"], pending: List[int]
    ) -> Iterator[Tuple[int, "ExperimentResult", Optional[bytes]]]:
        """Yield ``(index, result, its pickle if a worker made one)`` as jobs finish.

        Submission order on both paths; a job that raises ends the
        iteration with its exception after the jobs before it were
        yielded.
        """
        if self.workers == 1:
            for i in pending:
                yield i, execute_job(specs[i]), None
        elif pending:
            # Imported here: the pool pulls in multiprocessing, socket and
            # logging, which a single-process run never needs.
            from concurrent.futures import ProcessPoolExecutor

            workers = min(self.workers, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                shipped = pool.map(_execute_job_shipped, [specs[i] for i in pending])
                for i, pickled in zip(pending, shipped):
                    yield i, pickle.loads(pickled), pickled


def run_sweep(
    jobs: Sequence["Scenario"],
    workers: int = 1,
    cache: Optional[RunCache] = None,
) -> List["ExperimentResult"]:
    """Convenience wrapper: ``SweepExecutor(workers, cache).run(jobs)``."""
    return SweepExecutor(workers=workers, cache=cache).run(jobs)
