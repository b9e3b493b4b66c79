"""Parallel sweep execution for the experiment grid.

Every figure and ablation of the reproduction is a sweep of *independent*
:func:`repro.experiments.runner.run` calls: each run builds its
own simulator, network and RNG from the seed carried in its
:class:`~repro.workload.params.WorkloadParams`, and shares no state with
any other run.  That makes the sweep embarrassingly parallel, and this
package is the one place that exploits it.

Job hashing
-----------
A sweep is expressed as a list of picklable
:class:`~repro.experiments.scenario.Scenario` values.  Each scenario has a
stable content hash (:meth:`Scenario.key`): the scenario is first
*canonicalised* (dataclasses flattened field by field, dicts sorted by
key, sequences frozen to tuples, enums replaced by their values) and the
SHA-256 of the canonical form is the key.  The hash
therefore depends only on what the run computes — never on object
identity, dict insertion order or the process that computes it — so it is
safe to use as a memoisation key across workers, across sweeps and across
interpreter invocations (:class:`~repro.parallel.cache.RunCache`, whose
optional on-disk level persists results under ``~/.cache/repro``).

Seed handling
-------------
Randomness enters a run exclusively through ``params.seed``; the executor
never draws seeds itself.  Seeds are baked into each scenario *before*
submission (``scenario.sweep(seed=seeds)``), so the result of a job is a
pure function of its scenario and cannot depend on worker scheduling,
completion order or the number of workers.

Why ``workers=1`` is the reference path
---------------------------------------
With ``workers=1`` the executor calls ``run`` directly in the current
process, in submission order — a plain serial loop.  ``workers>1`` fans
the same scenarios out over a ``ProcessPoolExecutor`` and reorders the
results back into submission order; because each job is deterministic in
its scenario, the two paths produce identical :class:`RunMetrics`, and the
test suite asserts it.  When in doubt (debugging, tracing, profiling),
drop back to ``workers=1``.

What crosses the pool, and when entries are written
---------------------------------------------------
A worker returns the *pickle* of its result (``bytes``), not the result:
the record columns LZMA-pack themselves whenever they are pickled, and a
byte string is the one thing the pool can ship and the disk cache can
store without packing them again.  The parent unpickles it once for the
returned list and writes the same bytes as the cache entry, so a result
is encoded exactly once on either path (``workers=1``: by the cache
write; no cache, ``workers=1``: never).  Entries are stored as results
arrive, in submission order, while the remaining jobs are still running:
a sweep that is interrupted or hits a failing job keeps every result it
had received, and the next sweep over the same cache resumes from there.
"""

from repro.parallel.cache import RunCache
from repro.parallel.executor import SweepExecutor, execute_job, run_sweep

__all__ = [
    "RunCache",
    "SweepExecutor",
    "execute_job",
    "run_sweep",
]
