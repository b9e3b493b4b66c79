"""Declarative experiment specifications.

A :class:`Scenario` captures *everything* one experiment run depends on —
the algorithm name, its frozen config spec, the workload parameters, a
declarative :class:`~repro.sim.latency.LatencySpec` and the run
options — as a frozen, picklable, content-hashable value.  The runner's
:func:`~repro.experiments.runner.run` entrypoint turns a scenario into an
:class:`~repro.experiments.runner.ExperimentResult`, and because the
result is a pure function of the scenario, the scenario *is* the cache
key: :meth:`Scenario.key` drives both the in-memory and the on-disk
:class:`~repro.parallel.cache.RunCache` and the ``workers=1`` vs
``workers=N`` determinism guarantee of :mod:`repro.parallel`.

Grids are expressed with :meth:`Scenario.sweep`, which expands named axes
(scenario fields *or* workload-parameter fields) into the cartesian
product of scenarios, in deterministic row-major order::

    base = Scenario(algorithm="with_loan", params=WorkloadParams())
    grid = base.sweep(algorithm=("with_loan", "bouabdallah"),
                      phi=(1, 4, 8), seed=(1, 2, 3))
    results = run_sweep(grid, workers=4)

Content hashing canonicalises the spec first — dataclasses flattened
field by field, dicts sorted by key, sequences frozen to tuples, enums
replaced by their values — so the hash depends only on what the run
computes, never on object identity, dict insertion order or the process
computing it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.experiments.registry import get_algorithm
from repro.sim.detectorspec import DetectorSpec
from repro.sim.faults import FaultSpec, NoFaults
from repro.sim.latency import ConstantLatencySpec, LatencySpec
from repro.workload.params import WorkloadParams
from repro.workload.spec import SyntheticSpec, WorkloadSpec

__all__ = ["Scenario", "canonical", "content_hash"]

#: Workload-parameter field names accepted by :meth:`Scenario.replace` and
#: :meth:`Scenario.sweep` as sweep axes.
_PARAMS_FIELDS = frozenset(f.name for f in dataclasses.fields(WorkloadParams))


def canonical(value: Any) -> Any:
    """Canonical form of ``value`` used for content hashing.

    Dataclasses are flattened field by field, enums reduced to their
    values, and containers frozen to sorted/ordered tuples, so the result
    is independent of object identity and dict insertion order.  Numbers
    equal in value canonicalise equally: ``True``/``1``/``1.0`` all reduce
    to the integer ``1`` (``repr``-based hashing would otherwise give
    ``phi=4`` and ``phi=4.0`` different keys and miss the
    :class:`~repro.parallel.cache.RunCache` on identical runs).
    """
    if isinstance(value, Enum):
        return canonical(value.value)
    if hasattr(value, "__canonical__"):
        # Spec types whose identity is not their fields (e.g. a
        # TraceReplaySpec hashes its trace file's *contents*, not its
        # path) provide their own canonical form; the returned structure
        # is canonicalised recursively like any other value.
        return canonical(value.__canonical__())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Fields listed in the type's ``_CANONICAL_NEUTRAL`` map are
        # omitted while they hold their neutral value: this is how a new
        # scenario axis can be added without changing the key of every
        # scenario written before it existed (the run it names is the
        # exact run the old spelling named).
        neutral = getattr(type(value), "_CANONICAL_NEUTRAL", None) or {}
        return (
            type(value).__name__,
            tuple(
                (f.name, canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
                if f.name not in neutral or getattr(value, f.name) != neutral[f.name]
            ),
        )
    if isinstance(value, dict):
        return tuple(sorted((k, canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((canonical(v) for v in value), key=repr))
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _is_spec(value: Any, kind: type) -> bool:
    return isinstance(value, kind) and dataclasses.is_dataclass(value)


def content_hash(value: Any) -> str:
    """SHA-256 of the canonical form of ``value``."""
    return hashlib.sha256(repr(canonical(value)).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Scenario:
    """One experiment run, expressed as data.

    Attributes
    ----------
    algorithm:
        Name of an algorithm (a row of
        :data:`repro.experiments.registry.TABLE`).
    params:
        Workload parameterisation (N, M, phi, load, duration, seed, ...).
    config:
        Frozen config spec of the algorithm, of its default config's
        type; ``None`` uses that default.
    latency:
        Declarative latency model (:class:`~repro.sim.latency.LatencySpec`);
        ``None`` means constant ``params.gamma``.  The runner binds it to
        the run inside the process running the experiment, so scenarios
        stay picklable and hashable.
    faults:
        Declarative fault-injection model
        (:class:`~repro.sim.faults.FaultSpec`); ``None`` means the
        paper's reliable Section 3.1 links (normalised to
        :class:`~repro.sim.faults.NoFaults`, bound per-run exactly like
        the latency spec).
    detector:
        Declarative crash detector
        (:class:`~repro.sim.detectorspec.DetectorSpec`); ``None`` (the
        default) means crashes go undetected and lost tokens stay lost.
        Only meaningful when ``faults`` produces node outages: scenarios
        whose fault spec declares no crash windows normalise the
        detector away, so they share a cache key with the detector-less
        run they are.
    workload:
        Declarative workload shape
        (:class:`~repro.workload.spec.WorkloadSpec`); ``None`` means the
        paper's Section-5.1 closed loop (normalised to
        :class:`~repro.workload.spec.SyntheticSpec`, built into live
        request streams per run).  Open-loop and trace-replay
        workloads run the client in its open loop: arrivals are timed by
        the stream, not by the previous completion.
    collect_trace:
        Record a :class:`~repro.sim.trace.TraceRecorder` (Gantt rendering).
    size_buckets:
        Request-size classes used to group waiting times (Figure 7).
    max_events:
        Safety valve passed to the simulator (``None`` = derived bound,
        see :func:`repro.experiments.runner.default_max_events`).
    require_all_completed:
        Raise when a live node still waits for a request at the end of
        the run (``termination.waiting`` is non-empty) — a liveness
        failure.  A request that died with its crashed node does not.
    record_chunk_rows:
        When set, the collector seals completed request records into
        packed chunks of about this many rows instead of keeping every
        record live (see :mod:`repro.metrics.collector`), bounding the
        live rows of very long runs.  ``None`` (default) keeps the classic
        all-in-memory columns.
    scheduler:
        Event-queue implementation for the simulation engine
        (:data:`repro.sim.schedulers.SCHEDULERS`: ``"heap"``,
        ``"calendar"``).  ``None`` (default) is the heap.  Results are
        bit-identical across schedulers (the engine's determinism
        contract), so the unset value is hash-neutral.  An explicit
        value *is* hashed — it pins the choice declaratively, and
        distinct keys for the same numbers only cost a duplicate cache
        entry.  Nothing should select ``"calendar"``: it measured
        1.13–1.26x slower than the heap end to end on all four benchmark
        workloads, and the axis survives only because
        ``benchmarks/e2e`` probes it (see docs/scenarios.md).
    telemetry:
        Run-time observability axis
        (:class:`~repro.obs.spec.TelemetrySpec`), the only switch for
        telemetry.  ``None`` (default) is no telemetry at all — and is
        hash-neutral, because a run without telemetry executes zero
        instrumentation frames (pinned by
        ``tests/integration/test_call_contracts.py``) and produces the exact
        result a pre-axis scenario named.  An explicit spec *is* hashed:
        its snapshot rides on ``ExperimentResult.telemetry`` through the
        cache, so the key must know about it.
    """

    algorithm: str
    params: WorkloadParams = field(default_factory=WorkloadParams)
    config: Optional[Any] = None
    latency: Optional[LatencySpec] = None
    faults: Optional[FaultSpec] = None
    detector: Optional[DetectorSpec] = None
    workload: Optional[WorkloadSpec] = None
    collect_trace: bool = False
    size_buckets: Optional[Tuple[int, ...]] = None
    max_events: Optional[int] = None
    require_all_completed: bool = True
    record_chunk_rows: Optional[int] = None
    scheduler: Optional[str] = None
    telemetry: Optional[Any] = None

    #: Axes added after the first release hash neutrally at their neutral
    #: value (see :func:`canonical`): a pre-axis scenario and one
    #: spelling the neutral value explicitly name the same run, so they
    #: must share a cache key.
    _CANONICAL_NEUTRAL = {
        "workload": SyntheticSpec(),
        "record_chunk_rows": None,
        "scheduler": None,
        "telemetry": None,
    }

    def __post_init__(self) -> None:
        default = get_algorithm(self.algorithm).default_config  # KeyError on typos
        if self.config is not None:
            if default is None:
                raise TypeError(
                    f"algorithm {self.algorithm!r} takes no config, got {self.config!r}"
                )
            if not isinstance(self.config, type(default)):
                raise TypeError(
                    f"algorithm {self.algorithm!r} expects a "
                    f"{type(default).__name__} config, got {type(self.config).__name__}"
                )
        # A spec is a frozen dataclass; what bind() returns for one run (a
        # jittered latency or a Bernoulli loss holding its RNG) is not.
        if self.latency is not None and not _is_spec(self.latency, LatencySpec):
            raise TypeError(
                f"latency must be a LatencySpec (got {type(self.latency).__name__}); "
                f"objects bound to one run are not hashable/picklable specs — "
                f"use e.g. ConstantLatencySpec / UniformJitterLatencySpec instead"
            )
        if self.faults is not None and not _is_spec(self.faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultSpec (got {type(self.faults).__name__}); "
                f"objects bound to one run are not hashable/picklable specs — "
                f"use e.g. NoFaults / BernoulliLoss / NodeCrash instead"
            )
        if self.detector is not None and not _is_spec(self.detector, DetectorSpec):
            raise TypeError(
                f"detector must be a DetectorSpec (got {type(self.detector).__name__}) — "
                f"use e.g. HeartbeatDetector instead"
            )
        if self.workload is not None and not isinstance(self.workload, WorkloadSpec):
            raise TypeError(
                f"workload must be a WorkloadSpec (got {type(self.workload).__name__}); "
                f"use e.g. SyntheticSpec / OpenLoopSpec / TraceReplaySpec"
            )
        if self.size_buckets is not None and not isinstance(self.size_buckets, tuple):
            object.__setattr__(self, "size_buckets", tuple(self.size_buckets))
        if self.record_chunk_rows is not None and self.record_chunk_rows < 1:
            raise ValueError("record_chunk_rows must be >= 1 (or None for unchunked)")
        if self.scheduler is not None:
            from repro.sim.schedulers import available_schedulers

            if self.scheduler not in available_schedulers():
                raise ValueError(
                    f"unknown scheduler {self.scheduler!r}; "
                    f"available: {', '.join(available_schedulers())}"
                )
        if self.telemetry is not None:
            # Imported lazily for the same reason the runner defers it:
            # scenarios without telemetry must never touch repro.obs.
            from repro.obs.spec import TelemetrySpec

            if not isinstance(self.telemetry, TelemetrySpec):
                raise TypeError(
                    f"telemetry must be a TelemetrySpec "
                    f"(got {type(self.telemetry).__name__}); live "
                    f"TelemetryRuntime instances are not hashable/picklable "
                    f"specs — use repro.obs.TelemetrySpec instead"
                )

    # ------------------------------------------------------------------ #
    # derived forms
    # ------------------------------------------------------------------ #
    def normalized(self) -> "Scenario":
        """Fill the algorithm table's defaults in, so equal runs hash equally.

        ``config=None`` is resolved to the algorithm's default config,
        ``workload=None`` to
        :class:`~repro.workload.spec.SyntheticSpec` (whose canonical form
        is neutral, so pre-axis scenarios keep their keys),
        ``latency=None`` to :class:`ConstantLatencySpec` and
        ``faults=None`` to :class:`~repro.sim.faults.NoFaults` (for
        network-less algorithms any latency, fault or detector spec is
        dropped instead).  A detector is kept only when the (normalised)
        fault spec actually produces node outages: with nothing to
        detect, the run is exactly the detector-less one and must share
        its key.  Two scenarios that produce the same run therefore
        normalise to the same value — and to the same :meth:`key`.
        """
        algo = get_algorithm(self.algorithm)
        changes: Dict[str, Any] = {}
        if self.config is None and algo.default_config is not None:
            changes["config"] = algo.default_config
        if self.workload is None:
            changes["workload"] = SyntheticSpec()
        if algo.needs_network:
            if self.faults is None:
                changes["faults"] = NoFaults()
            else:
                # Fault specs have their own normal form: ineffective
                # specs (BernoulliLoss(p=0), an all-null composite) give
                # the exact reliable-path run NoFaults does, and a
                # single-child composite gives its child's run — all must
                # share one key.  This also fails fast on specs whose
                # bind() rejects the workload (e.g. a crash naming a
                # node outside it).
                faults = self.faults.normalized(self.params)
                if faults != self.faults:
                    changes["faults"] = faults
            if self.latency is None:
                changes["latency"] = ConstantLatencySpec()
            if self.detector is not None:
                faults = changes.get("faults", self.faults)
                if self.detector.bind(self.params) is None or not faults.crash_windows():
                    changes["detector"] = None
        else:
            if self.latency is not None:
                changes["latency"] = None
            if self.faults is not None:
                changes["faults"] = None
            if self.detector is not None:
                changes["detector"] = None
        return dataclasses.replace(self, **changes) if changes else self

    def key(self) -> str:
        """Stable content hash of the (normalised) scenario.

        This is the memoisation key of :class:`~repro.parallel.cache.RunCache`
        — equal keys guarantee bit-identical results, across processes and
        across interpreter invocations.
        """
        return content_hash(("Scenario", canonical(self.normalized())))

    # ------------------------------------------------------------------ #
    # grid expansion
    # ------------------------------------------------------------------ #
    def replace(self, **changes: Any) -> "Scenario":
        """Return a copy with scenario *or* workload-parameter fields replaced.

        Keys naming a :class:`WorkloadParams` field (``phi``, ``seed``,
        ``load``, ...) are applied to ``params``; everything else must be
        a :class:`Scenario` field.

        Changing ``algorithm`` to a *different* algorithm without also
        supplying ``config`` resets the config to ``None`` (the new
        algorithm's default): the old algorithm's config does
        not, in general, even have the right type — this is what lets a
        configured (or :meth:`normalized`) scenario sweep the algorithm
        axis.
        """
        params_changes = {k: v for k, v in changes.items() if k in _PARAMS_FIELDS}
        scenario_changes = {k: v for k, v in changes.items() if k not in _PARAMS_FIELDS}
        if (
            scenario_changes.get("algorithm", self.algorithm) != self.algorithm
            and "config" not in scenario_changes
        ):
            scenario_changes["config"] = None
        if params_changes:
            scenario_changes["params"] = dataclasses.replace(self.params, **params_changes)
        return dataclasses.replace(self, **scenario_changes)

    def sweep(self, **axes: Iterable[Any]) -> List["Scenario"]:
        """Expand named axes into the cartesian product of scenarios.

        Axes may name scenario fields (``algorithm``, ``config``,
        ``latency``, ...) or workload-parameter fields (``phi``, ``seed``,
        ``load``, ...).  Expansion order is row-major in the order the
        axes are given — ``sweep(algorithm=A, phi=P, seed=S)`` varies
        seeds fastest — so sweep output order is deterministic and
        matches the nested-loop order of the pre-Scenario drivers.

        Sweeping ``algorithm`` resets each changed scenario's ``config``
        to the new algorithm's default unless a ``config`` axis is also
        given (see :meth:`replace`).
        """
        names = list(axes)
        values = [list(axes[name]) for name in names]
        return [
            self.replace(**dict(zip(names, combo)))
            for combo in itertools.product(*values)
        ]

    def describe(self) -> str:
        """One-line human-readable summary."""
        norm = self.normalized()
        parts = [f"{norm.algorithm}: {norm.params.describe()}"]
        if norm.config is not None:
            describe = getattr(norm.config, "describe", None)
            parts.append(describe() if callable(describe) else repr(norm.config))
        if norm.latency is not None and norm.latency != ConstantLatencySpec():
            parts.append(norm.latency.describe())
        if norm.faults is not None and norm.faults != NoFaults():
            parts.append(norm.faults.describe())
        if norm.detector is not None:
            parts.append(norm.detector.describe())
        if norm.workload is not None and norm.workload != SyntheticSpec():
            parts.append(norm.workload.describe())
        if norm.size_buckets is not None:
            parts.append(f"buckets={list(norm.size_buckets)}")
        if norm.record_chunk_rows is not None:
            parts.append(f"chunked={norm.record_chunk_rows}")
        if norm.scheduler is not None:
            parts.append(f"scheduler={norm.scheduler}")
        if norm.telemetry is not None:
            parts.append(norm.telemetry.describe())
        return " ".join(parts)
