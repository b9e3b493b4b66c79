"""Declarative workload specifications.

A :class:`WorkloadSpec` is the frozen, picklable, content-hashable
description of *how requests arrive*, carried by
:class:`~repro.experiments.scenario.Scenario` as the ``workload`` axis.
Like the latency, fault and detector specs it is its own model: each spec
draws its per-process request streams itself, and :meth:`WorkloadSpec.build`
only binds it to one run's parameters and random streams
(:class:`BoundWorkload`), inside whatever process runs the experiment:

* :class:`SyntheticSpec` — the paper's Section-5.1 closed loop.
  Scenarios built from bare :class:`~repro.workload.params.WorkloadParams`
  normalise to this spec, and its canonical form is neutral, so existing
  cache keys and figure series are unchanged.
* :class:`OpenLoopSpec` — requests arrive at instants drawn from a
  pluggable :class:`~repro.workload.arrivals.ArrivalSpec` (Poisson or
  bursty Markov-modulated), independent of completions.
* :class:`TraceReplaySpec` — replays an SWF job trace
  (:mod:`repro.workload.swf`), parsed once per run into three compact
  columns (20 bytes a job); the SHA-256 of the trace
  file's contents is folded into the scenario key via
  :meth:`TraceReplaySpec.__canonical__`, so the run cache can never serve
  a result computed from a stale or edited trace.

Streams are **generators** of
:class:`~repro.workload.generator.RequestSpec`; nothing ever materialises
a request list, which is what lets a multi-million-request open-loop
run stream through the simulator in O(1) workload memory (a trace
replay keeps its 20 bytes a job, and no job or request objects).
"""

from __future__ import annotations

import hashlib
import math
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar, Dict, Iterator, Optional, Tuple

from repro.sim.rng import RandomStreams
from repro.workload.arrivals import ArrivalSpec, PoissonArrivals
from repro.workload.generator import RequestSpec, cs_means, request_shapes, sample_ids
from repro.workload.swf import read_swf_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from array import array

    from repro.workload.params import WorkloadParams

__all__ = [
    "BoundWorkload",
    "WorkloadSpec",
    "SyntheticSpec",
    "OpenLoopSpec",
    "TraceReplaySpec",
]

_tuple_new = tuple.__new__


class WorkloadSpec(ABC):
    """Frozen description of a workload; :meth:`build` binds it to one run."""

    #: How the :class:`~repro.experiments.driver.Client` times the streams:
    #: ``True`` — the next request waits for the previous completion
    #: (``RequestSpec.think_time`` is the think time after a release);
    #: ``False`` — arrivals are external (``think_time`` is the
    #: inter-arrival gap, and a slow protocol builds a backlog).
    closed_loop: ClassVar[bool] = True

    def build(self, params: "WorkloadParams") -> "BoundWorkload":
        """The workload of one run under ``params``."""
        return BoundWorkload(self, params)

    @abstractmethod
    def stream(self, run: "BoundWorkload", process: int) -> Iterator[RequestSpec]:
        """Lazy request stream of ``process`` in ``run`` (never a materialised list)."""

    def expected_requests(self, run: "BoundWorkload") -> Optional[int]:
        """Approximate total request count across all processes of ``run``.

        Used to derive the event-count safety valve for workloads whose
        volume is not captured by the closed-loop think-time formula;
        ``None`` falls back to
        :func:`repro.experiments.runner.default_max_events`.
        """
        return None

    @abstractmethod
    def describe(self) -> str:
        """Human-readable description used in experiment reports."""


class BoundWorkload:
    """One run's workload: a spec, the run's params and its random streams.

    Every stream of the run draws from the one :class:`RandomStreams`
    seeded by ``params.seed``, so the workload is identical across the
    algorithms being compared.  A trace replay also reads its columns
    from here, parsed once per run on first use.
    """

    def __init__(self, spec: WorkloadSpec, params: "WorkloadParams") -> None:
        self.spec = spec
        self.params = params
        self.closed_loop = spec.closed_loop
        self.streams = RandomStreams(params.seed)

    @cached_property
    def columns(self) -> Tuple["array", "array", "array"]:
        """``(submit_time, run_time, procs)`` of the replayed trace's jobs."""
        return read_swf_columns(self.spec.path, self.spec.max_jobs)

    def stream_for(self, process: int) -> Iterator[RequestSpec]:
        """Lazy request stream of one process."""
        if not 0 <= process < self.params.num_processes:
            raise ValueError(f"process id {process} out of range")
        return self.spec.stream(self, process)

    def expected_requests(self) -> Optional[int]:
        """See :meth:`WorkloadSpec.expected_requests`."""
        return self.spec.expected_requests(self)


@dataclass(frozen=True)
class SyntheticSpec(WorkloadSpec):
    """The paper's Section-5.1 closed-loop workload (the default).

    Carries no fields of its own: everything (N, phi, load, seed, ...)
    comes from the scenario's :class:`WorkloadParams`.  Its canonical
    form is neutral in :meth:`Scenario.key`, so a scenario written before
    the workload axis existed hashes to the same key as one spelling
    ``workload=SyntheticSpec()`` explicitly.
    """

    def stream(self, run: BoundWorkload, process: int) -> Iterator[RequestSpec]:
        """Think, request ``x`` in ``{1..phi}`` resources, hold them, repeat.

        Each request draws its shape (size, pick, cs noise) and then its
        think time.  The first request of a process waits a short
        staggered delay, uniform in ``[0, min(beta, alpha_max)]``, so the
        N processes do not all fire at t=0; later ones think for an
        exponential time with mean ``beta``.
        """
        params = run.params
        streams = run.streams
        shapes = request_shapes(
            params,
            streams.stream("size", process),
            streams.stream("pick", process),
            streams.stream("cs", process),
        )
        think_rng = streams.stream("think", process)
        beta = params.beta
        for index, (resources, cs_duration) in enumerate(shapes):
            if index == 0:
                think = think_rng.uniform(0.0, min(beta, params.alpha_max))
            else:
                think = think_rng.expovariate(1.0 / beta) if beta > 0 else 0.0
            yield _tuple_new(RequestSpec, (process, index, resources, cs_duration, think))

    def describe(self) -> str:
        """Canonical label of the closed-loop workload."""
        return "workload=synthetic"


@dataclass(frozen=True)
class OpenLoopSpec(WorkloadSpec):
    """Open-loop workload: arrivals from a pluggable arrival process.

    Unlike the closed loop, a slow protocol does not throttle its own
    offered load — arrivals keep coming and queue at the client, so
    waiting times reflect the *backlog* a real service would build up.
    ``arrival`` defaults to rate-matched Poisson
    (:class:`~repro.workload.arrivals.PoissonArrivals` at ``1/beta``).

    Request *shapes* (size, resource pick, CS duration) reuse the
    synthetic distribution and draw order of
    :func:`~repro.workload.generator.request_shapes` on dedicated
    RNG streams, so two open-loop specs differing only in their arrival
    process issue identically shaped requests at different instants.
    """

    closed_loop: ClassVar[bool] = False

    arrival: ArrivalSpec = PoissonArrivals()

    def __post_init__(self) -> None:
        if not isinstance(self.arrival, ArrivalSpec):
            raise TypeError(
                f"arrival must be an ArrivalSpec (got {type(self.arrival).__name__}); "
                f"use PoissonArrivals or MarkovModulatedArrivals"
            )

    def build(self, params: "WorkloadParams") -> BoundWorkload:
        """Bind to one run (validates the arrival rate)."""
        self.arrival.mean_rate(params)  # fail fast on underivable rates
        return BoundWorkload(self, params)

    def stream(self, run: BoundWorkload, process: int) -> Iterator[RequestSpec]:
        """Gaps from the arrival spec, synthetic shapes."""
        params = run.params
        streams = run.streams
        shapes = request_shapes(
            params,
            streams.stream("ol-size", process),
            streams.stream("ol-pick", process),
            streams.stream("ol-cs", process),
        )
        gaps = self.arrival.gaps(streams.stream("ol-arrival", process), params)
        for index, (gap, (resources, cs_duration)) in enumerate(zip(gaps, shapes)):
            yield _tuple_new(RequestSpec, (process, index, resources, cs_duration, gap))

    def expected_requests(self, run: BoundWorkload) -> Optional[int]:
        """Mean offered volume: ``N * duration * rate`` (capped by the per-process limit)."""
        params = run.params
        per_process = params.duration * self.arrival.mean_rate(params)
        if params.requests_per_process is not None:
            per_process = min(per_process, params.requests_per_process)
        return max(1, math.ceil(per_process * params.num_processes))

    def describe(self) -> str:
        """Label naming the arrival family."""
        return f"workload=open-loop({self.arrival.describe()})"


#: Cache of trace-file digests keyed by (abspath, mtime_ns, size): key
#: computations are frequent (every sweep expansion hashes each
#: scenario), file reads are not.
_TRACE_HASHES: Dict[Tuple[str, int, int], str] = {}


def _file_sha256(path: str) -> str:
    """SHA-256 of the file's bytes (cached by path + mtime + size)."""
    st = os.stat(path)
    cache_key = (os.path.abspath(path), st.st_mtime_ns, st.st_size)
    digest = _TRACE_HASHES.get(cache_key)
    if digest is None:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digest = _TRACE_HASHES[cache_key] = h.hexdigest()
    return digest


@dataclass(frozen=True)
class TraceReplaySpec(WorkloadSpec):
    """Replay an SWF-format job trace as the workload.

    Jobs are dealt round-robin over the ``N`` processes in trace order:
    process ``p`` reads rows ``[p::N]`` of the run's columns, re-basing
    submit times so the trace starts at t=0.  Job size maps to
    ``min(phi, bit_length(procs))`` — a log2 compression of the requested
    processor count into the paper's request-size range — and the CS
    duration is the job's scaled runtime (falling back to the synthetic
    size-dependent duration when the trace lacks one).

    Parameters
    ----------
    path:
        SWF trace file (see :mod:`repro.workload.swf`).  The *contents*
        of the file — not the path — enter the scenario key, so moving a
        trace keeps its cache entries and editing it invalidates them.
    time_scale:
        Multiplier applied to submit times and runtimes (traces log
        seconds; the simulator thinks in milliseconds of simulated time,
        so small scales compress a long trace into a short run).
    max_jobs:
        Optional cap on the number of jobs replayed.
    """

    closed_loop: ClassVar[bool] = False

    path: str
    time_scale: float = 1.0
    max_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("path must name an SWF trace file")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.max_jobs is not None and self.max_jobs < 1:
            raise ValueError("max_jobs must be >= 1 (or None for the whole trace)")

    def __canonical__(self):
        """Canonical form folding the trace *contents* into the key.

        Two specs pointing at byte-identical traces share a key whatever
        their paths; a modified trace changes the key, so the run cache
        can never serve a result computed from a stale file.  Raises
        ``FileNotFoundError`` at key time when the trace is absent —
        before any worker is spawned.
        """
        return (
            "TraceReplaySpec",
            (
                ("max_jobs", self.max_jobs),
                ("time_scale", self.time_scale),
                ("trace_sha256", _file_sha256(self.path)),
            ),
        )

    def build(self, params: "WorkloadParams") -> BoundWorkload:
        """Bind to one run (checks the file exists; it is parsed on first use)."""
        if not os.path.exists(self.path):
            raise FileNotFoundError(f"SWF trace not found: {self.path}")
        return BoundWorkload(self, params)

    def stream(self, run: BoundWorkload, process: int) -> Iterator[RequestSpec]:
        """This process's round-robin share of the trace."""
        params = run.params
        pick_bits = run.streams.stream("trace-pick", process).getrandbits
        means = cs_means(params)
        scale = self.time_scale
        submit_times, run_times, procs = run.columns
        if not submit_times:
            return
        base = max(submit_times[0], 0.0)
        last_arrival: Optional[float] = None
        rows = range(process, len(submit_times), params.num_processes)
        for index, row in enumerate(rows):
            arrival = max(max(submit_times[row], 0.0) - base, 0.0) * scale
            if last_arrival is None:
                gap = arrival
            else:
                gap = max(arrival - last_arrival, 0.0)
                arrival = max(arrival, last_arrival)
            last_arrival = arrival
            size = min(params.phi, max(1, procs[row].bit_length()))
            resources = sample_ids(pick_bits, params.num_resources, size)
            run_time = run_times[row]
            cs_duration = max(run_time * scale, 1e-6) if run_time > 0 else means[size]
            yield RequestSpec(process, index, resources, cs_duration, gap)

    def expected_requests(self, run: BoundWorkload) -> Optional[int]:
        """Job count of the replayed trace (capped by ``max_jobs``)."""
        count = len(run.columns[0])
        params = run.params
        if params.requests_per_process is not None:
            count = min(count, params.requests_per_process * params.num_processes)
        return max(1, count)

    def describe(self) -> str:
        """Label naming the trace file and scale."""
        extras = f", scale={self.time_scale:g}"
        if self.max_jobs is not None:
            extras += f", max_jobs={self.max_jobs}"
        return f"workload=trace({os.path.basename(self.path)}{extras})"
