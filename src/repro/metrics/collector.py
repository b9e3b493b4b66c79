"""Run-time metric collection with built-in safety checking.

The collector is the single observer of every experiment run.  It records
request lifecycles (issue -> grant -> release) directly into a
struct-of-arrays :class:`~repro.metrics.columns.RecordColumns` (double
precision on this live path), verifies on every grant that the *safety*
property holds (no resource is ever used by two processes at the same
simulated time; the check has no off switch) and computes the paper's
metrics over the measurement window ``[warmup, horizon]``:

* resource-use rate (Figure 5),
* average waiting time, overall and per request-size class (Figures 6, 7).

Aggregation (:meth:`MetricsCollector.build`) makes a single pass over the
granted requests' ``(issue, wait, size)`` samples — counts, overall
waiting times and per-size-class groups all come out of one loop, feeding
:func:`~repro.metrics.stats.summarize` packed ``array('d')`` buffers
instead of Python float lists.

**Chunked mode** (``chunk_rows`` set, driven by
``Scenario.record_chunk_rows``): whenever the completed *prefix* of the
live columns reaches the chunk size, it is sealed — its waiting-time /
size samples are folded into compact streaming buffers (24 bytes a
request) and its rows are packed into an lzma chunk (a few bytes a
request), so the live rows stay O(chunk + in-flight) however long the run.
Sealing strictly preserves issue order and the float accumulation order
of every aggregate, so a chunked run's :class:`RunMetrics` is
bit-identical to the unchunked run's; only the result's record container
differs (a :class:`~repro.metrics.columns.ChunkedColumns` in issue order
instead of a ``(process, index)``-sorted ``RecordColumns``).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from operator import sub
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from repro.metrics.columns import ChunkedColumns, RecordColumns, RequestRecord
from repro.metrics.stats import SummaryStats, summarize

__all__ = [
    "MetricsCollector",
    "RequestRecord",
    "RunMetrics",
    "SafetyViolation",
]


class SafetyViolation(AssertionError):
    """Raised when two processes hold the same resource simultaneously."""


def _bucket_for(size: int, buckets: Optional[List[int]]) -> int:
    """Size class of a request: nearest of ``buckets``, or the exact size.

    Figure 7's bucket-assignment rule, e.g. ``[1, 17, 33, 49, 65, 80]``.
    """
    if buckets:
        return min(buckets, key=lambda b: abs(b - size))
    return size


@dataclass(frozen=True)
class RunMetrics:
    """Aggregated results of one experiment run."""

    algorithm: str
    use_rate: float
    waiting: SummaryStats
    waiting_by_size: Dict[int, SummaryStats]
    issued: int
    granted: int
    completed: int
    messages_total: int
    messages_by_type: Dict[str, int]
    messages_per_cs: float
    duration: float
    warmup: float
    num_resources: int
    extra: Dict[str, float] = field(default_factory=dict)


class MetricsCollector:
    """Observer recording every request lifecycle of a run.

    Parameters
    ----------
    num_resources:
        Total number of resources ``M`` (needed for the use-rate denominator).
    warmup:
        Requests *issued* before this time are excluded from waiting-time
        statistics, and resource busy time before this instant is excluded
        from the use-rate numerator.
    chunk_rows:
        When set, seal completed prefixes of about this many rows into
        packed chunks (see the module docstring).  ``None`` (default)
        keeps every record live — the classic exact-bytes path.
    """

    def __init__(
        self,
        num_resources: int,
        warmup: float = 0.0,
        chunk_rows: Optional[int] = None,
    ) -> None:
        if num_resources < 1:
            raise ValueError("num_resources must be >= 1")
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1 (or None for unchunked)")
        self.num_resources = num_resources
        self.warmup = float(warmup)
        #: Live struct-of-arrays record store, in issue order, full doubles.
        #: In chunked mode this holds only the rows not yet sealed; row
        #: numbers in ``_rows`` are local to it.
        self.columns = RecordColumns(time_typecode="d")
        self._rows: Dict[Tuple[int, int], int] = {}
        #: Holder of each resource, indexed by resource id (``None``: free).
        self._holder: List[Optional[Tuple[int, int]]] = [None] * num_resources
        self._busy_since: Dict[int, float] = {}
        self._busy_time: Dict[int, float] = {}
        #: Requests whose critical section was cut short by a node crash.
        self.aborted = 0
        #: Telemetry push seam (:class:`repro.obs.runtime.TelemetryRuntime`):
        #: ``None`` on default runs, where the hook in :meth:`on_grant` is
        #: a single attribute load + ``is None`` branch — no repro.obs
        #: frame ever executes (the zero-overhead contract).
        self.telemetry = None
        # --- chunked mode state -------------------------------------- #
        self._chunk_rows = chunk_rows
        #: Sealed chunks in their packed transport form.
        self._sealed_chunks: List[Tuple] = []
        self._sealed_lengths: List[int] = []
        #: Rows sealed so far (every sealed row completed its lifecycle).
        self._sealed_rows = 0
        # Streaming per-sealed-row aggregates, in issue order, full
        # doubles — exactly the samples ``build`` would have read off the
        # live columns, so chunked metrics are bit-identical.
        self._sealed_waits = array("d")
        self._sealed_issues = array("d")
        self._sealed_sizes = array("q")
        # Length of the completed prefix of the live columns, advanced
        # incrementally on release (amortised O(1) per request).
        self._prefix = 0
        #: High-water mark of live (unsealed) rows — the quantity the
        #: chunked memory contract bounds; tests assert against it.
        self.max_live_rows = 0

    # ------------------------------------------------------------------ #
    # lifecycle callbacks
    # ------------------------------------------------------------------ #
    def on_issue(self, time: float, process: int, index: int, resources: FrozenSet[int]) -> None:
        """A process issued a new request at simulated ``time``."""
        key = (process, index)
        if key in self._rows:
            raise ValueError(f"duplicate request {key}")
        if not resources:
            raise ValueError("request must name at least one resource")
        if min(resources) < 0 or max(resources) >= self.num_resources:
            raise ValueError(
                f"request {key} names a resource outside [0, {self.num_resources})"
            )
        self._rows[key] = self.columns.append(process, index, resources, time)
        if len(self.columns) > self.max_live_rows:
            self.max_live_rows = len(self.columns)

    def on_grant(self, time: float, process: int, index: int) -> None:
        """A process obtained all its resources and enters the CS."""
        key = (process, index)
        row = self._rows.get(key)
        if row is None:
            raise ValueError(f"grant for unknown request {key}")
        cols = self.columns
        if not math.isnan(cols.grant[row]):
            raise ValueError(f"request {key} granted twice")
        cols.grant[row] = time
        ids = cols.resource_ids[cols.offsets[row] : cols.offsets[row + 1]]
        holder_map = self._holder
        if any(map(holder_map.__getitem__, ids)):
            r = next(r for r in ids if holder_map[r] is not None)
            holder = holder_map[r]
            raise SafetyViolation(
                f"resource {r} granted to process {process} at t={time} "
                f"while held by process {holder[0]} (request {holder})"
            )
        busy_since = self._busy_since
        for r in ids:
            holder_map[r] = key
            busy_since[r] = time
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.observe_grant(time, process, time - cols.issue[row])

    def on_release(self, time: float, process: int, index: int) -> None:
        """A process finished its CS and released all resources."""
        key = (process, index)
        row = self._rows.get(key)
        if row is None:
            raise ValueError(f"release for unknown request {key}")
        cols = self.columns
        grant_time = cols.grant[row]
        if math.isnan(grant_time):
            raise ValueError(f"request {key} released before being granted")
        if not math.isnan(cols.release[row]):
            raise ValueError(f"request {key} released twice")
        cols.release[row] = time
        self._free_resources(key, row, time, grant_time)
        if self._chunk_rows is not None:
            release = cols.release
            n = len(cols)
            while self._prefix < n and not math.isnan(release[self._prefix]):
                self._prefix += 1
            if self._prefix >= self._chunk_rows:
                self._seal_prefix()

    def _free_resources(
        self, key: Tuple[int, int], row: int, time: float, grant_time: float
    ) -> None:
        """Release ``key``'s held resources at ``time`` (release or abort).

        Closes each resource's busy interval (clamped to the warmup) and
        clears the holder map, so subsequent grants of the same resources
        pass the online safety check.  Shared by :meth:`on_release` and
        :meth:`on_abort` so busy-time accounting can never diverge
        between the clean and the crashed path.  Every interval ``key``
        holds opened at its grant, so the clamped length is one number
        for the whole request.
        """
        cols = self.columns
        ids = cols.resource_ids[cols.offsets[row] : cols.offsets[row + 1]]
        busy_time = self._busy_time
        holder_map = self._holder
        busy_since = self._busy_since
        begin = grant_time if grant_time > self.warmup else self.warmup
        busy = time > begin
        length = time - begin
        for r in ids:
            if holder_map[r] == key:
                holder_map[r] = None
                del busy_since[r]
                if busy:
                    busy_time[r] = busy_time.get(r, 0.0) + length

    def on_abort(self, time: float, process: int, index: int) -> None:
        """A crash killed the process while it was inside its CS.

        The resources are forcibly freed — their busy intervals close at
        the crash instant, and the safety checker stops regarding them as
        held, so a regenerated token granting one of them to another
        process is not a (false) safety violation.  The request itself
        stays *incomplete*: its ``release`` column remains ``NaN`` and it
        is never counted as completed (the client counts it as abandoned).
        Aborting a request that was never granted is a no-op (nothing was
        held).
        """
        key = (process, index)
        row = self._rows.get(key)
        if row is None:
            raise ValueError(f"abort for unknown request {key}")
        cols = self.columns
        grant_time = cols.grant[row]
        if math.isnan(grant_time):
            return  # never granted: nothing held, nothing to free
        self.aborted += 1
        if not math.isnan(cols.release[row]):
            raise ValueError(f"request {key} aborted after release")
        self._free_resources(key, row, time, grant_time)

    # ------------------------------------------------------------------ #
    # chunk sealing
    # ------------------------------------------------------------------ #
    def _pack_rows(self, end: int) -> Tuple:
        """Pack live rows ``[0, end)`` into the float32 transport form."""
        return self.columns.rows(0, end, "f")._packed()

    def _seal_prefix(self) -> None:
        """Seal the completed prefix of the live columns into a chunk.

        Only *contiguous completed* rows seal (a request still in flight
        — or abandoned ungranted by a crash — holds the prefix), so a
        sealed row can never be touched again and the aggregates
        accumulate in exactly the issue order ``build`` would have used.
        """
        k = self._prefix
        cols = self.columns
        issue = cols.issue[:k]
        self._sealed_issues.extend(issue)
        self._sealed_waits.extend(map(sub, cols.grant[:k], issue))
        self._sealed_sizes.extend(map(sub, cols.offsets[1 : k + 1], cols.offsets[:k]))
        self._sealed_chunks.append(self._pack_rows(k))
        self._sealed_lengths.append(k)
        self.columns = cols.rows(k, len(cols), "d")
        self._rows = {key: row - k for key, row in self._rows.items() if row >= k}
        self._sealed_rows += k
        self._prefix = 0

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> List[RequestRecord]:
        """All *live* request records (views), in (process, index) order.

        In chunked mode sealed rows are no longer addressable here — use
        the result's record container for the full run.
        """
        return [self.columns[self._rows[k]] for k in sorted(self._rows)]

    def incomplete_requests(self) -> List[Tuple[int, int]]:
        """``(process, index)`` of issued-but-never-completed requests, sorted.

        Sealed rows are complete by construction, so the live columns see
        every incomplete request even in chunked mode.  (Waiting or died
        with its node?  Only ``ExperimentResult.termination`` can tell.)
        """
        cols = self.columns
        return sorted(
            (cols.process[row], cols.index[row])
            for row in range(len(cols))
            if math.isnan(cols.release[row])
        )

    def record_for(self, process: int, index: int) -> RequestRecord:
        """Return one specific request record (a view; not written back)."""
        return self.columns[self._rows[(process, index)]]

    def currently_held(self) -> Dict[int, Tuple[int, int]]:
        """Snapshot of resource -> (process, index) currently holding it."""
        return {r: key for r, key in enumerate(self._holder) if key is not None}

    def result_columns(self) -> Union[RecordColumns, ChunkedColumns]:
        """Compact copy of the records for an :class:`ExperimentResult`.

        Unchunked: sorted by ``(process, index)`` with ``float32`` times —
        the canonical transport/cache form (see
        :mod:`repro.metrics.columns` for the precision contract).
        Chunked: a :class:`ChunkedColumns` of the sealed chunks plus the
        remaining live tail, in **issue order** (nothing ever holds all
        rows at once to sort them).  Aggregate metrics are always
        computed from the double-precision aggregates, never from these
        compact copies.
        """
        if self._chunk_rows is None:
            return self.columns.compact(time_typecode="f")
        entries = list(self._sealed_chunks)
        lengths = list(self._sealed_lengths)
        if len(self.columns) or not entries:
            entries.append(self._pack_rows(len(self.columns)))
            lengths.append(len(self.columns))
        return ChunkedColumns(entries, lengths)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def _close_open_intervals(self, horizon: float) -> Dict[int, float]:
        busy = dict(self._busy_time)
        for r, start in self._busy_since.items():
            begin = max(start, self.warmup)
            if horizon > begin:
                busy[r] = busy.get(r, 0.0) + horizon - begin
        return busy

    def use_rate(self, horizon: float) -> float:
        """Resource-use rate (percent) over ``[warmup, horizon]``."""
        window = horizon - self.warmup
        if window <= 0:
            return 0.0
        busy = self._close_open_intervals(horizon)
        total_busy = sum(min(b, window) for b in busy.values())
        return 100.0 * total_busy / (window * self.num_resources)

    def _samples(self) -> Iterator[Tuple[float, float, int]]:
        """``(issue, wait, size)`` of every granted request, in issue order.

        Sealed rows (all completed, hence granted) stream in first from
        their compact buffers, then the granted live rows — the order a
        single loop over unchunked columns produces, which is what keeps
        every aggregate of a chunked run bit-identical.
        """
        yield from zip(self._sealed_issues, self._sealed_waits, self._sealed_sizes)
        cols = self.columns
        offsets = cols.offsets
        for row, (issue, grant) in enumerate(zip(cols.issue, cols.grant)):
            if not math.isnan(grant):
                yield issue, grant - issue, offsets[row + 1] - offsets[row]

    def build(
        self,
        algorithm: str,
        horizon: float,
        messages_total: int = 0,
        messages_by_type: Optional[Dict[str, int]] = None,
        size_buckets: Optional[List[int]] = None,
        extra: Optional[Dict[str, float]] = None,
    ) -> RunMetrics:
        """Assemble the final :class:`RunMetrics` for the run.

        One pass over the samples yields the grant count, the overall
        waiting-time sample and the per-size-class groups; each sample is
        accumulated straight into an ``array('d')`` buffer that
        :func:`summarize` consumes without further copies.
        """
        warmup = self.warmup
        issued = self._sealed_rows + len(self.columns)
        completed = self._sealed_rows + sum(
            1 for release in self.columns.release if not math.isnan(release)
        )
        granted = 0
        waits = array("d")
        by_size_samples: Dict[int, array] = {}
        for issue, wait, size in self._samples():
            granted += 1
            if issue < warmup:
                continue
            waits.append(wait)
            key = _bucket_for(size, size_buckets)
            bucket = by_size_samples.get(key)
            if bucket is None:
                bucket = by_size_samples[key] = array("d")
            bucket.append(wait)
        by_size = {size: summarize(vals) for size, vals in sorted(by_size_samples.items())}
        messages_per_cs = messages_total / completed if completed else 0.0
        return RunMetrics(
            algorithm=algorithm,
            use_rate=self.use_rate(horizon),
            waiting=summarize(waits),
            waiting_by_size=by_size,
            issued=issued,
            granted=granted,
            completed=completed,
            messages_total=messages_total,
            messages_by_type=dict(messages_by_type or {}),
            messages_per_cs=messages_per_cs,
            duration=horizon,
            warmup=warmup,
            num_resources=self.num_resources,
            extra=dict(extra or {}),
        )
