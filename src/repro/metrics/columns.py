"""Struct-of-arrays storage for request lifecycle records.

Per-request lifecycles travel from the collector to results, worker
pools and the run cache as a :class:`RecordColumns`: one column per field
instead of one object per request.

* ``process`` / ``index`` — ``array('q')`` request identity columns,
* ``issue`` / ``grant`` / ``release`` — time columns (``array('d')`` on
  the live collection path, ``array('f')`` in results; ``NaN`` marks a
  lifecycle stage never reached),
* ``resource_ids`` / ``offsets`` — the resource sets in CSR form: row
  ``i`` requested ``resource_ids[offsets[i]:offsets[i+1]]`` (ids kept in
  the order the request iterable supplied them — deterministic for a
  seeded workload, and order-preserving for float accumulations).

The container is **cheap to transport**: pickling goes through
:meth:`__reduce__`, which packs the integer columns into the smallest
machine type that fits, byte-shuffles the time columns (grouping the
high-order bytes that barely vary) and compresses the lot with lzma —
about an order of magnitude smaller than pickling the equivalent record
list (``tests/metrics/test_columns.py`` holds the quick run to >= 5x).  It
is **content-hashable** via :meth:`content_key`, and reads as a
**sequence of records**: indexing, slicing and iteration materialise
:class:`RequestRecord` views on demand.

Precision contract: result columns store times as ``float32``.  At the
simulated-millisecond scale of the paper's workloads that is sub-
microsecond resolution — three orders of magnitude below the 0.6 ms
network latency the model simulates — and it is applied *after* the
collector computes all aggregate metrics over full doubles, so figure
series are unaffected.  Callers needing exact doubles on the record
level should read ``MetricsCollector.columns`` in-process.
"""

from __future__ import annotations

import bisect
import hashlib
import lzma
import math
from array import array
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = ["ChunkedColumns", "DowntimeColumns", "RecordColumns", "RequestRecord"]

#: Version tag of the packed (pickled) layout; unpacking rejects unknown
#: versions loudly instead of misreading bytes.
PACK_VERSION = 1

#: LZMA filter chain of the packed form — what the *decoder* is given.
#: Preset 6 (bt4 match finder, ``nice_len`` 64) packs shuffled float
#: planes measurably smaller than zlib, and ``FORMAT_RAW`` drops the xz
#: container overhead — the pack version field plays that role.  The
#: encoder uses the same chain with the dictionary fitted to its input
#: (:func:`_encoder_filters`); an LZMA2 decoder accepts any stream
#: written with a dictionary no larger than its own, so this one reads
#: both.  Packing is not free: 1.0 ms for a 10 kB chunk back to back
#: (1.6 ms inside a run) and 12 ms for the 106 kB result of a 12 s
#: closed-loop run at N=32.
_LZMA_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 6}]

#: Dictionary of preset 6, the encoder's cap: a payload above it packs
#: exactly as the bare preset would.
_DICT_CAP = 8 << 20

#: Smallest dictionary the encoder asks for.  Measured on the payloads
#: the four ``benchmarks/e2e`` workloads produce (294 over seeds 1-3,
#: 2.5-107 kB), floors interleaved, best of 15-25: from 4 KiB to 256 KiB
#: the cost does not change (56 chunks of 10 kB: 53-56 ms; 40
#: figure-sweep results: 75-88 ms), 1 MiB is slower (68 ms; 92 ms) and
#: the preset's 8 MiB more than twice as slow on the chunks (122-135 ms;
#: 136-137 ms).  At 256 KiB the bytes equal the bare preset's on all 294
#: payloads (293 below that — the match finder's hash collisions depend
#: on the table size), which keeps payload-size baselines stable.
_DICT_FLOOR = 256 << 10


def _encoder_filters(nbytes: int) -> List[dict]:
    """Preset-6 chain with ``dict_size`` fitted to an ``nbytes`` payload.

    The smallest power of two holding the payload, between
    :data:`_DICT_FLOOR` and :data:`_DICT_CAP`.  Do not simplify this back
    to the bare preset: liblzma sizes its match-finder tables from
    ``dict_size`` — for 8 MiB a 16 MiB hash table allocated and zeroed
    plus a 64 MiB son table reserved — **per encoder**, and every call
    builds a new encoder.  Measured per 10 kB chunk of the
    ``open_loop_bl`` benchmark run (56 of them): 5.3 ms with the bare
    preset against 1.6 ms fitted inside the run, where every call gets
    fresh pages; 2.2 ms against 1.0 ms back to back on warm memory; and
    17 MiB of the process's peak RSS (51.9 to 34.9 MiB).  A dictionary
    larger than the input finds no extra matches, so the output does not
    grow.
    """
    dict_size = min(max(1 << (nbytes - 1).bit_length(), _DICT_FLOOR), _DICT_CAP)
    return [{"id": lzma.FILTER_LZMA2, "preset": 6, "dict_size": dict_size}]


#: Sentinel typecode marking an elided index column (see ``_packed``).
_ELIDED = "-"

_NAN = float("nan")

#: Unsigned machine types tried (smallest first) when packing an integer
#: column for transport.
_UNSIGNED_TYPECODES = ("B", "H", "I", "Q")


@dataclass
class RequestRecord:
    """Lifecycle of a single critical-section request.

    Results hand these out as *views* materialised from
    :class:`RecordColumns`; mutating a view does not write back.
    """

    process: int
    index: int
    resources: FrozenSet[int]
    issue_time: float
    grant_time: Optional[float] = None
    release_time: Optional[float] = None

    @property
    def size(self) -> int:
        """Number of requested resources."""
        return len(self.resources)

    @property
    def waiting_time(self) -> Optional[float]:
        """Time spent waiting for the CS, or ``None`` if never granted."""
        if self.grant_time is None:
            return None
        return self.grant_time - self.issue_time

    @property
    def completed(self) -> bool:
        """Whether the request went through its full lifecycle."""
        return self.release_time is not None


def _fit_typecode(column: array) -> str:
    """Smallest array typecode able to hold every value of ``column``."""
    if not len(column):
        return "B"
    lo, hi = min(column), max(column)
    if lo >= 0:
        for typecode in _UNSIGNED_TYPECODES:
            if hi <= 2 ** (8 * array(typecode).itemsize) - 1:
                return typecode
    return "q"  # negative or enormous values: signed 64-bit always fits


def _shuffle(data: bytes, itemsize: int) -> bytes:
    """Blosc-style byte transpose: group byte 0 of every item, then byte 1, ...

    Time columns share their high-order (sign/exponent) bytes across
    items; grouping them turns near-constant byte runs into long matches
    for the LZMA match finder.  :func:`_unshuffle` is the exact inverse.
    """
    if itemsize <= 1 or len(data) <= itemsize:
        return data
    n = len(data) // itemsize
    out = bytearray(len(data))
    for byte in range(itemsize):
        out[byte * n : (byte + 1) * n] = data[byte::itemsize]
    return bytes(out)


def _unshuffle(data: bytes, itemsize: int) -> bytes:
    if itemsize <= 1 or len(data) <= itemsize:
        return data
    n = len(data) // itemsize
    out = bytearray(len(data))
    for byte in range(itemsize):
        out[byte::itemsize] = data[byte * n : (byte + 1) * n]
    return bytes(out)


class RecordColumns:
    """Struct-of-arrays container of request lifecycle records.

    Parameters
    ----------
    time_typecode:
        ``array`` typecode of the three time columns: ``'d'`` (exact
        doubles — what :class:`~repro.metrics.collector.MetricsCollector`
        uses on the live path) or ``'f'`` (the compact result/transport
        form; see the module docstring for the precision contract).
    """

    __slots__ = ("process", "index", "issue", "grant", "release", "resource_ids", "offsets")

    def __init__(self, time_typecode: str = "f") -> None:
        if time_typecode not in ("f", "d"):
            raise ValueError(f"time_typecode must be 'f' or 'd', got {time_typecode!r}")
        self.process = array("q")
        self.index = array("q")
        self.issue = array(time_typecode)
        self.grant = array(time_typecode)
        self.release = array(time_typecode)
        self.resource_ids = array("q")
        self.offsets = array("q", [0])

    # ------------------------------------------------------------------ #
    # construction / mutation
    # ------------------------------------------------------------------ #
    @property
    def time_typecode(self) -> str:
        """Typecode of the time columns (``'f'`` or ``'d'``)."""
        return self.issue.typecode

    def append(self, process: int, index: int, resources: Iterable[int], issue_time: float) -> int:
        """Append one freshly issued request; returns its row number.

        ``grant``/``release`` start as ``NaN`` (never reached); resource
        ids are stored in the iteration order of ``resources`` — for the
        collector that is the workload's frozenset order, which fixes the
        order of downstream float accumulations (busy-time sums).
        """
        row = len(self.process)
        self.process.append(process)
        self.index.append(index)
        self.issue.append(issue_time)
        self.grant.append(_NAN)
        self.release.append(_NAN)
        self.resource_ids.extend(resources)
        self.offsets.append(len(self.resource_ids))
        return row

    def extend(self, source: "RecordColumns", start: int = 0, stop: Optional[int] = None) -> None:
        """Append rows ``[start, stop)`` of ``source`` (default: all of it).

        The one contiguous-range copy: whole array slices, times
        converted to this container's typecode, CSR offsets rebased.
        """
        stop = len(source) if stop is None else stop
        self.process.extend(source.process[start:stop])
        self.index.extend(source.index[start:stop])
        typecode = self.time_typecode
        for name in ("issue", "grant", "release"):
            column = getattr(source, name)[start:stop]
            if column.typecode != typecode:
                column = array(typecode, column)
            getattr(self, name).extend(column)
        lo, hi = source.offsets[start], source.offsets[stop]
        shift = len(self.resource_ids) - lo
        self.resource_ids.extend(source.resource_ids[lo:hi])
        self.offsets.extend(offset + shift for offset in source.offsets[start + 1 : stop + 1])

    def rows(self, start: int, stop: int, time_typecode: str) -> "RecordColumns":
        """Copy of rows ``[start, stop)`` with times in ``time_typecode``."""
        out = RecordColumns(time_typecode=time_typecode)
        out.extend(self, start, stop)
        return out

    @classmethod
    def from_records(
        cls, records: Iterable["RequestRecord"], time_typecode: str = "f"
    ) -> "RecordColumns":
        """Build columns from an iterable of :class:`RequestRecord`."""
        cols = cls(time_typecode=time_typecode)
        for rec in records:
            row = cols.append(rec.process, rec.index, rec.resources, rec.issue_time)
            if rec.grant_time is not None:
                cols.grant[row] = rec.grant_time
            if rec.release_time is not None:
                cols.release[row] = rec.release_time
        return cols

    # ------------------------------------------------------------------ #
    # row access (record views)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.process)

    def resources_of(self, row: int) -> FrozenSet[int]:
        """Resource set of row ``row`` as a frozenset."""
        return frozenset(self.resource_ids[self.offsets[row] : self.offsets[row + 1]])

    def grant_time(self, row: int) -> Optional[float]:
        """Grant time of row ``row``, or ``None`` if never granted."""
        value = self.grant[row]
        return None if math.isnan(value) else value

    def release_time(self, row: int) -> Optional[float]:
        """Release time of row ``row``, or ``None`` if never released."""
        value = self.release[row]
        return None if math.isnan(value) else value

    def record(self, row: int) -> "RequestRecord":
        """Materialise one row as a :class:`RequestRecord` view."""
        return RequestRecord(
            process=self.process[row],
            index=self.index[row],
            resources=self.resources_of(row),
            issue_time=self.issue[row],
            grant_time=self.grant_time(row),
            release_time=self.release_time(row),
        )

    def __getitem__(
        self, item: Union[int, slice]
    ) -> Union["RequestRecord", List["RequestRecord"]]:
        if isinstance(item, slice):
            return [self.record(row) for row in range(*item.indices(len(self)))]
        row = item if item >= 0 else len(self) + item
        if not 0 <= row < len(self):
            raise IndexError(f"row {item} out of range for {len(self)} records")
        return self.record(row)

    def __iter__(self) -> Iterator["RequestRecord"]:
        for row in range(len(self)):
            yield self.record(row)

    # ------------------------------------------------------------------ #
    # transformation
    # ------------------------------------------------------------------ #
    def compact(self, time_typecode: str = "f") -> "RecordColumns":
        """Copy sorted by ``(process, index)`` with times in ``time_typecode``.

        This is the canonical result form: the runner compacts the
        collector's live double-precision columns exactly once, so the
        serial path, the worker path and every cache level all hold the
        same bytes.
        """
        order = sorted(range(len(self)), key=lambda i: (self.process[i], self.index[i]))
        out = RecordColumns(time_typecode=time_typecode)
        for i in order:
            out.process.append(self.process[i])
            out.index.append(self.index[i])
            out.issue.append(self.issue[i])
            out.grant.append(self.grant[i])
            out.release.append(self.release[i])
            for k in range(self.offsets[i], self.offsets[i + 1]):
                out.resource_ids.append(self.resource_ids[k])
            out.offsets.append(len(out.resource_ids))
        return out

    # ------------------------------------------------------------------ #
    # equality / content hashing
    # ------------------------------------------------------------------ #
    def _canonical_bytes(self) -> bytes:
        """Typecode-independent byte rendering used by eq/hash.

        Integer columns always live in ``'q'`` arrays in memory, so their
        raw bytes are canonical; time columns carry their typecode (an
        ``'f'`` and a ``'d'`` column are different content even when the
        values coincide — they round-trip differently).
        """
        head = f"{PACK_VERSION}:{self.time_typecode}:{len(self)}:{len(self.resource_ids)}:"
        return b"".join(
            (
                head.encode("ascii"),
                self.process.tobytes(),
                self.index.tobytes(),
                self.issue.tobytes(),
                self.grant.tobytes(),
                self.release.tobytes(),
                self.resource_ids.tobytes(),
                self.offsets.tobytes(),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordColumns):
            return NotImplemented
        return self._canonical_bytes() == other._canonical_bytes()

    __hash__ = None  # mutable while collecting; hash content via content_key()

    def content_key(self) -> str:
        """Hex digest of the full content (order, ids, times, typecode)."""
        return hashlib.sha256(self._canonical_bytes()).hexdigest()

    def __repr__(self) -> str:
        return (
            f"RecordColumns(n={len(self)}, time_typecode={self.time_typecode!r}, "
            f"resource_ids={len(self.resource_ids)})"
        )

    # ------------------------------------------------------------------ #
    # compact pickling
    # ------------------------------------------------------------------ #
    def __reduce__(self) -> Tuple:
        return (_rebuild_columns, self._packed())

    def _packed(self) -> Tuple:
        """Pack into (version, counts, typecodes, lzma blob).

        Times are byte-shuffled (see :func:`_shuffle`); integer columns
        are narrowed to the smallest machine type that fits their range,
        and the CSR ``offsets`` travel as per-row *sizes* (byte-sized for
        realistic requests, and far more compressible than a monotone
        offset ramp — offsets are rebuilt cumulatively on unpack).  NaN
        time sentinels survive byte-exactly: the shuffle/compress
        pipeline is lossless on the stored representation.
        """
        parts: List[bytes] = []
        for column in (self.issue, self.grant, self.release):
            parts.append(_shuffle(column.tobytes(), column.itemsize))
        sizes = array(
            "q", (self.offsets[i + 1] - self.offsets[i] for i in range(len(self)))
        )
        columns = [self.process, self.index, sizes, self.resource_ids]
        if self._index_is_canonical():
            columns[1] = None  # closed-loop indexes: rebuilt from `process`
        int_typecodes = []
        for column in columns:
            if column is None:
                int_typecodes.append(_ELIDED)
                continue
            typecode = _fit_typecode(column)
            narrowed = column if typecode == column.typecode else array(typecode, column)
            int_typecodes.append(typecode)
            parts.append(narrowed.tobytes())
        raw = b"".join(parts)
        blob = lzma.compress(raw, format=lzma.FORMAT_RAW, filters=_encoder_filters(len(raw)))
        return (
            PACK_VERSION,
            len(self),
            len(self.resource_ids),
            self.time_typecode,
            "".join(int_typecodes),
            blob,
        )

    def _index_is_canonical(self) -> bool:
        """Whether ``index`` is the closed-loop form: 0, 1, 2, ... per process.

        True for every run the workload generator drives (each process
        numbers its requests consecutively from zero), in which case the
        column carries no information beyond ``process`` and is elided
        from the packed payload.
        """
        counters: dict = {}
        for process, index in zip(self.process, self.index):
            if index != counters.get(process, 0):
                return False
            counters[process] = index + 1
        return True


def _rebuild_columns(
    version: int,
    n: int,
    num_ids: int,
    time_typecode: str,
    int_typecodes: str,
    blob: bytes,
) -> RecordColumns:
    """Inverse of :meth:`RecordColumns._packed` (the pickle constructor)."""
    if version != PACK_VERSION:
        raise ValueError(f"unsupported RecordColumns pack version {version}")
    raw = lzma.decompress(blob, format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS)
    cols = RecordColumns(time_typecode=time_typecode)
    pos = 0

    def take(nbytes: int) -> bytes:
        nonlocal pos
        chunk = raw[pos : pos + nbytes]
        pos += nbytes
        return chunk

    def take_ints(typecode: str, length: int) -> array:
        packed = array(typecode)
        packed.frombytes(take(length * packed.itemsize))
        return packed if typecode == "q" else array("q", packed)

    time_itemsize = array(time_typecode).itemsize
    for name in ("issue", "grant", "release"):
        column = array(time_typecode)
        column.frombytes(_unshuffle(take(n * time_itemsize), time_itemsize))
        setattr(cols, name, column)
    cols.process = take_ints(int_typecodes[0], n)
    if int_typecodes[1] == _ELIDED:
        counters: dict = {}
        index = array("q")
        for process in cols.process:
            index.append(counters.get(process, 0))
            counters[process] = index[-1] + 1
        cols.index = index
    else:
        cols.index = take_ints(int_typecodes[1], n)
    sizes = take_ints(int_typecodes[2], n)
    cols.resource_ids = take_ints(int_typecodes[3], num_ids)
    offsets = array("q", [0])
    total = 0
    for size in sizes:
        total += size
        offsets.append(total)
    cols.offsets = offsets
    if pos != len(raw) or total != num_ids:
        raise ValueError("corrupt RecordColumns payload")
    return cols


class ChunkedColumns:
    """Chunked record store: a sequence of packed :class:`RecordColumns`.

    Produced by :class:`~repro.metrics.collector.MetricsCollector` when a
    scenario sets ``record_chunk_rows``: completed prefixes of the live
    columns are sealed into lzma-packed chunks (the exact
    :meth:`RecordColumns._packed` transport form — a few bytes per row),
    so a 10^6+-request run's live record rows are bounded by the chunk
    size plus whatever is still in flight.

    The read surface is the same as :class:`RecordColumns` — ``len``,
    iteration, integer/slice indexing, :meth:`content_key` — but rows are
    kept in **issue order** (chunks seal in completion-prefix order;
    nothing ever holds all rows to sort them), unlike the compact
    ``(process, index)``-sorted unchunked result.  Random access unpacks
    the covering chunk, so iterate rather than index in hot loops.
    """

    __slots__ = ("_entries", "_lengths", "_starts", "_cache")

    def __init__(self, entries: List[Tuple], lengths: List[int]) -> None:
        if len(entries) != len(lengths):
            raise ValueError("entries and lengths must be parallel")
        self._entries = list(entries)
        self._lengths = list(lengths)
        starts = [0]
        for n in self._lengths:
            starts.append(starts[-1] + n)
        self._starts = starts
        self._cache: Tuple[int, Optional[RecordColumns]] = (-1, None)

    # ------------------------------------------------------------------ #
    # chunk access
    # ------------------------------------------------------------------ #
    @property
    def chunk_count(self) -> int:
        """Number of sealed chunks (including the final live-tail chunk)."""
        return len(self._entries)

    def chunk_lengths(self) -> Tuple[int, ...]:
        """Row count of each chunk, in order."""
        return tuple(self._lengths)

    def chunk(self, i: int) -> RecordColumns:
        """Unpack chunk ``i`` into a :class:`RecordColumns` (cached once)."""
        if not 0 <= i < len(self._entries):
            raise IndexError(f"chunk {i} out of range for {len(self._entries)} chunks")
        cached_i, cached = self._cache
        if cached_i == i and cached is not None:
            return cached
        cols = _rebuild_columns(*self._entries[i])
        self._cache = (i, cols)
        return cols

    # ------------------------------------------------------------------ #
    # record read surface
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(
        self, item: Union[int, slice]
    ) -> Union["RequestRecord", List["RequestRecord"]]:
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        row = item if item >= 0 else len(self) + item
        if not 0 <= row < len(self):
            raise IndexError(f"row {item} out of range for {len(self)} records")
        i = bisect.bisect_right(self._starts, row) - 1
        return self.chunk(i)[row - self._starts[i]]

    def __iter__(self) -> Iterator["RequestRecord"]:
        for i in range(len(self._entries)):
            yield from self.chunk(i)

    def to_columns(self, time_typecode: Optional[str] = None) -> RecordColumns:
        """Concatenate every chunk into one flat :class:`RecordColumns`.

        Materialises all rows (issue order preserved) — a convenience for
        tests and small post-processing, not for the streaming path.
        """
        first = self.chunk(0) if self._entries else RecordColumns()
        out = RecordColumns(time_typecode=time_typecode or first.time_typecode)
        for i in range(len(self._entries)):
            out.extend(self.chunk(i))
        return out

    # ------------------------------------------------------------------ #
    # equality / content hashing / pickling
    # ------------------------------------------------------------------ #
    def content_key(self) -> str:
        """Hex digest over the chunks' canonical bytes.

        Chunk boundaries are part of the content (two layouts of the same
        rows hash differently); compare :meth:`to_columns` results to
        check row-level equality across layouts.
        """
        h = hashlib.sha256()
        h.update(f"chunked:{len(self._entries)}:".encode("ascii"))
        for i in range(len(self._entries)):
            h.update(self.chunk(i)._canonical_bytes())
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChunkedColumns):
            return NotImplemented
        if self._lengths != other._lengths:
            return False
        return all(self.chunk(i) == other.chunk(i) for i in range(len(self._entries)))

    __hash__ = None  # content-hash via content_key(), like RecordColumns

    def __reduce__(self) -> Tuple:
        return (
            _rebuild_chunked,
            (PACK_VERSION, tuple(self._lengths), tuple(self._entries)),
        )

    def __repr__(self) -> str:
        return f"ChunkedColumns(n={len(self)}, chunks={len(self._entries)})"


def _rebuild_chunked(version: int, lengths: Tuple[int, ...], packed: Tuple) -> ChunkedColumns:
    """Pickle constructor for :class:`ChunkedColumns`."""
    if version != PACK_VERSION:
        raise ValueError(f"unsupported ChunkedColumns pack version {version}")
    return ChunkedColumns(list(packed), list(lengths))


class DowntimeColumns:
    """Struct-of-arrays per-node downtime accounting of one run.

    One row per node that actually went down during the run:

    * ``nodes`` — ``array('q')`` node ids, strictly increasing,
    * ``downtime`` — ``array('d')`` total simulated time the node spent
      crashed (open windows are closed at the run's end time),
    * ``crashes`` — ``array('q')`` number of distinct outages the node
      suffered (overlapping fault windows count once).

    A run with no fired crash windows carries empty columns; runs without
    any crash windows at all carry ``ExperimentResult.downtime = None``,
    which keeps the no-fault result payload byte-identical to the
    pre-lifecycle layout.  The container is tiny (a handful of rows), so
    unlike :class:`RecordColumns` it pickles its arrays directly.
    """

    __slots__ = ("nodes", "downtime", "crashes")

    def __init__(self) -> None:
        self.nodes = array("q")
        self.downtime = array("d")
        self.crashes = array("q")

    @classmethod
    def build(
        cls,
        nodes: Iterable[int],
        downtime: Iterable[float],
        crashes: Iterable[int],
    ) -> "DowntimeColumns":
        """Assemble columns from parallel per-node sequences."""
        cols = cls()
        cols.nodes = array("q", nodes)
        cols.downtime = array("d", downtime)
        cols.crashes = array("q", crashes)
        if not len(cols.nodes) == len(cols.downtime) == len(cols.crashes):
            raise ValueError("downtime columns must have equal lengths")
        return cols

    def __len__(self) -> int:
        return len(self.nodes)

    def as_dict(self) -> dict:
        """``node id -> total downtime`` as a plain dict."""
        return dict(zip(self.nodes, self.downtime))

    @property
    def total(self) -> float:
        """Total downtime summed over all nodes."""
        return sum(self.downtime)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = ", ".join(
            f"{n}: {d:g}ms/{c}x" for n, d, c in zip(self.nodes, self.downtime, self.crashes)
        )
        return f"DowntimeColumns({rows})"
