"""Lazy parser for SWF (Standard Workload Format) job traces.

The Parallel Workloads Archive distributes cluster traces as SWF: one
job per line, 18 whitespace-separated integer/float fields, with header
and comment lines starting with ``;``.  Only a handful of fields matter
for replaying a trace as a mutual-exclusion workload — submit time,
runtime and requested processor count — but :class:`SWFJob` carries the
full standard record so other consumers need no second parser (the
accasim ``workload_parser`` idiom cited in ROADMAP.md).

Parsing is **lazy**: :func:`read_swf` and :func:`parse_swf` are
generators holding one line in memory at a time.  Replay
(:class:`~repro.workload.spec.TraceReplaySpec`) needs the trace once per
process, so it reads it once per run through :func:`read_swf_columns`
into three ``array`` columns — submit time, run time, processor count,
20 bytes a job — and never materialises job *objects*.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "SWFJob",
    "SWF_FIELDS",
    "parse_swf",
    "read_swf",
    "read_swf_columns",
    "count_swf_jobs",
]

#: The 18 standard SWF fields, in file order (Feitelson's definition).
SWF_FIELDS = (
    "job_number",
    "submit_time",
    "wait_time",
    "run_time",
    "allocated_procs",
    "avg_cpu_time",
    "used_memory",
    "requested_procs",
    "requested_time",
    "requested_memory",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "preceding_job",
    "think_time",
)


@dataclass(frozen=True)
class SWFJob:
    """One SWF trace record.  Unknown values carry the SWF sentinel ``-1``.

    Integer identity fields stay ``int``; measured quantities
    (``submit_time``, ``wait_time``, ``run_time``, ``avg_cpu_time``,
    ``requested_time``) are ``float`` — some archives log fractional
    seconds.
    """

    job_number: int
    submit_time: float
    wait_time: float
    run_time: float
    allocated_procs: int
    avg_cpu_time: float
    used_memory: int
    requested_procs: int
    requested_time: float
    requested_memory: int
    status: int
    user_id: int
    group_id: int
    executable: int
    queue: int
    partition: int
    preceding_job: int
    think_time: float

    @property
    def procs(self) -> int:
        """Best available processor count: requested, falling back to allocated."""
        return _best_procs(self.requested_procs, self.allocated_procs)


def _best_procs(requested: int, allocated: int) -> int:
    return requested if requested > 0 else max(allocated, 1)


_FLOAT_FIELDS = frozenset(
    ("submit_time", "wait_time", "run_time", "avg_cpu_time", "requested_time", "think_time")
)
_SUBMIT, _RUN, _ALLOCATED, _REQUESTED = (
    SWF_FIELDS.index(name)
    for name in ("submit_time", "run_time", "allocated_procs", "requested_procs")
)


def _parse_values(line: str, lineno: int) -> Optional[List]:
    """One SWF line as values in ``SWF_FIELDS`` order; ``None`` for comments/blank lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith(";"):
        return None
    fields = stripped.split()
    if len(fields) < len(SWF_FIELDS):
        # Tolerate truncated records (some archive exports drop the
        # trailing dependency fields): pad with the SWF unknown sentinel.
        fields = fields + ["-1"] * (len(SWF_FIELDS) - len(fields))
    values = []
    for name, token in zip(SWF_FIELDS, fields):
        try:
            values.append(float(token) if name in _FLOAT_FIELDS else int(float(token)))
        except ValueError:
            raise ValueError(
                f"SWF line {lineno}: field {name!r} is not numeric: {token!r}"
            ) from None
    return values


def parse_swf(lines: Iterable[str]) -> Iterator[SWFJob]:
    """Lazily parse an iterable of SWF lines into :class:`SWFJob` records.

    Comment (``;``) and blank lines are skipped; malformed numeric fields
    raise ``ValueError`` naming the line.  The generator never holds more
    than one record.
    """
    for lineno, line in enumerate(lines, start=1):
        values = _parse_values(line, lineno)
        if values is not None:
            yield SWFJob(*values)


def read_swf(path: str) -> Iterator[SWFJob]:
    """Lazily stream the jobs of the SWF file at ``path``.

    The file handle is held open for the lifetime of the generator and
    closed when it is exhausted or garbage-collected.
    """
    fh: IO[str]
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        yield from parse_swf(fh)


def read_swf_columns(path: str, max_jobs: Optional[int] = None) -> Tuple[array, array, array]:
    """The first ``max_jobs`` jobs (all by default) as three columns.

    Returns ``(submit_time, run_time, procs)`` — two ``array('d')`` and
    one ``array('i')`` of :attr:`SWFJob.procs` — from one pass over the
    file that builds no :class:`SWFJob`.  Every field of a line is still
    checked, so a malformed line raises the same ``ValueError`` as
    :func:`read_swf`; lines after the ``max_jobs``-th job are not read.
    """
    submit, run, procs = array("d"), array("d"), array("i")
    fh: IO[str]
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if max_jobs is not None and len(submit) >= max_jobs:
                break
            values = _parse_values(line, lineno)
            if values is not None:
                submit.append(values[_SUBMIT])
                run.append(values[_RUN])
                procs.append(_best_procs(values[_REQUESTED], values[_ALLOCATED]))
    return submit, run, procs


def count_swf_jobs(path: str) -> int:
    """Number of job records in the trace (one cheap streaming pass)."""
    return sum(1 for _ in read_swf(path))
