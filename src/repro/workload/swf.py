"""Reader for SWF (Standard Workload Format) job traces.

The Parallel Workloads Archive distributes cluster traces as SWF: one
job per line, 18 whitespace-separated integer/float fields, with header
and comment lines starting with ``;``.  Replaying a trace as a
mutual-exclusion workload (:class:`~repro.workload.spec.TraceReplaySpec`)
needs three of them — submit time, runtime and processor count — so
:func:`read_swf_columns` reads the file once per run into three ``array``
columns, 20 bytes a job, and never builds a job object.
"""

from __future__ import annotations

import math
from array import array
from typing import Optional, Tuple

__all__ = ["SWF_FIELDS", "read_swf_columns"]

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

_FLOAT_FIELDS = frozenset(
    ("submit_time", "wait_time", "run_time", "avg_cpu_time", "requested_time", "think_time")
)
_SUBMIT, _RUN, _ALLOCATED, _REQUESTED = (
    SWF_FIELDS.index(name)
    for name in ("submit_time", "run_time", "allocated_procs", "requested_procs")
)
# Truncated records (some archive exports drop the trailing dependency
# fields) are padded with the SWF unknown sentinel.
_PADDING = ["-1"] * len(SWF_FIELDS)


def read_swf_columns(path: str, max_jobs: Optional[int] = None) -> Tuple[array, array, array]:
    """The first ``max_jobs`` jobs (all by default) as three columns.

    Returns ``(submit_time, run_time, procs)`` — two ``array('d')`` and
    one ``array('i')`` — from one pass over the file.  ``procs`` is the
    requested processor count, falling back to the allocated one (at
    least 1) when the trace does not know it.  Comment (``;``) and blank
    lines are skipped.  Every field of a line is checked, so a malformed
    line — a token that is not a number, or is ``nan`` or ``±inf`` —
    raises ``ValueError`` naming its line and field; lines after the
    ``max_jobs``-th job are not read.
    """
    submit, run, procs = array("d"), array("d"), array("i")
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if max_jobs is not None and len(submit) >= max_jobs:
                break
            fields = line.split()
            if not fields or fields[0].startswith(";"):
                continue
            values = []
            for name, token in zip(SWF_FIELDS, fields + _PADDING[len(fields):]):
                try:
                    value = float(token)
                except ValueError:
                    raise ValueError(
                        f"SWF line {lineno}: field {name!r} is not numeric: {token!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(f"SWF line {lineno}: field {name!r} is not finite: {token!r}")
                values.append(value if name in _FLOAT_FIELDS else int(value))
            submit.append(values[_SUBMIT])
            run.append(values[_RUN])
            requested = values[_REQUESTED]
            procs.append(requested if requested > 0 else max(values[_ALLOCATED], 1))
    return submit, run, procs
