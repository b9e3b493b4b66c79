"""A line-by-line SWF row parser: the test oracle for ``read_swf_columns``.

It parses each job line into a full 18-field :class:`SWFJob` record, one
line at a time, with no columns and no ``max_jobs`` cut — the plain
reading of the format that the column reader must agree with.
"""

from dataclasses import dataclass, fields
from typing import Iterable, Iterator

_FLOAT_FIELDS = frozenset(
    ("submit_time", "wait_time", "run_time", "avg_cpu_time", "requested_time", "think_time")
)


@dataclass(frozen=True)
class SWFJob:
    """One SWF trace record.  Unknown values carry the SWF sentinel ``-1``.

    Integer identity fields stay ``int``; measured quantities
    (``submit_time``, ``wait_time``, ``run_time``, ``avg_cpu_time``,
    ``requested_time``, ``think_time``) are ``float``.
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
        if self.requested_procs > 0:
            return self.requested_procs
        return max(self.allocated_procs, 1)


#: The 18 standard fields, in file order.
FIELDS = tuple(field.name for field in fields(SWFJob))


def parse_swf(lines: Iterable[str]) -> Iterator[SWFJob]:
    """Parse SWF lines into records, skipping comment (``;``) and blank lines.

    A truncated record is padded with ``-1``; a non-numeric or non-finite
    (``nan``, ``±inf``) field raises ``ValueError`` naming the line and
    field.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            continue
        tokens = stripped.split()
        if len(tokens) < len(FIELDS):
            tokens = tokens + ["-1"] * (len(FIELDS) - len(tokens))
        values = []
        for name, token in zip(FIELDS, tokens):
            try:
                value = float(token)
            except ValueError:
                raise ValueError(
                    f"SWF line {lineno}: field {name!r} is not numeric: {token!r}"
                ) from None
            if value != value or value in (float("inf"), float("-inf")):
                raise ValueError(f"SWF line {lineno}: field {name!r} is not finite: {token!r}")
            values.append(value if name in _FLOAT_FIELDS else int(value))
        yield SWFJob(*values)


def read_swf(path: str) -> Iterator[SWFJob]:
    """The records of the SWF file at ``path``."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        yield from parse_swf(fh)
