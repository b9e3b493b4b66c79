"""Common interface implemented by every multi-resource allocation protocol.

The experiment driver (:mod:`repro.experiments.driver`) talks to all
algorithms — the paper's algorithm, the incremental baseline, the
Bouabdallah–Laforest baseline and the shared-memory reference scheduler —
through this single interface, so the exact same workload can be replayed
against each of them.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Callable, FrozenSet, Iterable


class AllocatorError(RuntimeError):
    """Raised on protocol misuse (e.g. releasing while not in CS)."""


class MultiResourceAllocator(ABC):
    """A process-local endpoint of a multi-resource allocation protocol.

    The contract mirrors Section 3.1 of the paper: a process cannot issue a
    new request before its previous one has been satisfied and released, so
    at most one request per process is outstanding at any time.
    """

    @abstractmethod
    def acquire(self, resources: Iterable[int], on_granted: Callable[[], None]) -> None:
        """Request exclusive access to ``resources``.

        ``on_granted`` is invoked (possibly synchronously, possibly after an
        arbitrary number of simulated message exchanges) exactly once, when
        the process has obtained the right to use *all* requested resources
        and may enter its critical section.
        """

    @abstractmethod
    def release(self) -> None:
        """Exit the critical section, releasing all resources of the
        current request.  Only legal while in critical section."""

    @property
    @abstractmethod
    def in_critical_section(self) -> bool:
        """Whether the process is currently executing its critical section."""

    @property
    @abstractmethod
    def is_idle(self) -> bool:
        """Whether the process has no outstanding request."""


def validate_resources(resources: Iterable[int], num_resources: int) -> FrozenSet[int]:
    """Validate and normalise a resource set against ``num_resources``.

    Raises :class:`AllocatorError` on empty sets, on ids that are not
    integers (``operator.index`` accepts ``int`` and its subclasses and
    integer types such as NumPy's; ``2.7`` or ``"3"`` is rejected, not
    truncated or parsed) and on out-of-range ids, which keeps protocol
    implementations free of repeated argument checking.  The set is built
    and its range checked by C calls; the ids are walked one by one only
    to name an offender.
    """
    try:
        rset = frozenset(map(operator.index, resources))
    except TypeError as exc:
        raise AllocatorError(f"resource ids must be integers: {exc}") from None
    if not rset:
        raise AllocatorError("a request must name at least one resource")
    if min(rset) < 0 or max(rset) >= num_resources:
        for r in rset:
            if not 0 <= r < num_resources:
                raise AllocatorError(f"resource id {r} out of range [0, {num_resources})")
    return rset
