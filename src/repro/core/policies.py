"""Scheduling functions ``A : IN^M -> IR`` (Section 3.3.2).

The function ``A`` maps the counter vector of a request to a real number;
requests are then served in increasing order of that number (ties broken
by site id).  ``A`` is a parameter of the algorithm and effectively *is*
the scheduling policy.  The liveness property requires ``A`` to guarantee
that every request eventually has the smallest value among pending ones —
which holds for any monotone function of counters, since counters grow at
every new request.

The paper's evaluation uses the **average of the non-zero entries**
(:class:`MeanNonZeroPolicy`).  The other policies are provided for the
ablation benchmark A2 (see DESIGN.md) and as examples of the pluggable
interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import AbstractSet, Dict, Sequence, Type


class SchedulingPolicy(ABC):
    """Strategy object computing the mark of a request from its vector."""

    #: Registry name used by :func:`get_policy` and experiment configs.
    name: str = "abstract"

    @abstractmethod
    def mark(self, vector: Sequence[int], required: AbstractSet[int]) -> float:
        """Return ``A(vector)`` for a request over the ``required`` resources.

        ``vector`` has one entry per resource; entries for non-required
        resources are zero by construction.
        """

    def describe(self) -> str:
        """Human-readable description for reports."""
        return self.name


class MeanNonZeroPolicy(SchedulingPolicy):
    """Average of the non-zero counter values (the paper's choice).

    Starvation freedom: every new request obtains counter values strictly
    greater than the ones previously handed out for the same resources, so
    the minimum possible mark of future requests keeps growing and any
    pending request eventually becomes the smallest one.
    """

    name = "mean_nonzero"

    def mark(self, vector: Sequence[int], required: AbstractSet[int]) -> float:
        values = [vector[r] for r in required if vector[r] > 0]
        if not values:
            return 0.0
        return sum(values) / len(values)


class MaxPolicy(SchedulingPolicy):
    """Largest counter value of the request (pessimistic ordering)."""

    name = "max"

    def mark(self, vector: Sequence[int], required: AbstractSet[int]) -> float:
        values = [vector[r] for r in required if vector[r] > 0]
        return float(max(values)) if values else 0.0


class MinNonZeroPolicy(SchedulingPolicy):
    """Smallest non-zero counter value (optimistic ordering).

    Still starvation-free because counters grow monotonically, but it tends
    to favour requests touching rarely used resources.
    """

    name = "min_nonzero"

    def mark(self, vector: Sequence[int], required: AbstractSet[int]) -> float:
        values = [vector[r] for r in required if vector[r] > 0]
        return float(min(values)) if values else 0.0


class SumPolicy(SchedulingPolicy):
    """Sum of the counter values: penalises large requests.

    Included to illustrate a policy that biases the schedule by request
    size; large requests accumulate more counter mass and therefore wait
    longer under contention.
    """

    name = "sum"

    def mark(self, vector: Sequence[int], required: AbstractSet[int]) -> float:
        return float(sum(vector[r] for r in required))


_REGISTRY: Dict[str, Type[SchedulingPolicy]] = {
    cls.name: cls
    for cls in (
        MeanNonZeroPolicy,
        MaxPolicy,
        MinNonZeroPolicy,
        SumPolicy,
    )
}


def get_policy(name: str) -> SchedulingPolicy:
    """Instantiate a registered policy by name.

    Raises ``KeyError`` with the list of known names when unknown, so
    configuration typos fail fast.
    """
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown scheduling policy {name!r}; known policies: {sorted(_REGISTRY)}"
        ) from None


def available_policies() -> Sequence[str]:
    """Names of all registered scheduling policies."""
    return sorted(_REGISTRY)
