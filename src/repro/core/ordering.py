"""The scheduling function ``A`` and the total order ``/`` over requests
(Section 3.3.2, Definition 1).

A request is identified by ``(mark, sinit)`` where ``mark = A(vector)`` is
the scheduling function applied to the request's counter vector and
``sinit`` the issuing site.  ``req_i / req_j`` holds iff

``A(v_i) < A(v_j)  or  (A(v_i) = A(v_j) and s_i < s_j)``

which is a strict total order whenever the two requests come from
different sites (two concurrent requests from the same site cannot exist
— Hypothesis 4 — and successive requests of a site are distinguished by
their ``req_id``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import AbstractSet, Protocol, Sequence


class _HasMarkAndSite(Protocol):
    """Structural type of anything that can participate in the order ``/``."""

    mark: float
    sinit: int


def mark(vector: Sequence[int], required: AbstractSet[int]) -> float:
    """``A(vector)``: the average of the non-zero counters of ``required``.

    ``vector`` has one entry per resource; entries for non-required
    resources are zero by construction.  This is the scheduling function
    of the paper's evaluation.  Liveness only needs ``A`` to let every
    request eventually have the smallest value among pending ones, which
    holds for any monotone function of the counters: every new request
    obtains counter values strictly greater than the ones previously
    handed out for the same resources, so the minimum possible mark of
    future requests keeps growing.
    """
    values = [vector[r] for r in required if vector[r] > 0]
    if not values:
        return 0.0
    return sum(values) / len(values)


#: Sort key implementing the order ``/``: ``request_key(req)`` is
#: ``(req.mark, req.sinit)``, and a smaller key means a higher priority.
#: An ``attrgetter`` is a C callable, so a ``bisect_left(..., key=...)``
#: queue insert and :func:`precedes` enter no Python frame per comparison.
request_key = attrgetter("mark", "sinit")


def precedes(a: _HasMarkAndSite, b: _HasMarkAndSite) -> bool:
    """``a / b``: ``a`` strictly precedes (has priority over) ``b``."""
    return request_key(a) < request_key(b)

