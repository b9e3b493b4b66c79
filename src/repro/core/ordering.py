"""The total order ``/`` over requests (Section 3.3.2, Definition 1).

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
from typing import Protocol


class _HasMarkAndSite(Protocol):
    """Structural type of anything that can participate in the order ``/``."""

    mark: float
    sinit: int


#: Sort key implementing the order ``/``: ``request_key(req)`` is
#: ``(req.mark, req.sinit)``, and a smaller key means a higher priority.
#: An ``attrgetter`` is a C callable, so a ``bisect_left(..., key=...)``
#: queue insert and :func:`precedes` enter no Python frame per comparison.
request_key = attrgetter("mark", "sinit")


def precedes(a: _HasMarkAndSite, b: _HasMarkAndSite) -> bool:
    """``a / b``: ``a`` strictly precedes (has priority over) ``b``."""
    return request_key(a) < request_key(b)

