"""The paper's algorithm: counter-based, lock-free multi-resource allocation.

This package implements the contribution of the paper (Sections 3 and 4
and the pseudo-code of Annex A):

* one token per resource carrying a **counter**, a priority-ordered waiting
  queue and loan bookkeeping, managed over a dynamic tree of probable-owner
  pointers (a simplified, prioritised Mueller algorithm);
* a request is stamped with the vector of counter values it obtained, and
  requests are totally ordered by ``A(vector)`` with site ids breaking ties
  (the relation ``/`` of the paper) — :mod:`repro.core.ordering` and
  :mod:`repro.core.policies`;
* an optional **loan mechanism** by which a waiting process lends *all* the
  tokens another process is missing so the borrower can run its critical
  section immediately, with at most one outstanding loan per lender —
  enabled/disabled through :class:`repro.core.config.CoreConfigSpec`
  (the "With loan" / "Without loan" variants of the evaluation).

The process-level endpoint is :class:`repro.core.node.CoreAllocatorNode`.
"""

from repro.core.config import CoreConfigSpec
from repro.core.messages import (
    CounterEnvelope,
    CounterValue,
    ReqCnt,
    ReqLoan,
    ReqRes,
    RequestEnvelope,
    TokenEnvelope,
)
from repro.core.node import CoreAllocatorNode, ProcessState
from repro.core.ordering import precedes, request_key
from repro.core.policies import (
    MaxPolicy,
    MeanNonZeroPolicy,
    MinNonZeroPolicy,
    SchedulingPolicy,
    SumPolicy,
    get_policy,
)
from repro.core.token import ResourceToken

__all__ = [
    "CoreConfigSpec",
    "CoreAllocatorNode",
    "ProcessState",
    "ResourceToken",
    "ReqCnt",
    "ReqRes",
    "ReqLoan",
    "CounterValue",
    "RequestEnvelope",
    "CounterEnvelope",
    "TokenEnvelope",
    "SchedulingPolicy",
    "MeanNonZeroPolicy",
    "MaxPolicy",
    "SumPolicy",
    "MinNonZeroPolicy",
    "get_policy",
    "precedes",
    "request_key",
]
