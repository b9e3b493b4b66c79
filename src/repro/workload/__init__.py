"""Workload generation.

Reproduces the experimental configuration of Section 5.1 of the paper: a
closed system of ``N`` processes sharing ``M`` resources where each process
alternates between *thinking* (mean duration ``beta``), *requesting* a
random subset of at most ``phi`` resources and *using* them for a critical
section whose duration grows with the request size (``alpha`` between 5 ms
and 35 ms in the paper).  The load parameter ``rho = beta / (alpha + gamma)``
is inversely proportional to the request load.
"""

from repro.workload.params import LoadLevel, WorkloadParams, cs_duration_for_size
from repro.workload.generator import RequestSpec
from repro.workload.arrivals import (
    ArrivalSpec,
    MarkovModulatedArrivals,
    PoissonArrivals,
)
from repro.workload.spec import (
    BoundWorkload,
    OpenLoopSpec,
    SyntheticSpec,
    TraceReplaySpec,
    WorkloadSpec,
)
from repro.workload.swf import read_swf_columns

__all__ = [
    "LoadLevel",
    "WorkloadParams",
    "cs_duration_for_size",
    "RequestSpec",
    "ArrivalSpec",
    "PoissonArrivals",
    "MarkovModulatedArrivals",
    "WorkloadSpec",
    "BoundWorkload",
    "SyntheticSpec",
    "OpenLoopSpec",
    "TraceReplaySpec",
    "read_swf_columns",
]
