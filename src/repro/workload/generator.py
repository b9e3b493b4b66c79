"""Requests and the request shape of Section 5.1.

A request asks for ``x`` resources, ``x`` drawn uniformly from
``{1, ..., phi}``, and holds them for a critical section whose duration
grows with ``x`` (Section 5.1 of the paper).  The workload specs of
:mod:`repro.workload.spec` draw their streams of :class:`RequestSpec`
objects with :func:`draw_request_shape`; the driver in
:mod:`repro.experiments.driver` turns them into protocol calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.workload.params import WorkloadParams, cs_duration_for_size


@dataclass(frozen=True)
class RequestSpec:
    """One critical-section request produced by the workload.

    Attributes
    ----------
    process:
        Id of the issuing process.
    index:
        Sequence number of the request at that process (0-based).
    resources:
        Identifiers of the requested resources (non-empty, distinct).
    cs_duration:
        Time the process will spend in critical section once granted.
    think_time:
        Idle time the process waits *before* issuing this request.
    """

    process: int
    index: int
    resources: FrozenSet[int]
    cs_duration: float
    think_time: float

    def __post_init__(self) -> None:
        if not self.resources:
            raise ValueError("a request must ask for at least one resource")
        if self.cs_duration <= 0:
            raise ValueError("cs_duration must be positive")
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")


def draw_request_shape(
    params: WorkloadParams,
    size_rng,
    pick_rng,
    cs_rng,
) -> tuple:
    """Draw one request's (resources, cs_duration) pair (Section 5.1).

    Size uniform in ``{1..phi}``, resources sampled without replacement,
    CS duration interpolated by size with multiplicative noise.  The draw
    order (size, pick, noise) is part of the reproducibility contract:
    the closed-loop stream and every open-loop stream share this exact
    sequence per request, so the request *shape* distribution is held
    fixed while the arrival process varies.
    """
    size = size_rng.randint(1, params.phi)
    resources = frozenset(pick_rng.sample(range(params.num_resources), size))
    mean_cs = cs_duration_for_size(
        size, params.num_resources, params.alpha_min, params.alpha_max
    )
    if params.cs_noise > 0:
        factor = cs_rng.uniform(1.0 - params.cs_noise, 1.0 + params.cs_noise)
    else:
        factor = 1.0
    return resources, max(mean_cs * factor, 1e-6)
