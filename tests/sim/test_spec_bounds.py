"""Every time and latency of a spec is checked at construction, NaN included.

A non-finite or negative value used to pass construction and then fail
late (``cannot schedule an event in the past`` inside a pool worker, an
``AttributeError`` in the network's send) or give a silently wrong run (a
partition starting at NaN injects nothing, a NaN latency drains).  Each
check is one comparison, so NaN fails it too, and the error names the
field.
"""

import math

import pytest

from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faults import LinkPartition, NodeCrash
from repro.sim.latency import (
    ConstantLatencySpec,
    HierarchicalLatencySpec,
    UniformJitterLatencySpec,
)
from repro.workload.params import WorkloadParams

#: ``(spec class, base keyword arguments, field)``: the base arguments are
#: valid, and the field is then set to a bad value.
FIELDS = [
    (ConstantLatencySpec, {}, "gamma"),
    (ConstantLatencySpec, {}, "local"),
    (UniformJitterLatencySpec, {}, "gamma"),
    (HierarchicalLatencySpec, {"num_clusters": 2}, "gamma_local"),
    (HierarchicalLatencySpec, {"num_clusters": 2}, "gamma_remote"),
    (WorkloadParams, {}, "gamma"),
    (NodeCrash, {"node": 1, "at": 5.0}, "at"),
    (NodeCrash, {"node": 1, "at": 5.0}, "recover_at"),
    (LinkPartition, {"pairs": ((0, 1),), "start": 5.0}, "start"),
    (LinkPartition, {"pairs": ((0, 1),), "start": 5.0}, "end"),
    (HeartbeatDetector, {}, "interval"),
    (HeartbeatDetector, {}, "timeout"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "cls, base, field", FIELDS, ids=[f"{cls.__name__}.{field}" for cls, _, field in FIELDS]
)
def test_non_finite_value_rejected_naming_the_field(cls, base, field, value):
    cls(**base)  # the base is valid
    with pytest.raises(ValueError, match=rf"\b{field} must\b"):
        cls(**{**base, field: value})
