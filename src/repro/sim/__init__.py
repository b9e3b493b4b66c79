"""Discrete-event simulation substrate.

The paper evaluated its algorithms on a 32-node cluster over OpenMPI; this
package provides the equivalent substrate as a deterministic discrete-event
simulator: a simulated clock with an event heap (:mod:`repro.sim.engine`),
a FIFO message-passing network — reliable by default
(:mod:`repro.sim.network`) — whose latency and faults are frozen specs
that the network consults directly (:mod:`repro.sim.latency`,
:mod:`repro.sim.faults`), node crash/recovery lifecycle delivery
(:mod:`repro.sim.lifecycle`) and declarative crash detection
(:mod:`repro.sim.detectorspec`), a node/process abstraction with message
dispatch and lifecycle hooks (:mod:`repro.sim.node`),
deterministic random-number streams (:mod:`repro.sim.rng`) and execution
tracing (:mod:`repro.sim.trace`).

All algorithm implementations in :mod:`repro.core`, :mod:`repro.mutex` and
:mod:`repro.baselines` are written against this substrate only, mirroring
the system model of Section 3.1 of the paper (reliable FIFO links, complete
communication graph, one process per node, no shared memory).
"""

from repro.sim.detectorspec import DetectorSpec, HeartbeatDetector, NoDetector
from repro.sim.engine import Simulator
from repro.sim.faults import (
    BernoulliLoss,
    BoundBernoulliLoss,
    CompositeFaults,
    FaultSpec,
    LinkPartition,
    NoFaults,
    NodeCrash,
)
from repro.sim.latency import (
    ConstantLatencySpec,
    HierarchicalLatencySpec,
    LatencySpec,
    UniformJitterLatency,
    UniformJitterLatencySpec,
)
from repro.sim.lifecycle import NodeLifecycle
from repro.sim.network import MessageStats, Network
from repro.sim.node import Node
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "Simulator",
    "FaultSpec",
    "NoFaults",
    "BernoulliLoss",
    "BoundBernoulliLoss",
    "LinkPartition",
    "NodeCrash",
    "CompositeFaults",
    "DetectorSpec",
    "NoDetector",
    "HeartbeatDetector",
    "NodeLifecycle",
    "LatencySpec",
    "ConstantLatencySpec",
    "UniformJitterLatencySpec",
    "UniformJitterLatency",
    "HierarchicalLatencySpec",
    "Network",
    "MessageStats",
    "Node",
    "RandomStreams",
    "TraceEvent",
    "TraceRecorder",
]
