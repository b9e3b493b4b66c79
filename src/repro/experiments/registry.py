"""The algorithms under evaluation, as one table.

Each row of :data:`TABLE` holds an algorithm's name, its figure-legend
label, its default config — the frozen spec a
:class:`~repro.experiments.scenario.Scenario` carries and the builder
reads, ``None`` for an algorithm that takes none — whether it needs a
network, and the builder that instantiates one allocator endpoint per
process.  Adding an algorithm is adding a row.  A run that declares
crash windows builds with the row's ``crash_build`` instead, where an
algorithm has one: its crash-recovery subclass, so every other run
executes the protocol alone.

The five rows match the five curves of Figure 5:

================  ====================================================
name              algorithm
================  ====================================================
``incremental``   M Naimi–Tréhel instances, resources locked in order
``bouabdallah``   Bouabdallah–Laforest control-token algorithm
``without_loan``  the paper's algorithm, loan mechanism disabled
``with_loan``     the paper's algorithm, loan mechanism enabled
``shared_memory`` centralised zero-cost scheduler (reference envelope)
================  ====================================================
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.allocator import MultiResourceAllocator
from repro.baselines.bouabdallah_laforest import BLAllocatorNode
from repro.baselines.central_scheduler import CentralScheduler, CentralSchedulerClientAllocator
from repro.baselines.incremental import IncrementalAllocatorNode, RecoverableIncrementalNode
from repro.core.config import CoreConfigSpec
from repro.core.node import CoreAllocatorNode
from repro.core.recovery import RecoverableCoreNode

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_LABELS",
    "Algorithm",
    "TABLE",
    "get_algorithm",
]


def _build_incremental(config, params, sim, network, trace, node=IncrementalAllocatorNode):
    return [
        node(
            sim,
            network,
            p,
            num_resources=params.num_resources,
            num_processes=params.num_processes,
            trace=trace,
        )
        for p in range(params.num_processes)
    ]


def _build_bouabdallah(config, params, sim, network, trace):
    return [
        BLAllocatorNode(
            sim,
            network,
            p,
            num_resources=params.num_resources,
            trace=trace,
        )
        for p in range(params.num_processes)
    ]


def _build_core(config, params, sim, network, trace, node=CoreAllocatorNode):
    return [
        node(
            sim, network, p, params.num_resources, params.num_processes, config, trace
        )
        for p in range(params.num_processes)
    ]


def _build_shared_memory(config, params, sim, network, trace):
    scheduler = CentralScheduler(sim, params.num_resources)
    return [
        CentralSchedulerClientAllocator(scheduler, p) for p in range(params.num_processes)
    ]


class Algorithm(NamedTuple):
    """One row of :data:`TABLE`."""

    name: str
    #: Figure-legend label.
    label: str
    #: Config used when a scenario leaves ``config`` unset; a scenario's
    #: config must be an instance of its type.  ``None``: takes no config.
    default_config: Any
    #: ``False`` for algorithms with no communication: no network is built
    #: and the builder receives ``network=None``.
    needs_network: bool
    #: ``(config, params, sim, network, trace) -> allocators``, one per process.
    build: Callable[..., List[MultiResourceAllocator]]
    #: ``build`` for a run that declares crash windows (the algorithm's
    #: crash-recovery subclass); ``None``: ``build`` serves every run.
    crash_build: Optional[Callable[..., List[MultiResourceAllocator]]] = None


#: Every algorithm, by name, in the order the paper's legends use.
TABLE: Dict[str, Algorithm] = {
    row.name: row
    for row in (
        Algorithm(
            "incremental", "Incremental", None, True, _build_incremental,
            partial(_build_incremental, node=RecoverableIncrementalNode),
        ),
        Algorithm("bouabdallah", "Bouabdallah Laforest", None, True, _build_bouabdallah),
        Algorithm(
            "without_loan", "Without loan", CoreConfigSpec(enable_loan=False), True, _build_core,
            partial(_build_core, node=RecoverableCoreNode),
        ),
        Algorithm(
            "with_loan", "With loan", CoreConfigSpec(enable_loan=True), True, _build_core,
            partial(_build_core, node=RecoverableCoreNode),
        ),
        Algorithm("shared_memory", "in shared memory", None, False, _build_shared_memory),
    )
}

#: Algorithm names, in the order the paper's legends use.
ALGORITHMS: Sequence[str] = tuple(TABLE)

#: Human-readable labels matching the paper's figure legends.
ALGORITHM_LABELS: Dict[str, str] = {row.name: row.label for row in TABLE.values()}


def get_algorithm(name: str) -> Algorithm:
    """The row of ``name``, failing fast on typos."""
    try:
        return TABLE[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}; known: {list(TABLE)}") from None
