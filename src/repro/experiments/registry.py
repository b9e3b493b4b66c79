"""Pluggable registry of the algorithms under evaluation.

Every algorithm is registered with :func:`register_algorithm`, which binds
a *builder* (instantiating one allocator endpoint per process) to a name,
a figure-legend label and an optional frozen config dataclass — the
declarative counterpart of the algorithm's tunables, carried inside a
:class:`~repro.experiments.scenario.Scenario` and thawed per-run.  New
baselines and variants are therefore drop-in::

    @register_algorithm("my_variant", label="My variant", config=CoreConfigSpec,
                        default=CoreConfigSpec(policy="max"))
    def _build_my_variant(config, params, sim, network, trace):
        return [MyAllocatorNode(sim, network, p, ...) for p in range(params.num_processes)]

    run(Scenario(algorithm="my_variant"))

The five built-ins below match the five curves of Figure 5:

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

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.allocator import MultiResourceAllocator
from repro.baselines.bouabdallah_laforest import BLAllocatorNode
from repro.baselines.central_scheduler import CentralScheduler, CentralSchedulerClientAllocator
from repro.baselines.incremental import IncrementalAllocatorNode
from repro.core.config import CoreConfigSpec
from repro.core.node import CoreAllocatorNode
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.trace import TraceRecorder
from repro.workload.params import WorkloadParams

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_LABELS",
    "AlgorithmDef",
    "available_algorithms",
    "get_algorithm",
    "register_algorithm",
]

#: Builder signature: ``(config, params, sim, network, trace) -> allocators``.
#: ``config`` is the (possibly ``None``) frozen config spec instance,
#: ``network`` is ``None`` for algorithms registered with
#: ``needs_network=False``.
AlgorithmBuilder = Callable[
    [Any, WorkloadParams, Simulator, Optional[Network], Optional[TraceRecorder]],
    List[MultiResourceAllocator],
]


@dataclass(frozen=True)
class AlgorithmDef:
    """One registered algorithm: metadata plus its allocator builder."""

    name: str
    label: str
    builder: AlgorithmBuilder
    config_type: Optional[Type[Any]] = None
    default_config: Optional[Any] = None
    needs_network: bool = True

    def make_allocators(
        self,
        config: Any,
        params: WorkloadParams,
        sim: Simulator,
        network: Optional[Network],
        trace: Optional[TraceRecorder] = None,
    ) -> List[MultiResourceAllocator]:
        """Instantiate one allocator endpoint per process."""
        if self.needs_network and network is None:
            raise ValueError(f"algorithm {self.name!r} requires a network")
        if config is None:
            config = self.default_config
        elif self.config_type is None:
            raise TypeError(f"algorithm {self.name!r} takes no config, got {config!r}")
        elif not isinstance(config, self.config_type):
            raise TypeError(
                f"algorithm {self.name!r} expects a {self.config_type.__name__} "
                f"config, got {type(config).__name__}"
            )
        return self.builder(config, params, sim, network if self.needs_network else None, trace)


_REGISTRY: Dict[str, AlgorithmDef] = {}


def register_algorithm(
    name: str,
    *,
    label: Optional[str] = None,
    config: Optional[Type[Any]] = None,
    default: Optional[Any] = None,
    needs_network: bool = True,
) -> Callable[[AlgorithmBuilder], AlgorithmBuilder]:
    """Class-less plugin decorator: bind ``builder`` to ``name`` in the registry.

    Parameters
    ----------
    name:
        Registry key, used by :class:`Scenario.algorithm` and reports.
    label:
        Figure-legend label (defaults to ``name``).
    config:
        Frozen dataclass type of the algorithm's declarative config;
        ``None`` for config-less algorithms.
    default:
        Default config instance used when a scenario leaves ``config``
        unset (defaults to ``config()`` when a config type is given).
    needs_network:
        ``False`` for algorithms with no communication (the builder then
        always receives ``network=None``).

    Decorators stack, so one builder can serve several registered
    variants that differ only in their default config.
    """

    def decorate(builder: AlgorithmBuilder) -> AlgorithmBuilder:
        if name in _REGISTRY:
            raise ValueError(f"algorithm {name!r} is already registered")
        default_config = default
        if default_config is None and config is not None:
            default_config = config()
        if config is not None and not isinstance(default_config, config):
            raise TypeError(f"default config for {name!r} is not a {config.__name__}")
        _REGISTRY[name] = AlgorithmDef(
            name=name,
            label=label if label is not None else name,
            builder=builder,
            config_type=config,
            default_config=default_config,
            needs_network=needs_network,
        )
        return builder

    return decorate


def get_algorithm(name: str) -> AlgorithmDef:
    """Look up a registered algorithm, failing fast on typos."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {list(_REGISTRY)}"
        ) from None


def available_algorithms() -> Tuple[str, ...]:
    """Names of every registered algorithm, in registration order."""
    return tuple(_REGISTRY)


# --------------------------------------------------------------------- #
# built-in algorithms
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class IncrementalConfigSpec:
    """Config of the incremental baseline.

    ``initial_holder`` is the site initially holding every resource token;
    ``None`` spreads the tokens round-robin over the sites.
    """

    initial_holder: Optional[int] = None


@dataclass(frozen=True)
class BLConfigSpec:
    """Config of the Bouabdallah–Laforest baseline."""

    control_holder: int = 0


@register_algorithm("incremental", label="Incremental", config=IncrementalConfigSpec)
def _build_incremental(config, params, sim, network, trace):
    return [
        IncrementalAllocatorNode(
            sim,
            network,
            p,
            num_resources=params.num_resources,
            num_processes=params.num_processes,
            initial_holder=config.initial_holder,
            trace=trace,
        )
        for p in range(params.num_processes)
    ]


@register_algorithm("bouabdallah", label="Bouabdallah Laforest", config=BLConfigSpec)
def _build_bouabdallah(config, params, sim, network, trace):
    return [
        BLAllocatorNode(
            sim,
            network,
            p,
            num_resources=params.num_resources,
            control_holder=config.control_holder,
            trace=trace,
        )
        for p in range(params.num_processes)
    ]


# Stacked decorators apply bottom-up, so ``without_loan`` registers first —
# keeping ALGORITHMS in the order the paper's legends use.
@register_algorithm(
    "with_loan",
    label="With loan",
    config=CoreConfigSpec,
    default=CoreConfigSpec(enable_loan=True),
)
@register_algorithm(
    "without_loan",
    label="Without loan",
    config=CoreConfigSpec,
    default=CoreConfigSpec(enable_loan=False),
)
def _build_core(config, params, sim, network, trace):
    built = config.build(params)
    return [
        CoreAllocatorNode(
            sim,
            network,
            p,
            num_resources=params.num_resources,
            config=built,
            trace=trace,
            resend_interval=config.resend_interval,
        )
        for p in range(params.num_processes)
    ]


@register_algorithm("shared_memory", label="in shared memory", needs_network=False)
def _build_shared_memory(config, params, sim, network, trace):
    scheduler = CentralScheduler(sim, params.num_resources)
    return [
        CentralSchedulerClientAllocator(scheduler, p) for p in range(params.num_processes)
    ]


#: Canonical built-in algorithm names, in the order the paper's legends use.
#: Algorithms registered later are reachable through
#: :func:`available_algorithms` / :func:`get_algorithm`; this tuple is the
#: frozen snapshot the figure drivers default to.
ALGORITHMS: Sequence[str] = available_algorithms()

#: Human-readable labels matching the paper's figure legends.
ALGORITHM_LABELS: Dict[str, str] = {d.name: d.label for d in _REGISTRY.values()}

