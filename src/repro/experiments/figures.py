"""Sweep drivers regenerating the figures of the paper's evaluation.

Each driver expresses its grid declaratively — a base
:class:`~repro.experiments.scenario.Scenario` expanded with
:meth:`Scenario.sweep` over (algorithm × phi × seed) axes — and submits
the scenarios through :mod:`repro.parallel`.  Pass ``workers=N`` to fan
the independent runs out over ``N`` processes (``workers=1``, the
default, is the serial reference path and produces bit-identical series),
or pass a shared :class:`~repro.parallel.executor.SweepExecutor` to reuse
one run cache across several figures (the scenario content hash is the
cache key, so grid points shared between figures are simulated once).

Each function returns a :class:`FigureSeries` holding the raw numbers; the
textual rendering (the "rows/series the paper reports") is produced by
:mod:`repro.experiments.report`.

The default parameters reproduce the paper's configuration (N=32, M=80,
alpha in [5, 35] ms, gamma = 0.6 ms); pass a scaled-down
:class:`~repro.workload.params.WorkloadParams` for quick runs, as the
benchmark suite does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.registry import ALGORITHMS
from repro.experiments.runner import FIGURE7_SIZE_BUCKETS, ExperimentResult
from repro.experiments.scenario import Scenario
from repro.parallel.executor import SweepExecutor
from repro.workload.params import LoadLevel, WorkloadParams

__all__ = [
    "DEFAULT_PHI_SWEEP",
    "FIGURE5_ALGORITHMS",
    "FIGURE67_ALGORITHMS",
    "FigureSeries",
    "figure5_use_rate",
    "figure6_waiting_time",
    "figure7_waiting_by_size",
]

#: phi values swept by Figure 5 for M = 80 (the paper's x-axis spans 1..80).
DEFAULT_PHI_SWEEP: Sequence[int] = (1, 4, 8, 16, 24, 40, 60, 80)

#: Algorithms plotted in Figure 5 (all five curves).
FIGURE5_ALGORITHMS: Sequence[str] = tuple(ALGORITHMS)

#: Algorithms plotted in Figures 6 and 7 (the incremental algorithm is
#: omitted by the paper because its waiting time is off the chart).
FIGURE67_ALGORITHMS: Sequence[str] = ("bouabdallah", "without_loan", "with_loan")


@dataclass
class FigureSeries:
    """Raw data of one reproduced figure.

    ``series`` maps an algorithm name to a list of ``(x, y)`` points (or to
    richer tuples for Figure 7); ``results`` keeps the full per-run results
    for anyone who wants more detail than the figure shows.  Each result's
    request lifecycles are columnar
    (:class:`~repro.metrics.columns.RecordColumns`), so holding a whole
    sweep's worth of results stays cheap even for large grids; the figure
    numbers themselves come from ``result.metrics``, which is aggregated
    in-process at full double precision.
    """

    figure: str
    load: LoadLevel
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    errors: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    results: List[ExperimentResult] = field(default_factory=list)

    def series_for(self, algorithm: str) -> List[Tuple[float, float]]:
        """Points of one curve (empty list if the algorithm was not run)."""
        return self.series.get(algorithm, [])


def _submit(
    scenarios: Sequence[Scenario],
    workers: int,
    executor: Optional[SweepExecutor],
) -> List[ExperimentResult]:
    """Run the grid through the given executor (or a throwaway one)."""
    if executor is None:
        executor = SweepExecutor(workers=workers)
    return executor.run(scenarios)


def figure5_use_rate(
    load: LoadLevel = LoadLevel.MEDIUM,
    base_params: Optional[WorkloadParams] = None,
    phis: Sequence[int] = DEFAULT_PHI_SWEEP,
    algorithms: Sequence[str] = FIGURE5_ALGORITHMS,
    seeds: Sequence[int] = (1,),
    workers: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> FigureSeries:
    """Figure 5: resource-use rate as a function of the maximum request size.

    Returns one ``(phi, use_rate_percent)`` series per algorithm, averaged
    over ``seeds``.
    """
    params = base_params if base_params is not None else WorkloadParams()
    params = params.with_load(load)
    valid_phis = [phi for phi in phis if phi <= params.num_resources]
    out = FigureSeries(figure="figure5", load=load)
    if not algorithms or not valid_phis or not seeds:
        return out
    base = Scenario(algorithm=algorithms[0], params=params)
    grid = base.sweep(algorithm=algorithms, phi=valid_phis, seed=seeds)
    results = iter(_submit(grid, workers, executor))

    for algorithm in algorithms:
        points: List[Tuple[float, float]] = []
        for phi in valid_phis:
            rates = []
            for _seed in seeds:
                result = next(results)
                out.results.append(result)
                rates.append(result.use_rate)
            points.append((float(phi), sum(rates) / len(rates)))
        out.series[algorithm] = points
    return out


def figure6_waiting_time(
    load: LoadLevel = LoadLevel.MEDIUM,
    base_params: Optional[WorkloadParams] = None,
    algorithms: Sequence[str] = FIGURE67_ALGORITHMS,
    phi: int = 4,
    seeds: Sequence[int] = (1,),
    workers: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> FigureSeries:
    """Figure 6: average waiting time (and stddev) for small requests (phi=4).

    Each algorithm contributes a single bar: ``series[alg] = [(0, mean)]``
    and ``errors[alg] = [(0, stddev)]``.
    """
    params = base_params if base_params is not None else WorkloadParams()
    params = params.with_load(load).with_phi(phi)
    out = FigureSeries(figure="figure6", load=load)
    if not algorithms or not seeds:
        return out
    base = Scenario(algorithm=algorithms[0], params=params)
    grid = base.sweep(algorithm=algorithms, seed=seeds)
    results = iter(_submit(grid, workers, executor))

    for algorithm in algorithms:
        means, stds = [], []
        for _seed in seeds:
            result = next(results)
            out.results.append(result)
            means.append(result.metrics.waiting.mean)
            stds.append(result.metrics.waiting.stddev)
        out.series[algorithm] = [(0.0, sum(means) / len(means))]
        out.errors[algorithm] = [(0.0, sum(stds) / len(stds))]
    return out


def figure7_waiting_by_size(
    load: LoadLevel = LoadLevel.MEDIUM,
    base_params: Optional[WorkloadParams] = None,
    algorithms: Sequence[str] = FIGURE67_ALGORITHMS,
    phi: Optional[int] = None,
    size_buckets: Optional[Sequence[int]] = None,
    seeds: Sequence[int] = (1,),
    workers: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> FigureSeries:
    """Figure 7: average waiting time per request-size class at phi = M.

    ``series[alg]`` holds ``(bucket_size, mean_waiting_time)`` points and
    ``errors[alg]`` the matching standard deviations.
    """
    params = base_params if base_params is not None else WorkloadParams()
    phi_value = phi if phi is not None else params.num_resources
    params = params.with_load(load).with_phi(phi_value)
    buckets = list(size_buckets) if size_buckets is not None else list(FIGURE7_SIZE_BUCKETS)
    buckets = [b for b in buckets if b <= params.num_resources] or [params.num_resources]
    out = FigureSeries(figure="figure7", load=load)
    if not algorithms or not seeds:
        return out
    base = Scenario(algorithm=algorithms[0], params=params, size_buckets=tuple(buckets))
    grid = base.sweep(algorithm=algorithms, seed=seeds)
    results = iter(_submit(grid, workers, executor))

    for algorithm in algorithms:
        sums: Dict[int, List[float]] = {b: [] for b in buckets}
        devs: Dict[int, List[float]] = {b: [] for b in buckets}
        for _seed in seeds:
            result = next(results)
            out.results.append(result)
            for bucket, stats in result.metrics.waiting_by_size.items():
                if bucket in sums and stats.count:
                    sums[bucket].append(stats.mean)
                    devs[bucket].append(stats.stddev)
        out.series[algorithm] = [
            (float(b), sum(sums[b]) / len(sums[b])) for b in buckets if sums[b]
        ]
        out.errors[algorithm] = [
            (float(b), sum(devs[b]) / len(devs[b])) for b in buckets if devs[b]
        ]
    return out
