"""Experiment harness.

Glues together workload generation, the algorithm implementations and the
metrics collector, and provides the sweep drivers that regenerate every
figure of the paper's evaluation (see DESIGN.md for the experiment index).
"""

from repro.experiments.driver import Client
from repro.experiments.registry import (
    ALGORITHMS,
    ALGORITHM_LABELS,
    TABLE,
    Algorithm,
    get_algorithm,
)
from repro.experiments.scenario import Scenario
from repro.experiments.runner import ExperimentResult, run
from repro.experiments.figures import (
    FigureSeries,
    figure5_use_rate,
    figure6_waiting_time,
    figure7_waiting_by_size,
)
from repro.experiments.report import format_figure5, format_figure6, format_figure7, format_table

__all__ = [
    "Client",
    "ALGORITHMS",
    "ALGORITHM_LABELS",
    "TABLE",
    "Algorithm",
    "get_algorithm",
    "Scenario",
    "ExperimentResult",
    "run",
    "FigureSeries",
    "figure5_use_rate",
    "figure6_waiting_time",
    "figure7_waiting_by_size",
    "format_table",
    "format_figure5",
    "format_figure6",
    "format_figure7",
]
