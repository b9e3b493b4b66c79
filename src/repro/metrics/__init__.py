"""Metrics collection and reporting.

Implements the two metrics of the paper's evaluation (Section 5):

* **resource-use rate** — percentage of time resources are in use over the
  measured window (Figure 4 illustrates the definition, Figure 5 reports
  it),
* **average waiting time** — time between issuing a request and obtaining
  the right to use all requested resources (Figures 6 and 7),

plus message-complexity accounting and ASCII Gantt rendering used by the
examples to reproduce the content of Figures 1 and 4.
"""

from repro.metrics.collector import MetricsCollector, RequestRecord, RunMetrics, SafetyViolation
from repro.metrics.columns import RecordColumns
from repro.metrics.gantt import GanttChart, render_gantt
from repro.metrics.stats import SummaryStats, percentile, summarize

__all__ = [
    "MetricsCollector",
    "RecordColumns",
    "RequestRecord",
    "RunMetrics",
    "SafetyViolation",
    "GanttChart",
    "render_gantt",
    "SummaryStats",
    "percentile",
    "summarize",
]
