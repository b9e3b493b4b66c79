"""Frozen telemetry records and their Prometheus text exposition.

A run's telemetry is a :class:`TelemetrySnapshot`: one
:class:`MetricSample` per metric family plus the run's health reports,
all plain tuples of primitives.  Three metric kinds follow the
Prometheus data model — ``counter`` (a monotone total), ``gauge`` (an
instantaneous value) and ``histogram`` (cumulative ``le`` bucket counts
with ``sum`` and ``count``) — and :func:`render_samples` writes them in
the text exposition format: ``# HELP`` / ``# TYPE`` headers,
``_bucket``/``_sum``/``_count`` histogram series, escaped label values.

Every value is driven by *simulated* time, so the snapshot of a scenario
is bit-identical whichever worker process produced it (the
``workers=N`` pickle contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.obs.health import HealthReport

__all__ = [
    "DEFAULT_WAIT_BUCKETS_MS",
    "MetricSample",
    "TelemetrySnapshot",
    "render_samples",
]

#: Default waiting-time histogram boundaries, in simulated milliseconds
#: (the paper's time unit): sub-CS waits up to multi-round-trip stalls.
DEFAULT_WAIT_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


def _format_value(value: float) -> str:
    """Exposition-format number: integral values render without a dot."""
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` line: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    """Escape a label value: backslash, double quote and newline."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    """``{a="x",b="y"}`` (empty string for an unlabelled series)."""
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in pairs)
    return "{" + inner + "}"


#: Structured value of one series inside a :class:`MetricSample`: a plain
#: number for counters/gauges, ``(cumulative buckets, sum, count)`` for
#: histograms.
SeriesValue = Union[float, Tuple[Tuple[int, ...], float, int]]


@dataclass(frozen=True)
class MetricSample:
    """Frozen state of one metric family at snapshot time."""

    name: str
    kind: str
    help: str
    #: ``((label pairs, value), ...)`` — label pairs are ``(name, value)``
    #: tuples sorted by label values; see :data:`SeriesValue`.
    series: Tuple[Tuple[Tuple[Tuple[str, str], ...], SeriesValue], ...]
    #: Histogram bucket bounds (``None`` for counters/gauges).
    buckets: Optional[Tuple[float, ...]] = None


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Picklable end-of-run telemetry: metric samples plus health reports.

    Built by :meth:`TelemetryRuntime.finalize
    <repro.obs.runtime.TelemetryRuntime.finalize>` and shipped on
    :attr:`repro.experiments.runner.ExperimentResult.telemetry`.  Made of
    plain tuples of primitives, so its pickle is deterministic: a
    ``workers=N`` sweep ships snapshots bit-identical to the ``workers=1``
    reference (pinned in ``tests/obs/test_pipeline.py``).
    """

    samples: Tuple[MetricSample, ...]
    health: Tuple[HealthReport, ...] = ()

    def render_text(self) -> str:
        """Render the snapshot in the Prometheus text exposition format."""
        return render_samples(self.samples)

    def sample(self, name: str) -> MetricSample:
        """Return the sample of metric family ``name`` (KeyError if absent)."""
        for sample in self.samples:
            if sample.name == name:
                return sample
        raise KeyError(name)

    def value(self, name: str, **labelvalues: object) -> SeriesValue:
        """Value of one series: ``snapshot.value("repro_messages_sent_total", type="ReqRes")``."""
        sample = self.sample(name)
        wanted = {k: str(v) for k, v in labelvalues.items()}
        for pairs, value in sample.series:
            if dict(pairs) == wanted:
                return value
        raise KeyError(f"{name} has no series with labels {wanted!r}")


def render_samples(samples: Sequence[MetricSample]) -> str:
    """Prometheus text exposition of frozen metric samples."""
    lines: List[str] = []
    for sample in samples:
        lines.append(f"# HELP {sample.name} {_escape_help(sample.help)}")
        lines.append(f"# TYPE {sample.name} {sample.kind}")
        for pairs, value in sample.series:
            if sample.kind == "histogram":
                cumulative, total, count = value  # type: ignore[misc]
                bounds = [_format_value(b) for b in (sample.buckets or ())] + ["+Inf"]
                for bound, running in zip(bounds, cumulative):
                    le_pairs = tuple(pairs) + (("le", bound),)
                    lines.append(
                        f"{sample.name}_bucket{_render_labels(le_pairs)} {running}"
                    )
                lines.append(f"{sample.name}_sum{_render_labels(pairs)} {_format_value(total)}")
                lines.append(f"{sample.name}_count{_render_labels(pairs)} {count}")
            else:
                lines.append(
                    f"{sample.name}{_render_labels(pairs)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""
