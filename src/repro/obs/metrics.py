"""Metric primitives and the telemetry registry.

Three metric kinds, modelled on the Prometheus client data model:

* :class:`Counter` — monotonically non-decreasing total (events
  dispatched, messages sent, tokens regenerated);
* :class:`Gauge` — instantaneous value that may go up and down
  (scheduler backlog, per-node queue depth, token-wait age);
* :class:`Histogram` — bucketed distribution with ``sum`` and ``count``
  (request waiting times).

Every metric family may carry **labels** (``labels(type="ReqRes")``
returns the child series for that label combination), and the whole
registry renders to the Prometheus text exposition format with
:meth:`MetricsRegistry.render_text` — ``# HELP`` / ``# TYPE`` headers,
``_bucket``/``_sum``/``_count`` histogram series with cumulative ``le``
buckets, escaped label values.

The registry is an in-process, single-threaded structure: the simulator
is single-threaded, so no locking is needed, and all values are driven
by *simulated* time — a snapshot of the same scenario is bit-identical
whichever worker process produced it (the ``workers=N`` pickle
contract).  :meth:`MetricsRegistry.snapshot` freezes the current state
into a picklable :class:`TelemetrySnapshot` of plain tuples for exactly
that transport.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.health import HealthReport

__all__ = [
    "Counter",
    "DEFAULT_WAIT_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "TelemetrySnapshot",
]

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: Default waiting-time histogram boundaries, in simulated milliseconds
#: (the paper's time unit): sub-CS waits up to multi-round-trip stalls.
DEFAULT_WAIT_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)

#: Label-values key of an unlabelled metric's single series.
_BARE: Tuple[str, ...] = ()


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


class _MetricFamily:
    """Shared machinery of the three metric kinds: naming and labels.

    A family created with ``labelnames`` owns one child series per label
    combination (:meth:`labels`); a family created without labels *is*
    its single series and exposes the value API directly.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        if len(set(labelnames)) != len(labelnames):
            raise ValueError(f"duplicate label names on metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], "_MetricFamily"] = {}
        if not self.labelnames:
            self._children[_BARE] = self

    def labels(self, **labelvalues: object) -> "_MetricFamily":
        """Return (creating if needed) the child series for these labels."""
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} has no labels")
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self) -> "_MetricFamily":
        child = type(self).__new__(type(self))
        child.name = self.name
        child.help = self.help
        child.labelnames = ()
        child._children = {_BARE: child}
        child._init_value()
        return child

    def _init_value(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _series(self) -> List[Tuple[Tuple[Tuple[str, str], ...], "_MetricFamily"]]:
        """Children as ``(label pairs, series)``, sorted by label values."""
        return [
            (tuple(zip(self.labelnames, key)), child)
            for key, child in sorted(self._children.items())
        ]


class Counter(_MetricFamily):
    """Monotonically non-decreasing total.

    ``inc`` rejects negative amounts — monotonicity is the counter
    contract (rates computed from a counter that went backwards are
    garbage), pinned by ``tests/obs/test_metrics.py``.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._init_value()

    def _init_value(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} is labelled; use .labels(...).inc()")
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount!r})")
        self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value


class Gauge(_MetricFamily):
    """Instantaneous value that can move in both directions."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._init_value()

    def _init_value(self) -> None:
        self._value = 0.0

    def _check_bare(self) -> None:
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} is labelled; use .labels(...)")

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._check_bare()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self._check_bare()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self._check_bare()
        self._value -= amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Histogram(_MetricFamily):
    """Bucketed distribution with ``sum`` and ``count``.

    ``buckets`` are the finite upper bounds, strictly increasing; the
    implicit ``+Inf`` bucket is always present.  ``le`` is inclusive
    (a value equal to a bound lands in that bound's bucket), matching
    the Prometheus definition.  Exposition renders buckets cumulatively.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_WAIT_BUCKETS_MS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} buckets must be strictly increasing")
        if any(math.isnan(b) or math.isinf(b) for b in bounds):
            raise ValueError(f"histogram {name!r} buckets must be finite (+Inf is implicit)")
        self.buckets = bounds
        super().__init__(name, help, labelnames)
        self._init_value()

    def _make_child(self) -> "Histogram":
        child = type(self).__new__(type(self))
        child.name = self.name
        child.help = self.help
        child.labelnames = ()
        child.buckets = self.buckets  # set before _init_value sizes the counts
        child._children = {_BARE: child}
        child._init_value()
        return child

    def _init_value(self) -> None:
        # Per-bucket *non-cumulative* hit counts; the last slot is +Inf.
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def labels(self, **labelvalues: object) -> "Histogram":
        """Return the child histogram for these labels (shares buckets)."""
        return super().labels(**labelvalues)  # type: ignore[return-value]

    def observe(self, value: float) -> None:
        """Record one observation."""
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} is labelled; use .labels(...).observe()")
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # first bound >= value (bisect on the bounds)
            mid = (lo + hi) // 2
            if self.buckets[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self._bucket_counts[lo] += 1
        self._sum += value
        self._count += 1

    @property
    def sum_value(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def count_value(self) -> int:
        """Number of observations."""
        return self._count

    def cumulative_counts(self) -> Tuple[int, ...]:
        """Cumulative per-bucket counts, ending with the ``+Inf`` total."""
        out: List[int] = []
        running = 0
        for hits in self._bucket_counts:
            running += hits
            out.append(running)
        return tuple(out)


MetricLike = Union[Counter, Gauge, Histogram]

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


class MetricsRegistry:
    """Ordered collection of metric families with get-or-create accessors.

    Registration is idempotent: asking twice for the same name with the
    same kind returns the same family (so instrumentation sites never
    need to coordinate), while re-registering a name as a different kind
    raises — one name, one type, as in Prometheus.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, MetricLike] = {}

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs: object) -> MetricLike:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"cannot re-register as {cls.kind}"  # type: ignore[attr-defined]
                )
            return existing
        metric = cls(name, help, **kwargs)  # type: ignore[arg-type]
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labelnames=labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labelnames=labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_WAIT_BUCKETS_MS,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(
            Histogram, name, help, labelnames=labelnames, buckets=buckets
        )  # type: ignore[return-value]

    def collect(self) -> Tuple[MetricSample, ...]:
        """Freeze every family into :class:`MetricSample` tuples."""
        samples: List[MetricSample] = []
        for name, metric in self._metrics.items():
            series: List[Tuple[Tuple[Tuple[str, str], ...], SeriesValue]] = []
            for pairs, child in metric._series():
                if isinstance(child, Histogram):
                    series.append(
                        (pairs, (child.cumulative_counts(), child._sum, child._count))
                    )
                else:
                    series.append((pairs, child._value))
            samples.append(
                MetricSample(
                    name=name,
                    kind=metric.kind,
                    help=metric.help,
                    series=tuple(series),
                    buckets=metric.buckets if isinstance(metric, Histogram) else None,
                )
            )
        return tuple(samples)

    def render_text(self) -> str:
        """Prometheus text exposition of the registry's current state."""
        return render_samples(self.collect())
