"""Small, dependency-free summary statistics helpers.

NumPy is available in the environment, but the metric vectors handled here
are short (thousands of floats at most) and keeping this module pure-Python
lets the core library stay free of hard numeric dependencies.

:func:`summarize` is column-oriented: handed an ``array('d')`` (as the
metrics collector now does) it streams over it directly — one pass for
count/sum/min/max, one for the deviation sum — without materialising
intermediate Python float lists; the only ordering cost is the single sort
backing the median.  The float arithmetic (left-to-right summation,
population variance around the exact mean) is unchanged from the original
list-based implementation, so results are bit-identical.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, List, Sequence


def _percentile_of_sorted(vals: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample."""
    if not vals:
        return 0.0
    if len(vals) == 1:
        return vals[0]
    pos = (len(vals) - 1) * (q / 100.0)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return vals[lo]
    frac = pos - lo
    return vals[lo] * (1.0 - frac) + vals[hi] * frac


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100]; 0.0 when empty."""
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    return _percentile_of_sorted(sorted(values), q)


@dataclass(frozen=True)
class SummaryStats:
    """Summary of a sample: count, mean, standard deviation, extrema, median."""

    count: int
    mean: float
    stddev: float
    minimum: float
    maximum: float
    median: float


def summarize(values: Iterable[float]) -> SummaryStats:
    """Build a :class:`SummaryStats` from a sample (all zeros when empty).

    Accepts any iterable; an ``array`` (or other sequence) column is
    consumed in place, anything else is packed into an ``array('d')``
    buffer first — never into a Python float list.
    """
    buf = values if isinstance(values, (array, list, tuple)) else array("d", values)
    n = len(buf)
    if n == 0:
        return SummaryStats(count=0, mean=0.0, stddev=0.0, minimum=0.0, maximum=0.0, median=0.0)
    total = 0.0
    minimum = maximum = buf[0]
    for v in buf:
        total += v
        if v < minimum:
            minimum = v
        elif v > maximum:
            maximum = v
    mu = total / n
    if n < 2:
        sd = 0.0
    else:
        deviation = 0.0
        for v in buf:
            deviation += (v - mu) ** 2
        sd = math.sqrt(deviation / n)
    return SummaryStats(
        count=n,
        mean=mu,
        stddev=sd,
        minimum=minimum,
        maximum=maximum,
        median=_percentile_of_sorted(sorted(buf), 50.0),
    )


__all__: List[str] = [
    "SummaryStats",
    "percentile",
    "summarize",
]
