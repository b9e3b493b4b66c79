"""Host-time measurement: calibration spin, normalisation, summaries.

Wall-clock seconds on a shared machine drift by 10-20 % between
invocations.  Every host-timed repeat is therefore bracketed by
:func:`spin` — a fixed pure-Python loop made of the interpreter
operations the simulator itself is made of (slot-object method calls,
dict stores, ``heapq`` push/pop) — and reported as
``raw_s * SPIN_REF_S / mean(spin_before, spin_after)``: seconds "at
reference interpreter speed".  This cancels machine speed, not cache
contention from a noisy neighbour.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import Dict, Sequence

#: Seconds :func:`spin` takes on the reference machine (the 2-core
#: container the baseline in ``baseline/`` was recorded on).  Only a unit
#: choice: it makes normalised seconds read like raw seconds there.
SPIN_REF_S = 0.300

#: Loop count of one calibration spin (about SPIN_REF_S on the reference).
SPIN_ITERATIONS = 375_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, delta: int) -> int:
        self.value += delta
        return self.value


def spin(scale: float = 1.0) -> float:
    """Run the calibration loop; return its wall-clock seconds.

    ``scale`` < 1 (smoke runs) loops that share of the iterations and
    returns the seconds the full loop would have taken at that rate.
    """
    iterations = max(1, int(SPIN_ITERATIONS * scale))
    cell = _Cell()
    table: Dict[int, int] = {}
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    start = perf_counter()
    for i in range(iterations):
        table[cell.bump(i) & 1023] = i
        push(heap, (float((i * 7919) % 1013), i))
        if len(heap) > 256:
            pop(heap)
    return (perf_counter() - start) * SPIN_ITERATIONS / iterations


def normalise(raw_s: float, spin_before: float, spin_after: float) -> float:
    """Seconds at reference interpreter speed (see the module docstring)."""
    return raw_s * SPIN_REF_S / ((spin_before + spin_after) / 2.0)


def summarise(samples: Sequence[float]) -> dict:
    """Median, min, IQR and count of ``samples`` (IQR is 0 below 2 samples)."""
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "median": statistics.median(values),
        "min": min(values),
        "iqr": iqr,
        "n": len(values),
    }
