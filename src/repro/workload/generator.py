"""Requests and the request shape of Section 5.1.

A request asks for ``x`` resources, ``x`` drawn uniformly from
``{1, ..., phi}``, and holds them for a critical section whose duration
grows with ``x`` (Section 5.1 of the paper).  The workload specs of
:mod:`repro.workload.spec` draw their streams of :class:`RequestSpec`
records with :func:`request_shapes` and :func:`sample_ids`; the driver
in :mod:`repro.experiments.driver` turns them into protocol calls.

Draw for draw
-------------
The seeded streams are part of every pinned result, so the draws here
are CPython 3.11's ``Random.randint(1, phi)``, ``Random.sample(range(M),
k)`` and ``Random.uniform(lo, hi)``, spelled out over the stream's public
``getrandbits`` and ``random``: the same calls with the same arguments in
the same order, without the three Python frames of ``randint`` and the
one per draw of ``sample``'s ``_randbelow``.  ``tests/workload/
test_generator.py`` checks them against ``random`` itself on every
``(n, k)`` up to 128, so an interpreter whose ``random`` draws
differently fails there, by name, before any stream pin moves.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, FrozenSet, Iterator, List, Tuple

from repro.sim.node import Record
from repro.workload.params import WorkloadParams, cs_duration_for_size

_tuple_new = tuple.__new__


class RequestSpec(
    Record, namedtuple("RequestSpec", "process index resources cs_duration think_time")
):
    """One critical-section request produced by the workload.

    A tuple-backed :class:`~repro.sim.node.Record`: the synthetic and
    open-loop streams build it with ``tuple.__new__`` (their draws meet
    the checks below by construction), and this validating constructor
    serves every other caller.

    Attributes
    ----------
    process:
        Id of the issuing process.
    index:
        Sequence number of the request at that process (0-based).
    resources:
        Identifiers of the requested resources (non-empty, distinct).
    cs_duration:
        Time the process will spend in critical section once granted.
    think_time:
        Idle time the process waits *before* issuing this request.
    """

    __slots__ = ()

    process: int
    index: int
    resources: FrozenSet[int]
    cs_duration: float
    think_time: float

    def __new__(
        cls,
        process: int,
        index: int,
        resources: FrozenSet[int],
        cs_duration: float,
        think_time: float,
    ) -> "RequestSpec":
        if not resources:
            raise ValueError("a request must ask for at least one resource")
        if cs_duration <= 0:
            raise ValueError("cs_duration must be positive")
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        return _tuple_new(cls, (process, index, resources, cs_duration, think_time))


def sample_ids(getrandbits: Callable[[int], int], n: int, k: int) -> FrozenSet[int]:
    """``frozenset(rng.sample(range(n), k))`` drawn through ``rng.getrandbits``.

    CPython 3.11 picks by the pool method when an ``n``-list is smaller
    than a ``k``-set (``n <= 21 + 4**ceil(log(3k, 4))`` for ``k > 5``,
    ``n <= 21`` otherwise) and by rejecting repeats otherwise; each
    ``_randbelow(m)`` redraws ``getrandbits(m.bit_length())`` until it is
    below ``m``.  The ids enter the set in selection order, so its
    iteration order is the one ``sample``'s list gives it too.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    picked: List[int] = []
    if n <= setsize:
        pool = list(range(n))
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.append(j)
    return frozenset(picked)


def cs_means(params: WorkloadParams) -> List[float]:
    """Mean CS duration by request size: entry ``x`` for ``x`` in ``1..phi`` (0 unused)."""
    return [0.0] + [
        cs_duration_for_size(size, params.num_resources, params.alpha_min, params.alpha_max)
        for size in range(1, params.phi + 1)
    ]


def request_shapes(
    params: WorkloadParams, size_rng, pick_rng, cs_rng
) -> Iterator[Tuple[FrozenSet[int], float]]:
    """Endless ``(resources, cs_duration)`` request shapes (Section 5.1).

    Size uniform in ``{1..phi}``, resources sampled without replacement,
    CS duration interpolated by size with multiplicative noise.  The draw
    order (size, pick, noise) is part of the reproducibility contract:
    the closed-loop stream and every open-loop stream share this exact
    sequence per request, so the request *shape* distribution is held
    fixed while the arrival process varies.
    """
    phi = params.phi
    phi_bits = phi.bit_length()
    num_resources = params.num_resources
    size_bits = size_rng.getrandbits
    pick_bits = pick_rng.getrandbits
    means = cs_means(params)
    noise = params.cs_noise
    lo = 1.0 - noise
    span = (1.0 + noise) - lo
    cs_random = cs_rng.random
    while True:
        size = size_bits(phi_bits)
        while size >= phi:
            size = size_bits(phi_bits)
        size += 1
        resources = sample_ids(pick_bits, num_resources, size)
        factor = lo + span * cs_random() if noise > 0 else 1.0
        yield resources, max(means[size] * factor, 1e-6)
