"""Request-level pins of every workload spec's per-process streams.

Each pin is the SHA-256 of the ``repr`` of the first 200 ``RequestSpec``
objects of processes 0 and N-1, drawn through
``spec.build(params).stream_for(p)``.  The run pins in
``tests/integration/test_pinned_runs.py`` exercise the closed loop, both
arrival families and one trace; these pins add both load levels with
and without CS noise, and both SWF fixtures with and without
``max_jobs`` and ``time_scale``, so a refactor of the
workload layer that moves a single draw fails here, by name.
"""

import hashlib
import itertools
import os

import pytest

from repro.workload.arrivals import MarkovModulatedArrivals, PoissonArrivals
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import OpenLoopSpec, SyntheticSpec, TraceReplaySpec

HERE = os.path.dirname(__file__)
MINI = os.path.join(HERE, "data", "mini.swf")
SAMPLE = os.path.join(HERE, "..", "..", "examples", "data", "sample.swf")

#: Requests drawn per pinned process.
COUNT = 200


def _params(**changes):
    fields = dict(
        num_processes=6, num_resources=16, phi=5, duration=5_000.0, warmup=100.0, seed=7
    )
    return WorkloadParams(**{**fields, **changes})


HIGH = _params(load=LoadLevel.HIGH)
MEDIUM = _params(load=LoadLevel.MEDIUM)
#: Two processes, so both pinned streams of the five-job fixture are non-empty.
PAIR = _params(num_processes=2)

CASES = {
    "synthetic-high-noise0": (SyntheticSpec(), _params(load=LoadLevel.HIGH, cs_noise=0.0)),
    "synthetic-high-noise0.2": (SyntheticSpec(), HIGH),
    "synthetic-medium-noise0": (SyntheticSpec(), _params(load=LoadLevel.MEDIUM, cs_noise=0.0)),
    "synthetic-medium-noise0.2": (SyntheticSpec(), MEDIUM),
    "open-poisson": (OpenLoopSpec(PoissonArrivals()), MEDIUM),
    "open-mmpp": (OpenLoopSpec(MarkovModulatedArrivals(rate=0.05)), HIGH),
    "trace-sample": (TraceReplaySpec(SAMPLE), MEDIUM),
    "trace-sample-max_jobs": (TraceReplaySpec(SAMPLE, max_jobs=50), MEDIUM),
    "trace-sample-time_scale": (TraceReplaySpec(SAMPLE, time_scale=0.25), MEDIUM),
    "trace-sample-both": (TraceReplaySpec(SAMPLE, time_scale=3.0, max_jobs=131), HIGH),
    "trace-mini": (TraceReplaySpec(MINI), PAIR),
    "trace-mini-max_jobs": (TraceReplaySpec(MINI, max_jobs=4), PAIR),
    "trace-mini-time_scale": (TraceReplaySpec(MINI, time_scale=0.5), PAIR),
    "trace-mini-both": (TraceReplaySpec(MINI, time_scale=2.0, max_jobs=3), PAIR),
}

PINS = {
    "open-mmpp": "25292759889f418c11bd1e0e535b94996fd669c20780e14408d04410e4b19834",
    "open-poisson": "d37c00e45f25520d491b644245b627da3b35c1f66863fcb56f1b40360355860a",
    "synthetic-high-noise0": "93221f45b17e8733155fc78a729d73717119d3a80eadfaf0eced71844208b727",
    "synthetic-high-noise0.2": "78e886137b6fb8eaa1dc60462e406c8718d1377b3aac460f99a4a1f0b7bde480",
    "synthetic-medium-noise0": "3f7096d679d323af45e4aa25963b52b93a206d1dc448db2fc9c0d0896015fc73",
    "synthetic-medium-noise0.2": "2a029ac26fd2eaee81d3edd7ee0c30e2046ef9bc490ae713651f7da69478478a",
    "trace-mini": "859d0640ec210b0cb6204df5540902688b04797489bf7c0e96de0c3fcb69319c",
    "trace-mini-both": "2efea96a944a13c11b60759101f47ede14d4e7776d709202320e102288f0bafb",
    "trace-mini-max_jobs": "e68c9dae588b1aed88bf3361e786d19ecbccac36bb2c265006c0daacb3c199df",
    "trace-mini-time_scale": "bd79b8b0a57609b40271868cc2335f921e125200b6586b1b774f0c14c41ae37e",
    "trace-sample": "590754e3ebcbcd4b65e61f2808c7fdbe509a557d200fb6d5710259c5123b3856",
    "trace-sample-both": "ad9a050ccf24d7a0dd9a1ab4abc20a0b8bae1a83d46417982c64d68ae3ccab4b",
    "trace-sample-max_jobs": "da0d72013ab4782f4311338fe387414fcf6e1d0515a56bc2d92aaf42207dc171",
    "trace-sample-time_scale": "a9f90d02aa621a1089a8f945a4a5e32d32a916abe0e5ca6940e3737cc6ff0829",
}


def stream_digest(spec, params):
    """SHA-256 of the first ``COUNT`` requests of processes 0 and N-1."""
    workload = spec.build(params)
    drawn = [
        list(itertools.islice(workload.stream_for(process), COUNT))
        for process in (0, params.num_processes - 1)
    ]
    return hashlib.sha256(repr(drawn).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_pin(name):
    spec, params = CASES[name]
    assert stream_digest(spec, params) == PINS[name]
