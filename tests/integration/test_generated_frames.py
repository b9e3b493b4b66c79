"""Per-message records run no generated constructor.

Dataclass ``__init__`` methods and namedtuple ``__new__`` methods are
compiled from strings, so their frames carry the file name ``<string>``
(``scripts/count_work.py`` groups them as ``generated``).  A token copy
or a request record built through one costs a Python frame per message;
built positionally (``object.__new__`` plus the slot stores, or
``tuple.__new__``) it costs none.  So the generated frames of a no-fault
run are a fixed set-up cost: doubling the run's duration, which roughly
doubles its messages, must not change their count.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.workload.params import WorkloadParams


def generated_calls(count_work, algorithm: str, duration: float) -> dict:
    """``(name, caller's file) -> calls`` of generated code in one warmed run."""
    scenario = Scenario(
        algorithm=algorithm,
        params=WorkloadParams(
            num_processes=10, num_resources=24, phi=4, duration=duration, warmup=200.0, seed=1,
        ),
    )
    run(scenario)
    _result, calls = count_work.count_calls(run, scenario)
    counts: dict = {}
    for (file, _line, name, caller), n in calls.items():
        if file.startswith("<"):
            counts[name, caller] = counts.get((name, caller), 0) + n
    return counts


@pytest.mark.parametrize("algorithm", ["incremental", "bouabdallah", "without_loan", "with_loan"])
def test_generated_frames_do_not_grow_with_the_run(count_work, algorithm):
    short = generated_calls(count_work, algorithm, 750.0)
    long = generated_calls(count_work, algorithm, 1_500.0)
    assert {key: (n, long.get(key, 0)) for key, n in short.items() if long.get(key) != n} == {}
    assert set(long) == set(short)
