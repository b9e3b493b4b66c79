"""The core algorithm's resend net is idempotent under reliable links.

``repro.core.node`` calls the requester-side resend timer a "pure safety
net": a re-sent ``ReqCnt``/``ReqRes`` is de-duplicated by the token's
``lastReqC``/``lastCS`` vectors and by queue membership, so with no fault
layer it can cost messages but never change what the protocol decides.
Each case below runs one no-fault workload three times, with the net off
and re-sending every 5 ms and every 50 ms, and checks that:

* every request is issued, granted and released at the same instants
  (``record_columns.content_key()``) and waits the same
  (``metrics.waiting``);
* the 5 ms net really fires (``resend_count > 0``), so the equality is
  not vacuous;
* the net-off run sends fewer messages than either net-on run.

At 5 ms the net re-sends thousands of times per run (18 109 for seed 1 at
N=8/M=20/phi=20), far more than a lossy run ever needs.
"""

import pytest

from repro.core.config import CoreConfigSpec
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.workload.params import LoadLevel, WorkloadParams

SHAPES = [(8, 20, 20), (8, 20, 4), (10, 16, 8)]
INTERVALS = (None, 5.0, 50.0)


@pytest.mark.parametrize("enable_loan", [True, False], ids=["loan", "no_loan"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "N{}-M{}-phi{}".format(*s))
@pytest.mark.parametrize("seed", range(1, 6))
def test_resends_change_no_record(seed, shape, enable_loan):
    num_processes, num_resources, phi = shape
    params = WorkloadParams(
        num_processes=num_processes, num_resources=num_resources, phi=phi,
        load=LoadLevel.HIGH, duration=1500.0, warmup=150.0, seed=seed,
    )
    algorithm = "with_loan" if enable_loan else "without_loan"
    off, fast, slow = (
        run(
            Scenario(
                algorithm=algorithm,
                params=params,
                config=CoreConfigSpec(enable_loan=enable_loan, resend_interval=interval),
            )
        )
        for interval in INTERVALS
    )
    assert off.resend_count == 0
    assert fast.resend_count > 0
    for on in (fast, slow):
        assert on.record_columns.content_key() == off.record_columns.content_key()
        assert on.metrics.waiting == off.metrics.waiting
        assert off.metrics.messages_total < on.metrics.messages_total
