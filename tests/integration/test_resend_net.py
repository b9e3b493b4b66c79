"""The core algorithm's resend net: unarmed on reliable links, armed where messages can be lost.

``CoreConfigSpec.resend_interval`` is the loss-recovery interval of the
requester-side resend timer (see ``repro.core.node``).  A run whose
network has no fault layer loses no message, so the algorithm's builder
leaves the net unarmed whatever interval the config names: every
interval gives the same run, with no resend.

Where the net is armed, a re-sent ``ReqCnt``/``ReqRes`` is mostly
de-duplicated by the token's ``lastReqC``/``lastCS`` vectors and by queue
membership, but not always: a re-sent request can change what the
protocol decides.  ``test_armed_net_changes_no_record`` asserts that it
should not, and is a strict xfail on a run where it does.  Each
idempotence case below arms the net with a crash that never fires
(``NodeCrash(node=0, at=1e9)``, as the lifecycle benchmark does), runs
one workload with the net off and re-sending every 5 ms and every 50 ms,
and checks that:

* every request is issued, granted and released at the same instants
  (``record_columns.content_key()``) and waits the same
  (``metrics.waiting``);
* the 5 ms net really fires (``resend_count > 0``), so the equality is
  not vacuous;
* the net-off run sends fewer messages than either net-on run.

At 5 ms the net re-sends thousands of times per run, far more than a
lossy run ever needs.
"""

import pytest

from repro.core.config import DEFAULT_RESEND_INTERVAL, CoreConfigSpec
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.faults import NodeCrash
from repro.workload.arrivals import PoissonArrivals
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import OpenLoopSpec

SHAPES = [(8, 20, 20), (8, 20, 4), (10, 16, 8)]
INTERVALS = (None, 5.0, 50.0)

#: A fault layer whose one crash lies past every run's horizon: it arms
#: the net and changes nothing else.
NEVER_FIRES = NodeCrash(node=0, at=1e9)


def _params(seed, shape):
    num_processes, num_resources, phi = shape
    return WorkloadParams(
        num_processes=num_processes, num_resources=num_resources, phi=phi,
        load=LoadLevel.HIGH, duration=1500.0, warmup=150.0, seed=seed,
    )


def _closed_loop(shape, enable_loan):
    def scenario(interval):
        return Scenario(
            algorithm="with_loan" if enable_loan else "without_loan",
            params=_params(1, shape),
            config=CoreConfigSpec(enable_loan=enable_loan, resend_interval=interval),
        )

    return scenario


def _open_loop_overload(interval):
    """Regression: a 5 ms net once re-sent this run past its event cap.

    With the net armed on reliable links, the 500 ms default sent 35 920
    messages (1 538 resends) for the 4 003 the protocol needs, and 5 ms
    raised ``SimulationError: max_events=200000 exceeded``.
    """
    return Scenario(
        algorithm="without_loan",
        params=WorkloadParams(
            num_processes=32, num_resources=1, phi=1, load=LoadLevel.LOW,
            duration=3000.0, warmup=50.0, seed=348118,
        ),
        workload=OpenLoopSpec(PoissonArrivals(rate=0.01)),
        config=CoreConfigSpec(
            enable_loan=False, policy="sum", initial_holder=8, resend_interval=interval,
        ),
    )


RELIABLE = [
    pytest.param(_closed_loop(shape, enable_loan), None, id="{}-N{}-M{}-phi{}".format(
        "loan" if enable_loan else "no_loan", *shape))
    for shape in SHAPES
    for enable_loan in (True, False)
] + [pytest.param(_open_loop_overload, 4003, id="open_loop-N32-M1-overload")]


@pytest.mark.parametrize("scenario, messages", RELIABLE)
def test_reliable_network_leaves_the_net_unarmed(scenario, messages):
    results = [run(scenario(interval)) for interval in INTERVALS + (DEFAULT_RESEND_INTERVAL,)]
    off = results[0]
    if messages is not None:
        assert off.metrics.messages_total == messages
    for result in results:
        assert result.termination.reason == "drained"
        assert result.resend_count == 0
        assert result.metrics.messages_total == off.metrics.messages_total
        assert result.events_processed == off.events_processed
        assert result.record_columns.content_key() == off.record_columns.content_key()


@pytest.mark.parametrize("enable_loan", [True, False], ids=["loan", "no_loan"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "N{}-M{}-phi{}".format(*s))
@pytest.mark.parametrize("seed", range(1, 6))
def test_resends_change_no_record(seed, shape, enable_loan):
    algorithm = "with_loan" if enable_loan else "without_loan"
    off, fast, slow = (
        run(
            Scenario(
                algorithm=algorithm,
                params=_params(seed, shape),
                config=CoreConfigSpec(enable_loan=enable_loan, resend_interval=interval),
                faults=NEVER_FIRES,
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


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a 5 ms net re-sends on this run and moves its grants",
)
def test_armed_net_changes_no_record():
    """Found by a randomized grid: N=32/M=3/phi=1, LOW, seed 413077."""
    params = WorkloadParams(
        num_processes=32, num_resources=3, phi=1, load=LoadLevel.LOW,
        duration=3000.0, seed=413077,
    )
    off, fast = (
        run(
            Scenario(
                algorithm="without_loan",
                params=params,
                config=CoreConfigSpec(
                    enable_loan=False, policy="sum", initial_holder=2,
                    resend_interval=interval,
                ),
                faults=NEVER_FIRES,
            )
        )
        for interval in (None, 5.0)
    )
    assert fast.record_columns.content_key() == off.record_columns.content_key()
