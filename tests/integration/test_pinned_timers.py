"""Pinned whole runs of every path that cancels a queued timer.

A timer is cancelled in three places: a loan-protocol node's resend
timer when it enters its critical section, a workload client's arrival
and critical-section timers when its node crashes, and the recovery
coordinator's detection timeout when the crashed node reboots before it
fires.  The grid below drives each of them through the run loop a fault
layer uses (bounded by ``until``), and adds the run where resend timers
fire instead (request loss).  A run that cancels the wrong event, or
fails to cancel one, changes its event count and its records here.

The runs are pinned on the default heap scheduler only:
``tests/sim/test_schedulers.py`` checks that the calendar queue executes
the same events in the same order.  ``tests/integration/test_pinned_runs.py``
pins the runs of longer outages (detected before the node reboots).
"""

import pytest

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faults import BernoulliLoss, NodeCrash
from repro.workload.params import LoadLevel, WorkloadParams

from tests.integration.test_pinned_runs import fingerprint

PARAMS = WorkloadParams(
    num_processes=8, num_resources=20, phi=4, seed=3,
    duration=1500.0, warmup=150.0, load=LoadLevel.HIGH,
)

#: Rebooted after 20 ms, before the 40 ms detection delay fires.
SHORT_BLIP = NodeCrash(node=2, at=300.0, recover_at=320.0)
REQUEST_LOSS = BernoulliLoss(p=0.005, seed=4, kinds=("RequestEnvelope",))


def scenarios():
    """The pinned grid, ``name -> Scenario``."""
    return {
        "with_loan-shortblip-hb": Scenario(
            "with_loan", PARAMS, faults=SHORT_BLIP, detector=HeartbeatDetector(10, 30),
            require_all_completed=False,
        ),
        "with_loan-reqloss": Scenario(
            "with_loan", PARAMS, faults=REQUEST_LOSS, require_all_completed=False,
        ),
        "with_loan-permanent-nodet": Scenario(
            "with_loan", PARAMS, faults=NodeCrash(node=5, at=400.0),
            require_all_completed=False,
        ),
    }


def timer_fingerprint(result):
    """:func:`fingerprint` plus how the run ended and when."""
    return fingerprint(result) + (
        result.resend_count,
        result.simulated_time,
        repr(result.termination),
    )


PINNED = {
    "with_loan-permanent-nodet": (
        2075,
        (('CounterEnvelope', 172), ('RequestEnvelope', 1212), ('TokenEnvelope', 318)),
        '518b28866c2c2433c12b9fda41bc216c61990ed8dcb9eef99fe97d82254d436f',
        'a6f23e4f956b2ee5500574c524e4ee2164a74cdeb688021ef62739d8099587a8',
        192,
        8435.00085651058,
        "Termination(reason='fault_cap', last_grant=421.8269075003557, "
        "waiting=((0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (6, 1), (7, 1)), abandoned=1)",
    ),
    "with_loan-reqloss": (
        2529,
        (('CounterEnvelope', 254), ('RequestEnvelope', 1346), ('TokenEnvelope', 500)),
        '2e0e60417d09797d8281648bd0425325ecefd62f1bd0bbcc1d63051eefd74723',
        '15b5cd77c7dc8019088d6297cc27395f813dbae8d21430f42e8f5c3a5294ce0f',
        7,
        1958.7388377682164,
        "Termination(reason='drained', last_grant=1944.217069597947, waiting=(), abandoned=0)",
    ),
    "with_loan-shortblip-hb": (
        5525,
        (('CounterEnvelope', 583), ('RequestEnvelope', 2945), ('TokenEnvelope', 1091)),
        'aa4f83eeb764b63d4c35e9bcc20a0ede2527dfcb5e0f5c4510c18e87e1b8f81d',
        'd9ffd6996c16d331e02b55e149fb2fb0b7c872d2bc634bb6a946c74afca06c3f',
        1,
        1522.3851213082708,
        "Termination(reason='drained', last_grant=1509.8873161712004, waiting=(), abandoned=1)",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_matches_pin(name):
    assert timer_fingerprint(run(scenarios()[name])) == PINNED[name]


def test_every_scenario_of_the_grid_is_pinned():
    assert sorted(scenarios()) == sorted(PINNED)
