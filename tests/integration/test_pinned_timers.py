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
        1584,
        (('CounterEnvelope', 172), ('RequestEnvelope', 844), ('TokenEnvelope', 318)),
        '518b28866c2c2433c12b9fda41bc216c61990ed8dcb9eef99fe97d82254d436f',
        'eadf77311dc2eff7eda875b9b006e1e189f9beba93146d8f94b126c4b6285244',
        0,
        434.8690492295827,
        "Termination(reason='drained', last_grant=421.8269075003557, "
        "waiting=((0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (6, 1), (7, 1)), abandoned=1)",
    ),
    "with_loan-reqloss": (
        6104,
        (('CounterEnvelope', 645), ('RequestEnvelope', 3309), ('TokenEnvelope', 1180)),
        '8bd93b096a1df3e6b1a8177d1f0d76753a23d51449d0c6f521239556d3196780',
        '2f91ee2668fb9a998ea0d45a620cf88254c6cb7b853700ffaa42489005701c48',
        18,
        1533.0331207925317,
        "Termination(reason='drained', last_grant=1525.7095614682326, waiting=(), abandoned=0)",
    ),
    "with_loan-shortblip-hb": (
        5936,
        (('CounterEnvelope', 612), ('RequestEnvelope', 3209), ('TokenEnvelope', 1165)),
        'da7f449f58d0e6d8383cb0d81bb9d1076ce9160484d3ed18b71bf71d502b8c32',
        '4ac5cd4aaceeb8e72874df81088060d304ba3ec5e0b93a5f84390e99ab042e2e',
        0,
        1523.3870413352363,
        "Termination(reason='drained', last_grant=1506.3214860781168, waiting=(), abandoned=1)",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_matches_pin(name):
    assert timer_fingerprint(run(scenarios()[name])) == PINNED[name]


def test_every_scenario_of_the_grid_is_pinned():
    assert sorted(scenarios()) == sorted(PINNED)
