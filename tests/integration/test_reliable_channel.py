"""Loss becomes delay: under Bernoulli loss every networked algorithm drains.

The network re-sends a lost try ``RTO`` later, so a protocol sees the
reliable FIFO links of Section 3.1 however lossy the fault layer is; it
pays only the retransmission delay (ROADMAP item 2's acceptance: drain,
with goodput within 20 % of the no-fault twin).  A sure loss
(``p == 1``) loses every message for good, and the run still returns.
"""

import pytest

from repro.experiments.registry import ALGORITHMS, get_algorithm
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.faultspec import BernoulliLoss
from repro.workload.params import LoadLevel, WorkloadParams

NETWORKED = [name for name in ALGORITHMS if get_algorithm(name).needs_network]


def _params(seed):
    return WorkloadParams(
        num_processes=10, num_resources=16, phi=8, duration=3_000.0, warmup=150.0,
        load=LoadLevel.HIGH, seed=seed,
    )


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("algorithm", NETWORKED)
def test_lossy_run_drains_near_its_twin(algorithm, seed):
    lossy = run(Scenario(algorithm, _params(seed), faults=BernoulliLoss(p=0.02)))
    twin = run(Scenario(algorithm, _params(seed)))
    end = lossy.termination
    assert (end.reason, end.waiting, end.abandoned) == ("drained", (), 0)
    assert lossy.messages_dropped == lossy.resend_count > 0
    assert lossy.metrics.completed >= 0.8 * twin.metrics.completed


@pytest.mark.parametrize("algorithm", NETWORKED)
def test_sure_loss_run_returns(algorithm):
    """Nothing sent arrives; the run ends instead of re-sending forever."""
    result = run(
        Scenario(
            algorithm, _params(1), faults=BernoulliLoss(p=1.0), require_all_completed=False
        )
    )
    assert result.termination.reason == "drained"
    assert result.termination.waiting
    assert result.messages_dropped == result.metrics.messages_total > 0
    assert result.resend_count == 0
