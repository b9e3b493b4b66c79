"""Reproducers of ROADMAP items 1, 2 and 16, pinned with ``result.termination``.

"Pin, then fix".  Every case asserts the behaviour the protocol owes —
the run drains and no live node is left waiting.  A case that still
fails is marked ``xfail(strict=True, raises=...)`` with the way it fails
today, so tier-1 stays green and it flips loudly (XPASS is an error) the
day its defect is fixed; what it does on HEAD is in its id.  The loss
cases pass unmarked: the network re-sends every lost try, so loss is
delay and the protocol sees the reliable links of Section 3.1.

Items 1 and 2: ``with_loan``, high load, duration 3 000, warm-up 150.
Item 16's cases and item 1's undetected short blips say their own
setting.
"""

import pytest

from repro.allocator import AllocatorError
from repro.experiments import Scenario, run
from repro.metrics.collector import SafetyViolation
from repro.mutex.naimi_trehel import MutexError
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faultspec import BernoulliLoss, NodeCrash
from repro.sim.latencyspec import UniformJitterLatencySpec
from repro.workload.params import LoadLevel, WorkloadParams

DETECTOR = HeartbeatDetector(interval=10.0, timeout=30.0)


def known(raises, *values, today):
    return pytest.param(
        *values, id=today, marks=pytest.mark.xfail(strict=True, raises=raises, reason=today)
    )


def scenario(n, m, phi, seed, **axes):
    params = WorkloadParams(
        num_processes=n, num_resources=m, phi=phi, duration=3_000.0, warmup=150.0,
        load=LoadLevel.HIGH, seed=seed,
    )
    return Scenario(algorithm="with_loan", params=params, require_all_completed=False, **axes)


def assert_finished(result):
    end = result.termination
    assert end.reason == "drained" and end.waiting == (), end.progress()


@pytest.mark.parametrize(
    "n, m, phi, seed",
    [
        known(AllocatorError, 10, 16, 8, 33, today="10-16-8 seed 33: sends a token it does not own"),
        known(SafetyViolation, 10, 16, 8, 70, today="10-16-8 seed 70: double grant"),
        known(AssertionError, 10, 16, 8, 9, today="10-16-8 seed 9: drained, 1 survivor waiting"),
        known(AssertionError, 10, 16, 8, 57, today="10-16-8 seed 57: drained, 1 survivor waiting"),
        known(AssertionError, 10, 16, 8, 98, today="10-16-8 seed 98: drained, 1 survivor waiting"),
        known(AssertionError, 10, 16, 8, 32, today="10-16-8 seed 32: drained, 6 survivors waiting"),
        known(AllocatorError, 8, 12, 4, 5, today="8-12-4 seed 5: sends a token it does not own"),
        known(AssertionError, 8, 12, 4, 117, today="8-12-4 seed 117: drained, 3 survivors waiting"),
        known(AssertionError, 8, 12, 6, 59, today="8-12-6 seed 59: drained, 3 survivors waiting"),
        known(AssertionError, 8, 12, 6, 66, today="8-12-6 seed 66: drained, 1 survivor waiting"),
    ],
)
def test_detected_permanent_crash_recovers(n, m, phi, seed):
    """ROADMAP item 1: node 2 dies at t=300 under jittered latency."""
    result = run(
        scenario(
            n, m, phi, seed,
            faults=NodeCrash(node=2, at=300.0),
            detector=DETECTOR,
            latency=UniformJitterLatencySpec(jitter=0.4),
        )
    )
    assert_finished(result)
    assert result.termination.abandoned <= 1  # only what died with node 2


@pytest.mark.parametrize(
    "seed",
    [
        known(SafetyViolation, 7, today="seed 7: double grant"),
        known(SafetyViolation, 15, today="seed 15: double grant"),
    ],
)
def test_detected_blip_recovers(seed):
    """ROADMAP item 1: node 2 is down for 160 ms, constant latency."""
    result = run(
        scenario(
            10, 16, 8, seed,
            faults=NodeCrash(node=2, at=500.0, recover_at=660.0),
            detector=DETECTOR,
        )
    )
    assert_finished(result)


@pytest.mark.parametrize(
    "kind, seed",
    [
        pytest.param("RequestEnvelope", 1, id="requests seed 1: drains (22 drops)"),
        pytest.param("RequestEnvelope", 2, id="requests seed 2: drains (21 drops)"),
        pytest.param("CounterEnvelope", 1, id="counters seed 1: drains (9 drops)"),
        pytest.param("CounterEnvelope", 2, id="counters seed 2: drains (9 drops)"),
        pytest.param("TokenEnvelope", 1, id="tokens seed 1: drains (8 drops)"),
        pytest.param("TokenEnvelope", 2, id="tokens seed 2: drains (8 drops)"),
    ],
)
def test_loss_of_one_message_class_converges(kind, seed):
    """ROADMAP item 2: 0.5 % Bernoulli loss of one message class."""
    result = run(scenario(10, 16, 8, seed, faults=BernoulliLoss(p=0.005, kinds=(kind,))))
    assert result.messages_dropped == result.resend_count > 0
    assert_finished(result)
    assert result.termination.abandoned == 0


@pytest.mark.parametrize(
    "p",
    [
        # With a requester-side resend net instead of the channel, these
        # two runs granted resource 23 to process 5 at t=276.99 while
        # process 10 held it, and sent token 65 from a node that did not
        # own it.
        pytest.param(0.005, id="p=0.005: drains, no double grant"),
        pytest.param(0.01, id="p=0.01: drains, tokens sent only by their owners"),
    ],
)
def test_loss_of_requests_and_counters_stays_safe(p):
    """ROADMAP item 2: requests and counters lost together, N=32/M=80/phi=8, seed 6."""
    kinds = ("RequestEnvelope", "CounterEnvelope")
    result = run(scenario(32, 80, 8, 6, faults=BernoulliLoss(p=p, kinds=kinds)))
    assert result.messages_dropped > 0
    assert_finished(result)


@pytest.mark.parametrize(
    "n, m, phi, jitter, seed",
    [
        pytest.param(8, 20, 4, 0.95, 1, id="8-20-4 j=0.95 seed 1: drains (all 8 waited)"),
        pytest.param(8, 20, 4, 0.95, 4, id="8-20-4 j=0.95 seed 4: drains (all 8 waited)"),
        pytest.param(
            8, 20, 4, 0.95, 30,
            id="8-20-4 j=0.95 seed 30: drains (registered as latest requester "
            "of 14 without its token)",
        ),
        # A later registrant's INQUIRE overtakes the one an owed token
        # waits for; handing the token to the first to arrive wedged these.
        pytest.param(6, 3, 1, 0.99, 306, id="6-3-1 j=0.99 seed 306: drains (overtaken INQUIRE)"),
        pytest.param(6, 3, 1, 0.99, 507, id="6-3-1 j=0.99 seed 507: drains (overtaken INQUIRE)"),
    ],
)
def test_bouabdallah_drains_on_a_jittered_reliable_channel(n, m, phi, jitter, seed):
    """ROADMAP item 16: BL, high load, duration 2 000, no fault, gamma 3.

    Jitter above 1/3 lets a message on a two-hop path overtake one sent
    directly, which the reliable FIFO links of Section 3.1 allow.
    """
    params = WorkloadParams(
        num_processes=n, num_resources=m, phi=phi, duration=2_000.0,
        load=LoadLevel.HIGH, seed=seed,
    )
    result = run(
        Scenario(
            algorithm="bouabdallah", params=params, require_all_completed=False,
            latency=UniformJitterLatencySpec(gamma=3.0, jitter=jitter),
        )
    )
    assert_finished(result)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="seed 7: drained, node 0 waiting")
def test_incremental_undetected_blip_drains():
    """ROADMAP item 16: incremental, N=5/M=10/phi=3, node 2 down over [125, 145), no detector.

    The rows ``incremental blip off`` of ``examples/crash_recovery.py --quick``.
    """
    params = WorkloadParams(
        num_processes=5, num_resources=10, phi=3, duration=500.0, warmup=50.0,
        load=LoadLevel.HIGH, seed=7,
    )
    result = run(
        Scenario(
            algorithm="incremental", params=params, require_all_completed=False,
            faults=NodeCrash(node=2, at=125.0, recover_at=145.0),
        )
    )
    assert_finished(result)


@pytest.mark.parametrize(
    "algorithm, seed, crash",
    [
        known(
            AllocatorError, "with_loan", 36, NodeCrash(node=4, at=137.0, recover_at=154.0),
            today="with_loan seed 36, node 4 down [137, 154): sends token 9 it does not own",
        ),
        known(
            MutexError, "incremental", 27, NodeCrash(node=3, at=322.0, recover_at=336.0),
            today="incremental seed 27, node 3 down [322, 336): root node without token",
        ),
    ],
)
def test_undetected_short_blip_drains(algorithm, seed, crash):
    """ROADMAP item 1: a 14-17 ms blip with no detector, N=8/M=12/phi=4, constant latency.

    No detector, so the recovery coordinator never acts: the ownership
    error of the loan core needs no regeneration, and the incremental
    one fails on Naimi-Trehel's reboot side.
    """
    params = WorkloadParams(
        num_processes=8, num_resources=12, phi=4, duration=1_200.0, warmup=100.0,
        load=LoadLevel.HIGH, seed=seed,
    )
    result = run(
        Scenario(algorithm=algorithm, params=params, require_all_completed=False, faults=crash)
    )
    assert_finished(result)
