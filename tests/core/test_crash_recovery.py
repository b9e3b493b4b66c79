"""Crash-recovery protocol: detection, regeneration, fencing edge cases.

These are scenario-level tests of the recovery subsystem
(:mod:`repro.core.recovery` + :mod:`repro.sim.lifecycle` +
:mod:`repro.sim.detectorspec`): each one runs a full closed-loop workload
under a deterministic crash schedule and asserts on the recovery
outcomes.  The online safety checker is armed in every run, so a
regeneration bug that resurrects a second token fails loudly as a
``SafetyViolation``, not as a silently wrong metric.

"Recovered" is read off ``result.termination``: the run drained, no live
node still waits for a grant, and exactly the requests that died with
their nodes are abandoned.  Scenarios keep the default
``require_all_completed=True`` (which raises on a waiting survivor)
unless the test is about a run that is expected to wedge.
"""

import pickle

import pytest

from repro.core.config import CoreConfigSpec
from repro.experiments import Scenario, run
from repro.parallel import run_sweep
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faultspec import CompositeFaults, NodeCrash
from repro.workload.params import LoadLevel, WorkloadParams

#: Tight detector so recovery completes well inside the test workloads.
DETECTOR = HeartbeatDetector(interval=10.0, timeout=30.0)


def make_params(**overrides):
    defaults = dict(
        num_processes=5,
        num_resources=10,
        phi=3,
        duration=500.0,
        warmup=50.0,
        load=LoadLevel.HIGH,
        seed=7,
    )
    defaults.update(overrides)
    return WorkloadParams(**defaults)


def assert_recovered(result, abandoned):
    """The run drained with nobody waiting; only ``abandoned`` requests died."""
    end = result.termination
    assert end.reason == "drained"
    assert end.waiting == ()
    assert end.abandoned == abandoned
    assert result.metrics.issued == result.metrics.completed + abandoned


def loan_scenario(params, faults=None, detector=None, **scenario_kw):
    return Scenario(
        algorithm="with_loan",
        params=params,
        config=CoreConfigSpec(enable_loan=True),
        faults=faults,
        detector=detector,
        **scenario_kw,
    )


class TestCrashWhileHoldingTokens:
    def test_permanent_crash_without_detector_stalls(self):
        result = run(
            loan_scenario(
                make_params(),
                faults=NodeCrash(node=2, at=125.0),
                require_all_completed=False,
            )
        )
        assert result.tokens_regenerated == 0
        # Every survivor waits for the dead holder's tokens; nothing is
        # re-sent into the void, so the queue drains with them waiting.
        end = result.termination
        assert end.reason == "drained"
        assert end.waiting == ((0, 1), (1, 1), (3, 1), (4, 1))
        assert end.abandoned == 0
        assert end.last_grant == pytest.approx(166.46, abs=0.01)

    def test_permanent_crash_with_detector_recovers(self):
        result = run(
            loan_scenario(
                make_params(), faults=NodeCrash(node=2, at=125.0), detector=DETECTOR
            )
        )
        # Node 2 held tokens when it died: they were rebuilt and the rest
        # of the workload completed on the regenerated incarnations.
        assert result.tokens_regenerated >= 1
        assert_recovered(result, abandoned=0)  # node 2 was thinking when it died
        assert result.recovery_time == pytest.approx(
            DETECTOR.detection_delay, abs=1e-9
        )

    def test_crash_of_initial_holder_regenerates_its_hoard(self):
        # Node 0 initially holds every token; kill it before it has handed
        # many away and the detector must rebuild several at once.
        result = run(
            loan_scenario(
                make_params(), faults=NodeCrash(node=0, at=10.0), detector=DETECTOR
            )
        )
        assert result.tokens_regenerated >= 2
        # Survivors finish everything; only the dead node's own in-flight
        # request died with it.
        assert_recovered(result, abandoned=1)

    def test_downtime_columns_report_the_outage(self):
        result = run(
            loan_scenario(
                make_params(),
                faults=NodeCrash(node=2, at=125.0, recover_at=285.0),
                detector=DETECTOR,
            )
        )
        assert result.downtime is not None
        assert result.downtime.as_dict() == {2: pytest.approx(160.0)}
        assert list(result.downtime.crashes) == [1]


class TestCrashDuringLoan:
    def test_borrower_crash_does_not_wedge_the_lender(self):
        # seed=5 with loan_threshold=2 grants a loan at t~290.1 (lender 2
        # lends resource 4 to borrower 3, determined by tracing the
        # fault-free run); killing the borrower right after exercises the
        # lost-borrowed-token path: the regenerated incarnation carries
        # lender=None, and the lender's t_lent latch clears when a token
        # of that resource next reaches it — no permanent lending freeze.
        params = make_params(seed=5, num_resources=8, phi=4, duration=400.0)
        scenario = Scenario(
            algorithm="with_loan",
            params=params,
            config=CoreConfigSpec(enable_loan=True, loan_threshold=2),
            faults=NodeCrash(node=3, at=291.0),
            detector=DETECTOR,
        )
        result = run(scenario)
        assert result.tokens_regenerated >= 1
        assert_recovered(result, abandoned=1)


class TestRecoverBeforeDetection:
    def test_blip_triggers_no_spurious_regeneration(self):
        # Down for half a detection delay: heartbeats resume in time, the
        # pending detection is cancelled and nothing is regenerated.
        blip = NodeCrash(node=2, at=125.0, recover_at=125.0 + DETECTOR.detection_delay / 2)
        result = run(loan_scenario(make_params(), faults=blip, detector=DETECTOR))
        assert result.tokens_regenerated == 0
        assert result.recovery_time == 0.0
        assert_recovered(result, abandoned=0)

    def test_blip_result_matches_detectorless_run(self):
        # With no detection fired, the detector must not perturb the run:
        # the blip scenario produces the same records with and without it.
        blip = NodeCrash(node=2, at=125.0, recover_at=135.0)
        with_det = run(loan_scenario(make_params(), faults=blip, detector=DETECTOR))
        without = run(loan_scenario(make_params(), faults=blip))
        assert pickle.dumps(with_det.record_columns) == pickle.dumps(
            without.record_columns
        )


class TestDoubleCrash:
    def test_double_crash_of_the_regenerator(self):
        # Node 2 dies holding tokens; after its detection the lowest-id
        # surviving requester rebuilds them.  Killing node 0 (a prime
        # regeneration candidate) afterwards forces a second adjudication
        # round over the same keys — the epochs must keep exactly one
        # incarnation live (the safety checker would catch a second).
        faults = CompositeFaults(
            (NodeCrash(node=2, at=125.0), NodeCrash(node=0, at=220.0))
        )
        result = run(loan_scenario(make_params(), faults=faults, detector=DETECTOR))
        assert result.tokens_regenerated >= 2
        # Three survivors finish everything except what died mid-CS.
        assert_recovered(result, abandoned=1)
        assert result.downtime is not None and len(result.downtime) == 2

    def test_regenerator_crash_while_holding_regenerated_token(self):
        # Node 2 dies at 125 holding a token; node 0 regenerates it at
        # detection (t=155) and then dies at 166 *while still holding
        # it*.  Two traps, regression-tested here: (a) node 2's stale
        # ownership claim (cleared only by fencing at reboot, which never
        # comes) must not mask the loss at node 0's detection — the
        # fenced claim is skipped in the holder map; (b) node 2's
        # pre-crash queue entry surviving inside a stale lastTok snapshot
        # must not re-enter the second regeneration and send the rebuilt
        # token into the void.  Either bug permanently stalls every
        # survivor on the lost resource.
        faults = CompositeFaults(
            (NodeCrash(node=2, at=125.0), NodeCrash(node=0, at=166.0))
        )
        result = run(loan_scenario(make_params(), faults=faults, detector=DETECTOR))
        assert result.tokens_regenerated >= 2
        # Survivors finish everything they issued; only a dead node's
        # own in-flight request died with it.
        assert_recovered(result, abandoned=1)

    def test_incremental_baseline_survives_detected_crash(self):
        params = make_params()
        result = run(
            Scenario(
                algorithm="incremental",
                params=params,
                faults=NodeCrash(node=2, at=125.0),
                detector=DETECTOR,
            )
        )
        assert result.tokens_regenerated >= 1
        assert_recovered(result, abandoned=1)


class TestNonRecoveryAllocatorBlip:
    def test_abandoned_grant_releases_instead_of_wedging(self):
        # The Bouabdallah baseline has no reboot handler, so its grant
        # callback survives a blip and fires after the reboot — for a
        # request the crashed client already abandoned.  The driver must
        # release the allocator instead of leaving it parked inside a
        # critical section nobody is running (which silently wedged
        # every other node: the run used to drain at t=165 of 500).
        # Messages due at the blipping node are held until its reboot,
        # so no survivor is left waiting for one of them either.
        result = run(
            Scenario(
                algorithm="bouabdallah",
                params=make_params(),
                faults=NodeCrash(node=2, at=125.0, recover_at=135.0),
                require_all_completed=False,
            )
        )
        assert result.simulated_time >= 500.0
        assert result.termination.last_grant > 490.0  # the others ran to the end
        assert result.termination.waiting == ()
        assert result.termination.abandoned == 1

    def test_aborted_cs_releases_on_reboot(self):
        # Symmetric case: the crash lands *inside* the critical section.
        # The client aborts the request and cancels the CS timer, so
        # nobody would ever call release(); the reboot handler must
        # release the parked CS or its resources (and the control token)
        # wedge every other node — the run used to drain at the reboot
        # instant.
        result = run(
            Scenario(
                algorithm="bouabdallah",
                params=make_params(),
                faults=NodeCrash(node=2, at=110.0, recover_at=120.0),
            )
        )
        assert result.metrics.extra.get("aborted") == 1.0
        assert_recovered(result, abandoned=1)
        assert result.simulated_time >= 500.0


class TestAllDownDetectionWindow:
    def test_detection_rearms_until_a_survivor_is_up(self):
        # Every node is down when the detections fire; a detection that
        # gave up there would leave node 0's tokens lost forever even
        # after nodes 1 and 2 reboot.  Re-arming until a capable
        # survivor is up regenerates them on the first firing after the
        # reboots (regen used to stay 0, the run ending at the stall cap).
        params = make_params(num_processes=3)
        faults = CompositeFaults(
            (
                NodeCrash(node=0, at=125.0),
                NodeCrash(node=1, at=126.0, recover_at=300.0),
                NodeCrash(node=2, at=127.0, recover_at=300.0),
            )
        )
        result = run(loan_scenario(params, faults=faults, detector=DETECTOR))
        assert result.tokens_regenerated >= 1
        # Each regeneration happened well after the crash (reboot at 300
        # plus a detection delay), never before it.
        assert result.recovery_time >= result.tokens_regenerated * (
            300.0 - 125.0
        )
        assert_recovered(result, abandoned=2)

    def test_permanent_all_down_drains_instead_of_rearming_forever(self):
        # With every peer down for good there is no reboot to wait for:
        # the detections must be dropped, not re-armed, so the event
        # queue drains at the last detection instead of ticking every
        # detection delay until the fault-run cap (which would inflate
        # simulated_time and every per-time metric).
        params = make_params(num_processes=3)
        faults = CompositeFaults(
            (
                NodeCrash(node=0, at=100.0),
                NodeCrash(node=1, at=101.0),
                NodeCrash(node=2, at=102.0),
            )
        )
        result = run(loan_scenario(params, faults=faults, detector=DETECTOR))
        assert result.tokens_regenerated == 0
        # Drains right after the last detection window, far from the cap.
        assert result.simulated_time < 200.0


class TestCrashSweepDeterminism:
    def test_recovery_sweep_is_bit_identical_across_workers(self):
        params = make_params()
        # The detector-less permanent crash wedges by design.
        grid = loan_scenario(params, require_all_completed=False).sweep(
            faults=(
                NodeCrash(node=2, at=125.0),
                NodeCrash(node=2, at=125.0, recover_at=285.0),
            ),
            detector=(None, DETECTOR),
        )

        def fingerprint(result):
            return pickle.dumps(
                (
                    result.metrics,
                    result.termination,
                    result.tokens_regenerated,
                    result.recovery_time,
                    result.downtime.as_dict() if result.downtime else None,
                    result.record_columns.content_key(),
                )
            )

        serial = [fingerprint(r) for r in run_sweep(grid, workers=1)]
        parallel = [fingerprint(r) for r in run_sweep(grid, workers=4)]
        assert serial == parallel

    def test_detector_axis_changes_the_cache_key_only_with_crashes(self):
        params = make_params()
        crash = loan_scenario(params, faults=NodeCrash(node=2, at=125.0))
        assert crash.key() != crash.replace(detector=DETECTOR).key()
        # Without crash windows the detector is normalised away.
        plain = loan_scenario(params)
        assert plain.key() == plain.replace(detector=DETECTOR).key()
