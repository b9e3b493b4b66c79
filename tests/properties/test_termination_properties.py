"""Property-based checks of ``ExperimentResult.termination``.

Whatever the algorithm, the loop and the fault, the record must account
for every issued request exactly once — completed, still held by a live
client, or abandoned with its node — and must never name a dead node as
waiting.  The clients count ``waiting`` and ``abandoned``, the collector
counts ``issued`` and ``completed``: the identity cross-checks the two.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import Scenario, run
from repro.experiments.registry import ALGORITHMS
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faultspec import BernoulliLoss, NodeCrash
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import OpenLoopSpec

DURATION = 200.0

#: Derandomised: crash recovery has known defects that raise on rare
#: seeds (tests/integration/test_known_defects.py pins them), and tier-1
#: must not find one by chance.
SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_params(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=2, max_value=8))
    return WorkloadParams(
        num_processes=n,
        num_resources=m,
        phi=draw(st.integers(min_value=1, max_value=m)),
        duration=DURATION,
        warmup=20.0,
        load=draw(st.sampled_from([LoadLevel.MEDIUM, LoadLevel.HIGH])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


@st.composite
def faults_for(draw, params):
    """``(fault spec, detector, node that is down for good or None)``."""
    kind = draw(st.sampled_from(["none", "crash", "blip", "loss"]))
    if kind == "none":
        return None, None, None
    if kind == "loss":
        return BernoulliLoss(p=draw(st.sampled_from([0.01, 0.05, 0.2]))), None, None
    node = draw(st.integers(min_value=0, max_value=params.num_processes - 1))
    at = draw(st.floats(min_value=0.0, max_value=DURATION, allow_nan=False))
    detector = draw(st.sampled_from([None, HeartbeatDetector(interval=5.0, timeout=15.0)]))
    if kind == "crash":
        return NodeCrash(node=node, at=at), detector, node
    length = draw(st.floats(min_value=1.0, max_value=80.0, allow_nan=False))
    return NodeCrash(node=node, at=at, recover_at=at + length), detector, None


@st.composite
def scenarios(draw):
    params = draw(small_params())
    faults, detector, dead = draw(faults_for(params))
    scenario = Scenario(
        algorithm=draw(st.sampled_from(list(ALGORITHMS))),
        params=params,
        workload=draw(st.sampled_from([None, OpenLoopSpec()])),
        faults=faults,
        detector=detector,
        require_all_completed=False,
    )
    return scenario, dead


@given(scenarios())
@SETTINGS
def test_every_issued_request_is_accounted_for_once(case):
    scenario, dead = case
    result = run(scenario)
    end, m = result.termination, result.metrics
    held = sum(count for _, count in end.waiting)
    assert m.issued == m.completed + held + end.abandoned
    assert end.abandoned >= 0 and all(count > 0 for _, count in end.waiting)
    nodes = [node for node, _ in end.waiting]
    assert nodes == sorted(set(nodes))
    # (A networkless algorithm drops the fault axis: nothing crashes.)
    if isinstance(scenario.normalized().faults, NodeCrash):
        assert dead not in nodes
    else:
        assert end.abandoned == 0
    assert end.reason in ("drained", "fault_cap")
    if end.last_grant is None:
        assert m.granted == 0
    else:
        assert m.granted > 0 and end.last_grant <= result.simulated_time


@given(small_params(), st.sampled_from(list(ALGORITHMS)), st.sampled_from([None, OpenLoopSpec()]))
@SETTINGS
def test_a_no_fault_run_drains_with_nobody_waiting(params, algorithm, workload):
    result = run(Scenario(algorithm=algorithm, params=params, workload=workload))
    end = result.termination
    assert (end.reason, end.waiting, end.abandoned) == ("drained", (), 0)
    assert end.last_grant is None or end.last_grant <= result.simulated_time
