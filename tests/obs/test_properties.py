"""Property-based pins: histogram invariants and telemetry-axis hash neutrality.

The histogram properties hold for *arbitrary* finite float sequences fed
through a runtime's grant hook —
sum/count consistency, cumulative-bucket monotonicity, every observation
accounted for exactly once.  The hash-neutrality properties pin the
contract that made the telemetry axis safe to add: scenarios that don't
ask for telemetry key exactly as they did before the axis existed
(golden keys captured at the pre-axis HEAD), across random scenario
grids.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import Scenario, canonical
from repro.obs import TelemetrySpec
from repro.workload.params import WorkloadParams
from tests.obs.helpers import wait_histogram

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)

bucket_bounds = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
    unique=True,
).map(lambda bs: tuple(sorted(bs)))


class TestHistogramInvariants:
    @given(bounds=bucket_bounds, values=st.lists(finite_floats, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_sum_count_and_cumulative_monotonicity(self, bounds, values):
        cumulative, total, count = wait_histogram(values, bounds)

        assert count == len(values)
        expected = 0.0
        for v in values:  # the run adds waits in grant order
            expected += v
        assert total == expected

        assert len(cumulative) == len(bounds) + 1
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] == len(values)  # +Inf catches everything

    @given(bounds=bucket_bounds, values=st.lists(finite_floats, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_buckets_match_inclusive_le_semantics(self, bounds, values):
        cumulative, _, _ = wait_histogram(values, bounds)
        for bound, running in zip(bounds, cumulative):
            assert running == sum(1 for v in values if float(v) <= bound)

    @given(values=st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_observation_order_is_irrelevant(self, values):
        a = wait_histogram(values, (0.0, 10.0))
        b = wait_histogram(values[::-1], (0.0, 10.0))
        assert a[0] == b[0]
        assert a[2] == b[2]


#: Scenario.key() values captured at the pre-telemetry-axis HEAD (PR 9).
#: The axis must be invisible to every one of them.  The four ``with_loan``
#: keys were re-captured when ``CoreConfigSpec`` lost its
#: ``resend_interval`` field, which changed their canonical form.  All
#: seven were re-captured when ``WorkloadParams`` lost ``loan_threshold``
#: and ``extra``, ``CoreConfigSpec`` lost ``policy`` and ``initial_holder``
#: (its ``loan_threshold`` default became 1), and the two baselines lost
#: their configs: every canonical form changed, no run did.
PRE_AXIS_KEYS = {
    "bare": "8e4cb1b438a39538a4540067048445d7156fb389546e2a419524f987b560263c",
    "medium": "a3d318d838204ac32c9368392fa9f407a772e56bfb56b83f0d9d2bd90d07f02c",
    "bl": "c89408e5a4c287d1692a028da9792c2180faee02a37c10929c76305ec7841a57",
    "incr": "982fd13e83d39c5f6d0baa88358b5eeb53686736ffb81cc6af46f2425973d90d",
    "shm": "37cfaf59cd5d83a52f47402ad306973eba27ae3db6a8a76978ab4c1cc9191117",
    "lat": "f84bd649cf5ad4ecd3e440f28974810385b9624354015ee415344d4b6e784067",
    "high": "8816a70bbe116d94f0f655772cb22f8b16abc662e715db762f56dcc5ad668492",
}


def _pre_axis_scenarios():
    from repro.sim.latencyspec import UniformJitterLatencySpec
    from repro.workload.params import LoadLevel

    p = WorkloadParams(
        num_processes=4, num_resources=8, phi=3, duration=400.0, warmup=50.0
    )
    return {
        "bare": Scenario(algorithm="with_loan", params=p),
        "medium": Scenario(algorithm="with_loan", params=WorkloadParams()),
        "bl": Scenario(algorithm="bouabdallah", params=p),
        "incr": Scenario(algorithm="incremental", params=p),
        "shm": Scenario(algorithm="shared_memory", params=p),
        "lat": Scenario(
            algorithm="with_loan", params=p,
            latency=UniformJitterLatencySpec(jitter=0.4),
        ),
        "high": Scenario(
            algorithm="with_loan",
            params=p.with_load(LoadLevel.HIGH),
            size_buckets=(1, 4, 8),
        ),
    }


class TestHashNeutrality:
    def test_pre_axis_golden_keys_unchanged(self):
        scenarios = _pre_axis_scenarios()
        assert {name: s.key() for name, s in scenarios.items()} == PRE_AXIS_KEYS

    @given(
        algorithm=st.sampled_from(["with_loan", "bouabdallah", "incremental"]),
        phi=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
        num_processes=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_unset_axis_never_reaches_canonical_form(
        self, algorithm, phi, seed, num_processes
    ):
        scenario = Scenario(
            algorithm=algorithm,
            params=WorkloadParams(
                num_processes=num_processes,
                num_resources=16,
                phi=phi,
                seed=seed,
            ),
        )
        _, fields = canonical(scenario.normalized())
        assert all(name != "telemetry" for name, _ in fields)

    @given(
        phi=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
        stall_after=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_explicit_spec_changes_the_key(self, phi, seed, stall_after):
        base = Scenario(
            algorithm="with_loan",
            params=WorkloadParams(num_processes=4, num_resources=8, phi=phi, seed=seed),
        )
        enabled = base.replace(telemetry=TelemetrySpec(stall_after=stall_after))
        assert base.key() != enabled.key()
        # ... deterministically: the same spec gives the same key.
        again = base.replace(telemetry=TelemetrySpec(stall_after=stall_after))
        assert enabled.key() == again.key()

    def test_spec_fields_distinguish_keys(self):
        base = Scenario(algorithm="with_loan", params=WorkloadParams())
        a = base.replace(telemetry=TelemetrySpec(stall_after=50.0))
        b = base.replace(telemetry=TelemetrySpec(stall_after=25.0))
        c = base.replace(telemetry=TelemetrySpec(node_gauges=False))
        assert len({a.key(), b.key(), c.key()}) == 3
