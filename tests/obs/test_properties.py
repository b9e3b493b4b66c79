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
#: ``resend_interval`` field, which changed their canonical form.
PRE_AXIS_KEYS = {
    "bare": "9bf11145e14d381df32031e2960c7f1a8f88c10e5b7aa1b8076a9e1cd04ade30",
    "medium": "acbfdddfe4b79999867d0fbf6a5846ce306a2b70858141cf456316708f3d5d98",
    "bl": "0f59735e37394bfe7660a7cbb4702db0f99877a2b61adebe4f5ce91624cd2772",
    "incr": "200f3ec81231125c033a58c51ff08a75b15aaed2a50b1dee71a8fffe03acbb9a",
    "shm": "8dba60171461b030c4ffeb4e5d410aa072b8add2789611a9354559f133404b4c",
    "lat": "6a4cb506bc637ff077672182115103d8363912f0208daa11410453cdfaf5189e",
    "high": "40adf2b73e11f43a89d677c667d45233b19a5f0dfa062b1f81e2368ee20aa400",
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
        interval=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_explicit_spec_changes_the_key(self, phi, seed, interval):
        base = Scenario(
            algorithm="with_loan",
            params=WorkloadParams(num_processes=4, num_resources=8, phi=phi, seed=seed),
        )
        enabled = base.replace(telemetry=TelemetrySpec(sample_interval=interval))
        assert base.key() != enabled.key()
        # ... deterministically: the same spec gives the same key.
        again = base.replace(telemetry=TelemetrySpec(sample_interval=interval))
        assert enabled.key() == again.key()

    def test_spec_fields_distinguish_keys(self):
        base = Scenario(algorithm="with_loan", params=WorkloadParams())
        a = base.replace(telemetry=TelemetrySpec(sample_interval=50.0))
        b = base.replace(telemetry=TelemetrySpec(sample_interval=25.0))
        c = base.replace(telemetry=TelemetrySpec(node_gauges=False))
        assert len({a.key(), b.key(), c.key()}) == 3
