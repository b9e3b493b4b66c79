"""Property-based end-to-end checks: random workloads against the protocols.

Each generated scenario is replayed through the scripted harness, whose
metrics collector enforces mutual exclusion online; the test then asserts
liveness (every request completed) and token conservation.  Scenario sizes
are kept small so hypothesis can explore many shapes quickly.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


from tests.helpers import assert_all_completed, build_system, node_config, run_scripted

N_PROC = 4
N_RES = 5


@st.composite
def scenarios(draw):
    num_requests = draw(st.integers(min_value=1, max_value=10))
    requests = []
    counts = {p: 0 for p in range(N_PROC)}
    for _ in range(num_requests):
        process = draw(st.integers(min_value=0, max_value=N_PROC - 1))
        size = draw(st.integers(min_value=1, max_value=N_RES))
        resources = draw(
            st.sets(st.integers(min_value=0, max_value=N_RES - 1), min_size=size, max_size=size)
        )
        issue = draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
        cs = draw(st.floats(min_value=0.5, max_value=6.0, allow_nan=False))
        requests.append((issue, process, frozenset(resources), cs))
        counts[process] += 1
    return requests


COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCoreAlgorithmProperties:
    @given(scenarios(), st.booleans())
    @COMMON_SETTINGS
    def test_safety_liveness_and_conservation(self, requests, enable_loan):
        config = node_config(enable_loan=enable_loan)
        system = build_system("core", num_processes=N_PROC, num_resources=N_RES,
                              gamma=0.5, core_config=config)
        metrics = run_scripted(system, requests, max_events=2_000_000)
        assert_all_completed(metrics)
        owners = [r for node in system.allocators for r in node.owned_tokens]
        assert sorted(owners) == list(range(N_RES))
        assert all(node.is_idle for node in system.allocators)


class TestBaselineProperties:
    @given(scenarios())
    @COMMON_SETTINGS
    def test_bouabdallah_safety_and_liveness(self, requests):
        system = build_system("bouabdallah", num_processes=N_PROC, num_resources=N_RES,
                              gamma=0.5)
        metrics = run_scripted(system, requests, max_events=2_000_000)
        assert_all_completed(metrics)

    @given(scenarios())
    @COMMON_SETTINGS
    def test_incremental_safety_and_liveness(self, requests):
        system = build_system("incremental", num_processes=N_PROC, num_resources=N_RES,
                              gamma=0.5)
        metrics = run_scripted(system, requests, max_events=2_000_000)
        assert_all_completed(metrics)

    @given(scenarios())
    @COMMON_SETTINGS
    def test_shared_memory_safety_and_liveness(self, requests):
        system = build_system("shared_memory", num_processes=N_PROC, num_resources=N_RES)
        metrics = run_scripted(system, requests, max_events=2_000_000)
        assert_all_completed(metrics)
