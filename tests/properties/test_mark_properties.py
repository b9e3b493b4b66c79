"""Property-based tests of the scheduling function ``A`` (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import mark

M = 16

vectors = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=M, max_size=M
)
required_sets = st.sets(st.integers(min_value=0, max_value=M - 1), min_size=1, max_size=M)


class TestMarkProperties:
    @given(vectors, required_sets)
    @settings(max_examples=150)
    def test_marks_are_finite_and_non_negative(self, vector, required):
        value = mark(vector, required)
        assert value >= 0.0
        assert value == value  # not NaN

    @given(vectors, required_sets)
    @settings(max_examples=150)
    def test_marks_monotone_under_counter_growth(self, vector, required):
        """For a *complete* vector (every required counter obtained, hence
        >= 1, as in any real request) increasing the counters can never
        decrease the mark — the property underlying the starvation-freedom
        argument (Hypothesis 6)."""
        complete = [max(v, 1) if r in required else v for r, v in enumerate(vector)]
        before = mark(complete, required)
        bumped = [v + 1 if r in required else v for r, v in enumerate(complete)]
        after = mark(bumped, required)
        assert after >= before

    @given(vectors, required_sets)
    def test_mark_bounded_by_min_and_max(self, vector, required):
        values = [vector[r] for r in required if vector[r] > 0]
        value = mark(vector, required)
        if values:
            assert min(values) <= value <= max(values)
        else:
            assert value == 0.0

    @given(vectors, required_sets)
    def test_mark_ignores_non_required_entries(self, vector, required):
        """Entries outside the required set must not influence the mark."""
        base = mark(vector, required)
        noisy = [v if r in required else v + 999 for r, v in enumerate(vector)]
        assert mark(noisy, required) == base
