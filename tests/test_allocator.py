"""``repro.allocator.validate_resources``: every protocol's entry check."""

import pytest

from repro.allocator import AllocatorError, validate_resources


class TestValidateResources:
    @pytest.mark.parametrize("resources", [[], frozenset(), iter(())])
    def test_empty_set_rejected(self, resources):
        with pytest.raises(AllocatorError, match="at least one resource"):
            validate_resources(resources, 8)

    @pytest.mark.parametrize("bad", [-1, 8, 100])
    def test_out_of_range_id_named(self, bad):
        with pytest.raises(AllocatorError, match=f"resource id {bad} out of range"):
            validate_resources([0, bad, 3], 8)

    @pytest.mark.parametrize("resources", [[2.7, True], ["3"], [1, 2.0], [None]])
    def test_non_integral_id_rejected(self, resources):
        """Used to come back truncated or parsed: ``[2.7, True]`` gave ``{1, 2}``."""
        with pytest.raises(AllocatorError, match="must be integers"):
            validate_resources(resources, 80)

    @pytest.mark.parametrize(
        "resources, expected",
        [
            ([0], {0}),
            ([7, 0, 3], {0, 3, 7}),
            ((5, 5, 1), {1, 5}),
            (frozenset({79, 0, 41}), {0, 41, 79}),
            (range(80), set(range(80))),
            (iter([4, 2]), {2, 4}),
        ],
    )
    def test_valid_ids_come_back_unchanged(self, resources, expected):
        got = validate_resources(resources, 80)
        assert type(got) is frozenset
        assert got == expected
        assert all(type(r) is int for r in got)

    def test_iteration_order_is_the_inputs(self):
        """The set is built from the ids in the order given, as before the
        rewrite, so a protocol iterating it sends in the same order."""
        ids = [71, 7, 15, 63, 23, 31]
        assert list(validate_resources(ids, 80)) == list(frozenset(int(r) for r in ids))
