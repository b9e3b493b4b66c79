"""Unit tests for the scheduling function ``A`` and the total order ``/``."""

import pytest

from repro.core.messages import ReqRes
from repro.core.ordering import mark, precedes, request_key


def req(mark, site, resource=0, req_id=1):
    return ReqRes(resource=resource, sinit=site, req_id=req_id, mark=mark)


def vector(m, assignments):
    v = [0] * m
    for r, value in assignments.items():
        v[r] = value
    return v


class TestMark:
    def test_average_of_required_counters(self):
        assert mark(vector(5, {0: 2, 3: 6}), {0, 3}) == pytest.approx(4.0)

    def test_zero_entries_ignored(self):
        # resource 3 required but its counter is still 0 (not yet obtained)
        assert mark(vector(5, {0: 4}), {0, 3}) == pytest.approx(4.0)

    def test_empty_vector_is_zero(self):
        assert mark([0, 0, 0], {1}) == 0.0

    def test_monotone_in_counters(self):
        low = mark(vector(3, {0: 1, 1: 2}), {0, 1})
        high = mark(vector(3, {0: 5, 1: 6}), {0, 1})
        assert high > low


class TestRequestKey:
    def test_key_is_mark_then_site(self):
        assert request_key(req(2.0, 5)) == (2.0, 5)

    def test_key_orders_by_mark_first(self):
        assert request_key(req(1.0, 9)) < request_key(req(2.0, 0))

    def test_key_breaks_ties_by_site(self):
        assert request_key(req(3.0, 1)) < request_key(req(3.0, 2))


class TestPrecedes:
    def test_smaller_mark_precedes(self):
        assert precedes(req(1.0, 7), req(5.0, 0))

    def test_equal_marks_smaller_site_precedes(self):
        assert precedes(req(2.0, 1), req(2.0, 4))
        assert not precedes(req(2.0, 4), req(2.0, 1))

    def test_irreflexive(self):
        r = req(2.0, 3)
        assert not precedes(r, r)

    def test_antisymmetric_for_distinct_requests(self):
        a, b = req(1.0, 2), req(1.5, 1)
        assert precedes(a, b) != precedes(b, a)

    def test_total_for_distinct_sites(self):
        a, b = req(2.0, 1), req(2.0, 2)
        assert precedes(a, b) or precedes(b, a)
