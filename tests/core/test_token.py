"""Unit tests for the per-resource token structure."""

import pytest

from repro.core.messages import ReqLoan, ReqRes
from repro.core.token import ResourceToken


#: Sites of the tokens the obsolescence tests build.
N = 10


def vector(entries=None):
    """An obsolescence vector of ``N`` sites: zero, except ``entries`` (site -> id)."""
    v = [0] * N
    for site, req_id in (entries or {}).items():
        v[site] = req_id
    return v


def fresh_token(resource=0, last_req_cnt=None, last_cs=None):
    """A token whose vectors have one entry per site, as a node builds them."""
    return ResourceToken(resource, 1, vector(last_req_cnt), vector(last_cs))


def req(site, mark, req_id=1, resource=0):
    return ReqRes(resource=resource, sinit=site, req_id=req_id, mark=mark)


def loan(site, mark, req_id=1, resource=0, missing=frozenset({0})):
    return ReqLoan(resource=resource, sinit=site, req_id=req_id, mark=mark, missing=missing)


class TestCounter:
    def test_take_counter_increments(self):
        tok = ResourceToken(resource=0)
        assert tok.take_counter() == 1
        assert tok.take_counter() == 2
        assert tok.counter == 3

    def test_counter_values_unique_and_increasing(self):
        tok = ResourceToken(resource=0)
        values = [tok.take_counter() for _ in range(50)]
        assert values == sorted(values)
        assert len(set(values)) == 50


class TestObsolescence:
    def test_cnt_obsolete_when_already_answered(self):
        tok = fresh_token(last_req_cnt={3: 5})
        assert tok.is_obsolete_cnt(3, 5)
        assert tok.is_obsolete_cnt(3, 4)
        assert not tok.is_obsolete_cnt(3, 6)

    def test_cnt_obsolete_when_cs_already_done(self):
        tok = fresh_token(last_cs={3: 7})
        assert tok.is_obsolete_cnt(3, 7)
        assert not tok.is_obsolete_cnt(3, 8)

    def test_cs_obsolete_only_via_last_cs(self):
        tok = ResourceToken(resource=0, last_req_cnt={3: 9}, last_cs={3: 2})
        assert tok.is_obsolete_cs(3, 2)
        assert not tok.is_obsolete_cs(3, 3)

    def test_unknown_site_never_obsolete(self):
        # A site the token has never served has zero in both vectors.
        tok = fresh_token()
        assert not tok.is_obsolete_cs(9, 1)
        assert not tok.is_obsolete_cnt(9, 1)

    def test_site_outside_the_vectors_fails_loudly(self):
        tok = fresh_token()
        with pytest.raises(IndexError):
            tok.is_obsolete_cs(N, 1)
        with pytest.raises(IndexError):
            tok.is_obsolete_cnt(N, 1)


class TestWaitingQueue:
    def test_enqueue_keeps_priority_order(self):
        tok = ResourceToken(resource=0)
        tok.enqueue(req(2, mark=5.0))
        tok.enqueue(req(1, mark=3.0))
        tok.enqueue(req(3, mark=4.0))
        assert [r.sinit for r in tok.wqueue] == [1, 3, 2]

    def test_tie_broken_by_site_id(self):
        tok = ResourceToken(resource=0)
        tok.enqueue(req(5, mark=2.0))
        tok.enqueue(req(1, mark=2.0))
        assert [r.sinit for r in tok.wqueue] == [1, 5]

    def test_dequeue_returns_head(self):
        tok = ResourceToken(resource=0)
        tok.enqueue(req(2, mark=9.0))
        tok.enqueue(req(7, mark=1.0))
        assert tok.dequeue().sinit == 7
        assert tok.head().sinit == 2

    def test_head_of_empty_queue_is_none(self):
        assert ResourceToken(resource=0).head() is None

    def test_queue_contains_by_site_and_id(self):
        tok = ResourceToken(resource=0)
        tok.enqueue(req(2, mark=1.0, req_id=4))
        assert tok.queue_contains(2, 4)
        assert not tok.queue_contains(2, 5)
        assert not tok.queue_contains(3, 4)

    def test_remove_requests_of_site(self):
        tok = ResourceToken(resource=0)
        tok.enqueue(req(2, mark=1.0))
        tok.enqueue(req(3, mark=2.0))
        tok.remove_requests_of(2)
        assert [r.sinit for r in tok.wqueue] == [3]


class TestLoanQueue:
    def test_enqueue_loan_sorted(self):
        tok = ResourceToken(resource=0)
        tok.enqueue_loan(loan(4, mark=8.0))
        tok.enqueue_loan(loan(2, mark=1.0))
        assert [r.sinit for r in tok.wloan] == [2, 4]

    def test_loan_contains_and_remove(self):
        tok = ResourceToken(resource=0)
        tok.enqueue_loan(loan(4, mark=8.0, req_id=2))
        assert tok.loan_contains(4, 2)
        tok.remove_loans_of(4)
        assert not tok.loan_contains(4, 2)


class TestCopy:
    def test_copy_is_deep_enough(self):
        tok = fresh_token(last_req_cnt={1: 3}, last_cs={1: 2})
        tok.enqueue(req(2, mark=1.0))
        dup = tok.copy()
        dup.take_counter()
        dup.last_req_cnt[1] = 98
        dup.last_cs[1] = 99
        dup.wqueue.clear()
        dup.lender = 5
        assert tok.counter == 1
        assert tok.last_req_cnt == vector({1: 3})
        assert tok.last_cs[1] == 2
        assert len(tok.wqueue) == 1
        assert tok.lender is None

    def test_copy_preserves_fields(self):
        tok = ResourceToken(resource=3, counter=10, lender=4)
        dup = tok.copy()
        assert dup.resource == 3 and dup.counter == 10 and dup.lender == 4
