"""Property-based tests of the token queue invariants (hypothesis)."""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import ReqLoan, ReqRes
from repro.core.ordering import request_key
from repro.core.token import ResourceToken

entry_strategy = st.tuples(
    st.integers(min_value=0, max_value=31),          # site
    st.integers(min_value=1, max_value=50),          # request id
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),  # mark
)


def to_req(entry):
    site, req_id, mark = entry
    return ReqRes(resource=0, sinit=site, req_id=req_id, mark=mark)


def reference_insert(queue, req):
    """Oracle: the key-list + ``insort`` + ``index`` placement ``enqueue`` used to do."""
    keys = [request_key(r) for r in queue]
    bisect.insort(keys, request_key(req))
    queue.insert(keys.index(request_key(req)), req)


#: Sites of the tokens the obsolescence properties build (ids ``0..31``).
SITES = 32


def dict_obsolete_cs(last_cs, sinit, req_id):
    """Oracle: the Section 4.2.1 rule over a dict vector, where a missing site reads 0."""
    return req_id <= last_cs.get(sinit, 0)


def dict_obsolete_cnt(last_req_cnt, last_cs, sinit, req_id):
    """Oracle: a ``ReqCnt`` is obsolete once answered or once its CS is done."""
    return req_id <= last_req_cnt.get(sinit, 0) or req_id <= last_cs.get(sinit, 0)


# Few sites and few marks, so equal (mark, sinit) keys are common.
colliding_entry_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=50),
    st.sampled_from([0.0, 1.0, 1.5, 2.0]),
)


class TestQueuePlacement:
    @given(st.lists(st.one_of(entry_strategy, colliding_entry_strategy), max_size=40))
    @settings(max_examples=200)
    def test_both_queues_place_entries_like_the_reference(self, entries):
        token = ResourceToken(resource=0)
        expected_queue, expected_loans = [], []
        for site, req_id, mark in entries:
            req = ReqRes(resource=0, sinit=site, req_id=req_id, mark=mark)
            loan = ReqLoan(resource=0, sinit=site, req_id=req_id, mark=mark, missing=frozenset({0}))
            token.enqueue(req)
            token.enqueue_loan(loan)
            reference_insert(expected_queue, req)
            reference_insert(expected_loans, loan)
        # Identity, not equality: entries with equal keys must keep their places.
        assert [id(r) for r in token.wqueue] == [id(r) for r in expected_queue]
        assert [id(r) for r in token.wloan] == [id(r) for r in expected_loans]


class TestQueueInvariants:
    @given(st.lists(entry_strategy, max_size=40))
    @settings(max_examples=150)
    def test_queue_is_always_sorted_by_priority(self, entries):
        token = ResourceToken(resource=0)
        for entry in entries:
            token.enqueue(to_req(entry))
        keys = [request_key(r) for r in token.wqueue]
        assert keys == sorted(keys)

    @given(st.lists(entry_strategy, min_size=1, max_size=40))
    def test_dequeue_returns_global_minimum(self, entries):
        token = ResourceToken(resource=0)
        reqs = [to_req(e) for e in entries]
        for req in reqs:
            token.enqueue(req)
        head = token.dequeue()
        assert request_key(head) == min(request_key(r) for r in reqs)

    @given(st.lists(entry_strategy, max_size=30), st.integers(min_value=0, max_value=31))
    def test_remove_requests_of_removes_exactly_that_site(self, entries, victim):
        token = ResourceToken(resource=0)
        for entry in entries:
            token.enqueue(to_req(entry))
        before_other = [r for r in token.wqueue if r.sinit != victim]
        token.remove_requests_of(victim)
        assert all(r.sinit != victim for r in token.wqueue)
        assert token.wqueue == before_other

    @given(st.lists(entry_strategy, max_size=30))
    def test_copy_is_independent(self, entries):
        token = ResourceToken(resource=0)
        for entry in entries:
            token.enqueue(to_req(entry))
        dup = token.copy()
        dup.wqueue.clear()
        dup.counter += 10
        assert len(token.wqueue) == len(entries)
        assert token.counter == 1

    @given(st.integers(min_value=1, max_value=200))
    def test_counter_handout_is_strictly_increasing(self, n):
        token = ResourceToken(resource=0)
        values = [token.take_counter() for _ in range(n)]
        assert values == list(range(1, n + 1))


class TestObsolescenceProperties:
    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_obsolescence_is_monotone_in_last_cs(self, site, last_cs, req_id):
        token = ResourceToken(resource=0, last_cs={site: last_cs})
        if token.is_obsolete_cs(site, req_id):
            # any later completion keeps it obsolete
            token.last_cs[site] = last_cs + 5
            assert token.is_obsolete_cs(site, req_id)

    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=1, max_value=50),
    )
    def test_fresh_request_never_obsolete_on_new_token(self, site, req_id):
        token = ResourceToken(0, 1, [0] * SITES, [0] * SITES)
        assert not token.is_obsolete_cs(site, req_id)
        assert not token.is_obsolete_cnt(site, req_id)

    @given(
        st.lists(
            st.tuples(
                st.booleans(),                                # True: lastCS, False: lastReqC
                st.integers(min_value=0, max_value=SITES - 1),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=60,
        ),
    )
    def test_vectors_judge_like_the_dict_rule(self, writes):
        token = ResourceToken(0, 1, [0] * SITES, [0] * SITES)
        oracle_cnt, oracle_cs = {}, {}
        for to_cs, site, req_id in writes:
            (token.last_cs if to_cs else token.last_req_cnt)[site] = req_id
            (oracle_cs if to_cs else oracle_cnt)[site] = req_id
        for site in range(SITES):
            for req_id in range(52):
                assert token.is_obsolete_cs(site, req_id) == dict_obsolete_cs(
                    oracle_cs, site, req_id
                )
                assert token.is_obsolete_cnt(site, req_id) == dict_obsolete_cnt(
                    oracle_cnt, oracle_cs, site, req_id
                )
