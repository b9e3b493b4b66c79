"""Unit tests for the message types: the core algorithm's and the baselines'.

The record contract below holds for the seven classes of
``core/messages.py`` and for the four of Naimi–Tréhel and
Bouabdallah–Laforest.
"""

import copy
import pickle

import pytest

from repro.baselines.bouabdallah_laforest import (
    CONTROL_INSTANCE,
    TOKEN_HERE,
    BLInquire,
    BLResourceToken,
)
from repro.core.messages import (
    CounterEnvelope,
    CounterValue,
    ReqCnt,
    ReqLoan,
    ReqRes,
    RequestEnvelope,
    TokenEnvelope,
)
from repro.core.token import ResourceToken
from repro.mutex.naimi_trehel import NTRequest, NTToken


class TestRequestKinds:
    def test_reqcnt_fields(self):
        r = ReqCnt(resource=2, sinit=1, req_id=3)
        assert (r.resource, r.sinit, r.req_id) == (2, 1, 3)

    def test_reqres_carries_mark(self):
        r = ReqRes(resource=2, sinit=1, req_id=3, mark=4.5)
        assert r.mark == 4.5

    def test_reqloan_carries_missing_set(self):
        r = ReqLoan(resource=2, sinit=1, req_id=3, mark=1.0, missing=frozenset({2, 5}))
        assert r.missing == frozenset({2, 5})

    def test_requests_are_hashable_and_immutable(self):
        r = ReqRes(resource=0, sinit=1, req_id=1, mark=2.0)
        assert hash(r) == hash(ReqRes(resource=0, sinit=1, req_id=1, mark=2.0))
        with pytest.raises(AttributeError):
            r.mark = 3.0  # type: ignore[misc]


class TestEnvelopes:
    def test_request_envelope_requires_requests(self):
        with pytest.raises(ValueError):
            RequestEnvelope(visited=frozenset({0}), requests=())

    def test_request_envelope_holds_visited_set(self):
        env = RequestEnvelope(
            visited=frozenset({0, 1}),
            requests=(ReqCnt(resource=0, sinit=0, req_id=1),),
        )
        assert env.visited == frozenset({0, 1})

    def test_counter_envelope_requires_values(self):
        with pytest.raises(ValueError):
            CounterEnvelope(counters=())

    def test_counter_envelope_contents(self):
        env = CounterEnvelope(counters=(CounterValue(resource=1, value=7),))
        assert env.counters[0].value == 7

    def test_token_envelope_requires_tokens(self):
        with pytest.raises(ValueError):
            TokenEnvelope(tokens=())

    def test_token_envelope_contents(self):
        env = TokenEnvelope(tokens=(ResourceToken(resource=4),))
        assert env.tokens[0].resource == 4


#: One fully specified instance per message class, as (class, field values
#: by name in declaration order).
RECORDS = [
    (ReqCnt, {"resource": 2, "sinit": 1, "req_id": 3, "single": True}),
    (ReqRes, {"resource": 2, "sinit": 1, "req_id": 3, "mark": 4.5}),
    (
        ReqLoan,
        {"resource": 2, "sinit": 1, "req_id": 3, "mark": 4.5, "missing": frozenset({2, 5})},
    ),
    (CounterValue, {"resource": 1, "value": 7}),
    (
        RequestEnvelope,
        {"visited": frozenset({0, 1}), "requests": (ReqCnt(resource=0, sinit=0, req_id=1),)},
    ),
    (CounterEnvelope, {"counters": (CounterValue(resource=1, value=7),)}),
    (TokenEnvelope, {"tokens": (ResourceToken(resource=4),)}),
    (NTRequest, {"instance": CONTROL_INSTANCE, "requester": 5}),
    (NTToken, {"instance": 3, "payload": ("opaque",), "epoch": 2}),
    (BLInquire, {"resource": 3, "requester": 5}),
    (BLResourceToken, {"resource": 4}),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
class TestRecordContract:
    """What every message class guarantees, the loan protocol's and the baselines'."""

    def test_positional_and_keyword_construction_agree(self, cls, fields):
        by_keyword = cls(**fields)
        by_position = cls(*fields.values())
        assert by_keyword == by_position
        assert type(by_keyword) is type(by_position) is cls
        for name, value in fields.items():
            assert getattr(by_position, name) == value

    def test_attribute_assignment_and_deletion_raise(self, cls, fields):
        record = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, fields[name])
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_equal_fields_give_equal_hash(self, cls, fields):
        a, b = cls(**fields), cls(**fields)
        if cls is TokenEnvelope:
            # A token is mutable protocol state and has no hash; the
            # envelope carrying it is never hashed either.
            with pytest.raises(TypeError):
                hash(a)
            return
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_never_equal_to_a_bare_tuple(self, cls, fields):
        record = cls(**fields)
        bare = tuple(fields.values())
        assert record != bare and bare != record
        assert not record == bare and not bare == record

    def test_repr_names_the_class_and_its_fields(self, cls, fields):
        text = repr(cls(**fields))
        assert text.startswith(cls.__name__ + "(")
        for name, value in fields.items():
            assert f"{name}={value!r}" in text

    def test_pickle_and_copy_round_trip(self, cls, fields):
        record = cls(**fields)
        for clone in (
            pickle.loads(pickle.dumps(record)),
            pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert type(clone) is cls
            assert clone == record


class TestDefaults:
    def test_reqcnt_single_defaults_to_false(self):
        assert ReqCnt(2, 1, 3).single is False
        assert ReqCnt(2, 1, 3) == ReqCnt(2, 1, 3, False)

    def test_reqloan_missing_defaults_to_the_empty_frozenset(self):
        loan = ReqLoan(2, 1, 3, 1.0)
        assert loan.missing == frozenset()
        assert isinstance(loan.missing, frozenset)

    def test_nttoken_carries_no_payload_at_epoch_zero_by_default(self):
        token = NTToken("lock")
        assert token.payload is None and token.epoch == 0
        assert token == NTToken("lock", None, 0) == NTToken(instance="lock")

    @pytest.mark.parametrize(
        "cls",
        [
            ReqRes, CounterValue, RequestEnvelope, CounterEnvelope, TokenEnvelope,
            NTRequest, BLInquire, BLResourceToken,
        ],
    )
    def test_the_other_classes_have_no_defaults(self, cls):
        with pytest.raises(TypeError):
            cls()


class TestCrossClassInequality:
    """Records of different classes never compare equal, whatever their fields."""

    def test_reqcnt_and_reqres_over_equal_tuples(self):
        cnt, res = ReqCnt(1, 2, 3, False), ReqRes(1, 2, 3, 0.0)
        assert tuple(cnt) == tuple(res)  # the underlying tuples are equal
        assert cnt != res and res != cnt
        assert not cnt == res and not res == cnt
        assert len({cnt, res}) == 2
        assert {cnt: "cnt", res: "res"} == {res: "res", cnt: "cnt"}
        assert {cnt: "cnt", res: "res"}[res] == "res"

    def test_one_field_envelopes_over_the_same_payload(self):
        payload = (CounterValue(1, 7),)
        counters, tokens = CounterEnvelope(payload), TokenEnvelope(payload)
        assert counters != tokens and not counters == tokens
        assert len({counters, tokens}) == 2

    def test_reqres_and_reqloan_are_ordered_by_key_not_by_class(self):
        # The token queues sort by request_key(), never by comparing records.
        from repro.core.ordering import request_key

        res = ReqRes(0, 4, 1, 2.0)
        loan = ReqLoan(0, 4, 1, 2.0)
        assert request_key(res) == request_key(loan)
        assert res != loan

    def test_ntrequest_and_blinquire_over_equal_tuples(self):
        # The case a bare namedtuple gets wrong: both are (int, int).
        request, inquire = NTRequest(3, 5), BLInquire(3, 5)
        assert request != inquire and inquire != request
        assert not request == inquire and not inquire == request
        assert len({request, inquire}) == 2


class TestControlTokenPayload:
    """Bouabdallah–Laforest's control token carries its vector as a list."""

    def test_list_payload_is_carried_not_copied_and_stays_unhashable(self):
        vector = [TOKEN_HERE, 2, TOKEN_HERE]
        token = NTToken(CONTROL_INSTANCE, vector)
        assert token.payload is vector
        assert copy.copy(token).payload is vector
        with pytest.raises(TypeError):
            hash(token)

    def test_deep_copy_and_pickle_copy_the_list(self):
        token = NTToken(CONTROL_INSTANCE, [1, 2, 3], 4)
        for clone in (copy.deepcopy(token), pickle.loads(pickle.dumps(token))):
            assert type(clone) is NTToken and clone == token
            assert clone.payload is not token.payload


class TestEnvelopeValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RequestEnvelope(frozenset({0}), ()),
            lambda: RequestEnvelope(visited=frozenset({0}), requests=()),
            lambda: CounterEnvelope(()),
            lambda: CounterEnvelope(counters=()),
            lambda: TokenEnvelope(()),
            lambda: TokenEnvelope(tokens=()),
        ],
    )
    def test_public_constructors_refuse_an_empty_payload(self, build):
        with pytest.raises(ValueError, match="must carry at least one"):
            build()

    def test_pickle_goes_through_the_validating_constructor(self):
        # An envelope is rebuilt by its class call, so a forged empty one
        # cannot be unpickled into existence.
        forged = tuple.__new__(CounterEnvelope, ((),))
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(forged))
