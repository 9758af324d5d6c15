"""Properties of the wire codec, derived from each message's field kinds.

Every one of the 14 messages is generated from its declaration: a valid
instance round-trips through JSON, and an unknown key, a missing
required key or a value of the wrong kind is a :class:`ProtocolError`.
Inputs that once escaped as other exceptions (deep nesting, integers
too large for a float or for the parser) are protocol errors too.
"""

import functools
import json
import typing
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.protocol import ProtocolError, parse_json

MESSAGES = [
    getattr(protocol, name)
    for name in protocol.__all__
    if isinstance(getattr(protocol, name), type)
    and issubclass(getattr(protocol, name), protocol._Message)
]

_finite = st.floats(allow_nan=False, allow_infinity=False)
_integers = st.integers(min_value=-(2**63), max_value=2**63)
_names = st.text(max_size=8)
_scalars = st.one_of(st.none(), st.booleans(), _integers, _finite, st.text(max_size=4))
_huge = st.integers(min_value=400, max_value=450).map(lambda digits: 10**digits)


def _not(*kinds):
    """JSON values of none of ``kinds`` (``"null"``, ``"bool"``, ...)."""
    pool = {
        "null": st.none(),
        "bool": st.booleans(),
        "int": _integers,
        "float": _finite,
        "str": st.text(max_size=4),
        "list": st.lists(_scalars, max_size=2),
        "object": st.dictionaries(_names, _scalars, max_size=2),
    }
    return st.one_of(*(strategy for kind, strategy in pool.items() if kind not in kinds))


#: kind -> (valid values, values of the wrong kind)
KINDS = {
    protocol._NON_EMPTY: (st.text(min_size=1, max_size=8), st.one_of(_not("str"), st.just(""))),
    protocol._STRING: (st.text(max_size=8), _not("str")),
    protocol._NUMBER: (_finite, st.one_of(_not("int", "float"), _huge)),
    protocol._INTEGER: (_integers, st.one_of(_not("int"), _finite)),
    protocol._BOOLEAN: (st.booleans(), _not("bool")),
    protocol._STRING_LIST: (
        st.lists(st.text(max_size=4), max_size=3).map(tuple),
        st.one_of(_not("list"), st.lists(_not("str"), min_size=1, max_size=2)),
    ),
    protocol._NUMBER_MAP: (
        st.dictionaries(_names, _finite, min_size=1, max_size=3),
        st.one_of(
            _not("object"),
            st.just({}),
            st.dictionaries(_names, st.one_of(_not("int", "float"), _huge), min_size=1, max_size=2),
        ),
    ),
    protocol._NUMBER_MAP_OR_EMPTY: (
        st.dictionaries(_names, _finite, max_size=3),
        st.one_of(
            _not("object"),
            st.dictionaries(_names, _not("int", "float"), min_size=1, max_size=2),
        ),
    ),
    protocol._BUNDLES: (
        st.dictionaries(_names, st.dictionaries(_names, _finite, max_size=2), max_size=3),
        st.one_of(
            _not("object"),
            st.dictionaries(_names, _not("object"), min_size=1, max_size=2),
            st.dictionaries(
                _names, st.dictionaries(_names, _not("int", "float"), min_size=1, max_size=2),
                min_size=1, max_size=2,
            ),
        ),
    ),
    protocol._NULL_MARKER: (st.booleans(), _not("null")),
}

#: Fields whose cross-field rules (``__post_init__``) need narrower values.
OVERRIDES = {
    ("AgentRequest", "action"): st.sampled_from(["register", "deregister"]),
    ("AgentRequest", "workload"): st.one_of(st.none(), st.text(min_size=1, max_size=8)),
    ("AgentRequest", "workload_class"): st.sampled_from([None, "C", "M"]),
    ("CapacityRequest", "capacities"): st.dictionaries(
        _names, st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=3
    ),
}


def _item(cls, spec):
    """The message class of an array field (None for any other field)."""
    hint = typing.get_type_hints(cls)[spec.name]
    args = typing.get_args(hint)
    if args and isinstance(args[0], type) and issubclass(args[0], protocol._Message):
        return args[0]
    return None


@functools.lru_cache(maxsize=None)
def valid(cls):
    """Instances of ``cls`` built from its fields' kinds."""
    strategies = {}
    for spec in fields(cls):
        item = _item(cls, spec)
        if (cls.__name__, spec.name) in OVERRIDES:
            strategies[spec.name] = OVERRIDES[cls.__name__, spec.name]
        elif item is not None:
            strategies[spec.name] = st.lists(valid(item), max_size=3).map(tuple)
        else:
            strategies[spec.name] = KINDS[spec.metadata["kind"]][0]

    def build(values):
        try:
            return cls(**values)
        except ProtocolError:  # a cross-field rule: not a valid instance
            return None

    return st.fixed_dictionaries(strategies).map(build).filter(lambda m: m is not None)


def wrong(cls, spec):
    """Values the field ``spec`` of ``cls`` must refuse."""
    item = _item(cls, spec)
    if item is not None:
        refused = st.one_of(
            _not("list"),
            st.lists(_not("object"), min_size=1, max_size=2),
            st.just([{"bogus": 1}]),
        )
    else:
        refused = KINDS[spec.metadata["kind"]][1]
    if spec.default is None:  # an explicit null is absent, not wrong
        refused = refused.filter(lambda value: value is not None)
    return refused


_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda cls: cls.__name__)
class TestEveryMessage:
    @_SETTINGS
    @given(data=st.data())
    def test_valid_instances_round_trip(self, cls, data):
        message = data.draw(valid(cls))
        text = json.dumps(message.as_dict())
        assert cls.from_dict(json.loads(text)) == message

    @_SETTINGS
    @given(data=st.data())
    def test_unknown_key_is_refused(self, cls, data):
        body = data.draw(valid(cls)).as_dict()
        key = data.draw(st.text(max_size=8).filter(lambda k: k not in cls._allowed))
        body[key] = data.draw(_scalars)
        with pytest.raises(ProtocolError, match="unknown field"):
            cls.from_dict(body)

    @_SETTINGS
    @given(data=st.data())
    def test_missing_required_key_is_refused(self, cls, data):
        body = data.draw(valid(cls)).as_dict()
        del body[data.draw(st.sampled_from(sorted(cls._required)))]
        with pytest.raises(ProtocolError, match="missing field"):
            cls.from_dict(body)

    @_SETTINGS
    @given(data=st.data())
    def test_value_of_the_wrong_kind_is_refused(self, cls, data):
        body = data.draw(valid(cls)).as_dict()
        spec = data.draw(st.sampled_from(fields(cls)))
        body[spec.metadata["key"] or spec.name] = data.draw(wrong(cls, spec))
        with pytest.raises(ProtocolError):
            cls.from_dict(body)


def test_every_message_is_declared_through_the_codec():
    assert len(MESSAGES) == 14
    for cls in MESSAGES:
        assert "from_dict" not in vars(cls) and "as_dict" not in vars(cls), cls
        assert all("kind" in spec.metadata for spec in fields(cls)), cls


class TestHostileInputs:
    """Inputs that once escaped ``ProtocolError`` (and became HTTP 500s)."""

    def test_deep_nesting_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="maximum recursion depth"):
            parse_json("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ProtocolError, match="maximum recursion depth"):
            parse_json('{"samples": ' + "[" * 100_000 + "]" * 100_000 + "}")

    def test_integer_past_the_parser_digit_limit_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_json('{"ipc": 1' + "0" * 5000 + "}")

    @pytest.mark.parametrize("field", ["bandwidth_gbps", "cache_kb", "ipc"])
    def test_integer_too_large_for_a_float_is_a_protocol_error(self, field):
        body = {"agent": "web", "bandwidth_gbps": 1.0, "cache_kb": 1.0, "ipc": 1.0}
        body[field] = 10**400
        with pytest.raises(ProtocolError, match=f"{field} must be finite"):
            protocol.SampleRequest.from_dict(body)
        with pytest.raises(ProtocolError, match=rf"samples\[0\]: {field} must be finite"):
            protocol.BulkSampleRequest.from_dict({"samples": [body]})

    def test_huge_integer_in_a_number_map_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="cache_kb must be finite"):
            protocol.CapacityRequest.from_dict(
                {"capacities": {"membw_gbps": 1.0, "cache_kb": 10**400}}
            )
