"""The one value codec (``repro/codec.py``): every store value survives
``decode(encode(v))`` through real JSON text, and anything else is a
typed ``StorageError``.  The WAL, the checkpoint file, the catch-up
dump, the shard pipe and the network protocol all carry values in this
encoding, so this is their fuzz suite too."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.errors import StorageError
from repro.objects.instance import Instance
from repro.objects.surrogate import Surrogate
from repro.typesys.values import INAPPLICABLE, EnumSymbol, RecordValue

#: sid -> the entity a reference decodes to (identity must survive).
ENTITIES = {sid: Instance(Surrogate(sid), ("Ward",))
            for sid in (1, 7, 2**40)}

_names = st.text(min_size=1, max_size=8)
_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),                       # incl. unicode, "$"
    st.just(INAPPLICABLE),
    _names.map(EnumSymbol),
    st.sampled_from(sorted(ENTITIES)).map(ENTITIES.get),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.dictionaries(_names, inner, max_size=4).map(
        RecordValue),
    max_leaves=12)


def _same(left, right) -> bool:
    if isinstance(left, RecordValue):
        return (isinstance(right, RecordValue)
                and set(left.field_names()) == set(right.field_names())
                and all(_same(left.get_value(n), right.get_value(n))
                        for n in left.field_names()))
    if isinstance(left, Instance) or left is INAPPLICABLE:
        return left is right
    return type(left) is type(right) and left == right


@settings(max_examples=300, deadline=None)
@given(_values)
def test_every_value_round_trips_through_json(value):
    text = json.dumps(codec.encode_value(value))
    assert _same(codec.decode_value(json.loads(text), ENTITIES.get), value)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_names, _values, max_size=5))
def test_value_mappings_round_trip(values):
    encoded = json.loads(json.dumps(codec.encode_values(values)))
    decoded = codec.decode_values(encoded, ENTITIES.get)
    assert decoded.keys() == values.keys()
    assert all(_same(decoded[name], values[name]) for name in values)


@given(st.text(max_size=6).filter(
    lambda tag: tag not in ("na", "enum", "ref", "rec")))
def test_unknown_tag_is_a_typed_error(tag):
    with pytest.raises(StorageError):
        codec.decode_value({"$": tag, "id": 1, "name": "x"}, ENTITIES.get)


def test_what_is_not_a_store_value_is_refused():
    for junk in (object(), {"a": 1}, [1, 2], {1, 2}, b"bytes"):
        with pytest.raises(StorageError):
            codec.encode_value(junk)


def test_references_by_id():
    ward = ENTITIES[7]
    assert codec.encode_value(ward) == codec.ref(7) == {"$": "ref", "id": 7}
    assert codec.ref_sid(codec.ref(7)) == 7
    assert codec.ref_sid(codec.encode_value(EnumSymbol("x"))) is None
    assert codec.ref_sid("plain") is None
    assert codec.is_encoded(codec.ref(7)) and codec.is_encoded(codec.NA)
    assert not codec.is_encoded({"a": 1}) and not codec.is_encoded(7)
