"""The one value codec (``repro/codec.py``): every store value survives
``decode(encode(v))`` through real JSON text, and anything else is a
typed ``StorageError``; every edge writes its text with the one
encoder, ``codec.dumps``.  The WAL, the checkpoint file, the catch-up
dump, the shard pipe and the network protocol all carry values in this
encoding, so this is their fuzz suite too."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro import errors
from repro.errors import StorageError, Violation
from repro.net import protocol
from repro.objects.instance import Instance
from repro.objects.surrogate import Surrogate
from repro.obs import EngineStats
from repro.sharding import wire
from repro.storage.wal import WriteAheadLog, frame_record
from repro.typesys.values import INAPPLICABLE, EnumSymbol, RecordValue

from tests.faultfs import MemFS

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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from("abc"), _values,
                                max_size=3), max_size=6))
def test_value_mappings_round_trip_as_columns(rows):
    """Each attribute of many mappings is one column; ``null`` is a cell
    its mapping does not set, so a stored ``None`` keeps a tag."""
    names = sorted(set().union(*rows))
    columns = {name: codec.decode_column(json.loads(json.dumps(
        codec.encode_column(rows, name))), ENTITIES.get, codec.UNSET)
        for name in names}
    for i, row in enumerate(rows):
        back = {name: columns[name][i] for name in names
                if columns[name][i] is not codec.UNSET}
        assert back.keys() == row.keys()
        assert all(_same(back[name], row[name]) for name in row)


@given(st.text(max_size=6).filter(
    lambda tag: tag not in ("na", "enum", "ref", "rec", "none")))
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


# ----------------------------------------------------------------------
# The one text encoder (``codec.dumps``) behind every edge
# ----------------------------------------------------------------------

def _record():
    values = {"name": "Zoë Ångström", "weight": 71.5,
              "ward": INAPPLICABLE, "treatedBy": ENTITIES[7],
              "home": RecordValue({"zip": 8001, "city": "Zürich"})}
    return {"seq": 4, "op": "create", "sid": 9, "cls": "Patient",
            "values": codec.encode_values(values)}


#: Compact, key-sorted, ASCII: one text for the WAL, the socket and the
#: shard pipe.
GOLDEN_TEXT = (
    '{"cls":"Patient","op":"create","seq":4,"sid":9,"values":{"home":'
    '{"$":"rec","fields":{"city":"Z\\u00fcrich","zip":8001}},"name":'
    '"Zo\\u00eb \\u00c5ngstr\\u00f6m","treatedBy":{"$":"ref","id":7},'
    '"ward":{"$":"na"},"weight":71.5}}')
GOLDEN_FRAME = b"\x00\x00\x00\xdc\xcc\xd3\x18\xf9" + GOLDEN_TEXT.encode()


def test_every_edge_encodes_the_golden_bytes():
    assert codec.dumps(_record()) == GOLDEN_TEXT
    assert frame_record(_record()) == GOLDEN_FRAME
    assert protocol.encode_frame(_record()) == GOLDEN_FRAME
    assert wire.encode_command(_record()) == GOLDEN_TEXT
    assert wire.encode_result(_record()) == GOLDEN_TEXT


def test_a_cyclic_payload_raises_and_leaves_the_log_as_it_was():
    cyclic = _record()
    cyclic["values"]["self"] = cyclic
    for encode in (frame_record, protocol.encode_frame,
                   wire.encode_command, codec.dumps):
        with pytest.raises(RecursionError):
            encode(cyclic)

    wal = WriteAheadLog("/w/log", fs=MemFS(), stats=EngineStats())
    wal.put("create", {"sid": 1}, wal.frame("create", {"sid": 1}))
    before = (wal.offset, wal.last_seq, wal.stats.wal_records)
    with pytest.raises(RecursionError):
        wal.frame("create", cyclic)
    assert (wal.offset, wal.last_seq, wal.stats.wal_records) == before
    wal.begin()
    wal.put("create", cyclic, wal.frame("create", cyclic))
    with pytest.raises(RecursionError):
        wal.seal()
    assert (wal.offset, wal.last_seq, wal.stats.wal_records) == before
    assert not wal.in_group
    assert wal.put("create", {"sid": 2}, wal.frame("create", {"sid": 2})
                   ) == before[1] + 1


def test_an_unencodable_record_is_refused_typed_where_it_is_framed():
    huge = dict(_record(), op="set", value=10 ** 5000)
    for encode in (frame_record, protocol.encode_frame,
                   wire.encode_command):
        with pytest.raises(StorageError, match="^op 'set': record cannot"):
            encode(huge)
    wal = WriteAheadLog("/w/log", fs=MemFS(), stats=EngineStats())
    with pytest.raises(StorageError, match="^op 'set'"):
        wal.frame("set", {"sid": 1, "value": 10 ** 5000})
    assert (wal.last_seq, wal.stats.wal_records) == (0, 0)


_VIOLATION = Violation("constraint", "Patient", "age", 999, "rule")
#: One instance of every library error with fields of each kind: plain,
#: tuple, vector token (a dict), ``Violation``, ``(sid, Violation)`` and
#: schema ``Diagnostic``s.
_ERRORS = [
    errors.UnknownClassError("X"), errors.CDLSyntaxError("m", 1, 2),
    errors.AmbiguousInheritanceError("C", "a", ("X", "Y")),
    errors.ConformanceError(3, _VIOLATION),
    errors.TransactionError(((3, _VIOLATION),)),
    errors.ReplicaLagError({"0": 4, "1": 2}, 3),
    errors.FrameTooLargeError(10, 5), errors.QueryRuntimeError("q"),
    errors.SchemaEvolutionError("C", "bad", (errors.Diagnostic(
        "error", "unexcused-contradiction", "C", "a", "m", "B"),))]


@pytest.mark.parametrize("exc", _ERRORS, ids=lambda e: type(e).__name__)
def test_every_error_round_trips_as_itself(exc):
    again = codec.decode_error(json.loads(codec.dumps(
        codec.encode_error(exc))))
    assert (type(again), str(again), vars(again)) == (
        type(exc), str(exc), vars(exc))


def test_an_unencodable_field_is_left_out_and_a_bug_is_a_storage_error():
    exc = errors.SchemaEvolutionError("X", "bad", (object(),))
    again = codec.decode_error(codec.encode_error(exc))
    assert (str(again), vars(again)) == (str(exc), {"class_name": "X"})
    bug = codec.decode_error(codec.encode_error(KeyError("k")))
    assert (type(bug), str(bug)) == (StorageError, "KeyError: 'k'")
