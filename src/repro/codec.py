"""The value codec: run-time store values as JSON, one format everywhere.

The WAL, the checkpoint file, the catch-up dump, the shard pipe and the
network protocol all carry attribute values in this encoding, and this
module is the only one that knows it: primitives (``int`` / ``float`` /
``str`` / ``bool`` / ``None``) pass through as JSON, everything else is
a tagged object --

====================  =========================================
value                 encoding
====================  =========================================
``INAPPLICABLE``      ``{"$": "na"}``
``EnumSymbol(n)``     ``{"$": "enum", "name": n}``
entity (by identity)  ``{"$": "ref", "id": sid}``
``RecordValue``       ``{"$": "rec", "fields": {name: value}}``
====================  =========================================

Entities travel by surrogate id; :func:`decode_value` hands each id to
the caller's ``resolve(sid)``, the one seam that decides what an id
means at that edge (a live instance, a router handle, the id itself).

Every edge writes its JSON text with one encoder, :data:`dumps`: compact,
key-sorted, ASCII, no per-container cycle check since every payload is a
tree (a cyclic one still raises ``RecursionError`` before any text).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional

from repro.errors import StorageError
from repro.typesys.values import (
    INAPPLICABLE,
    EnumSymbol,
    RecordValue,
    is_entity,
)

__all__ = ["NA", "decode_value", "decode_values", "dumps", "encode_value",
           "encode_values", "is_encoded", "ref", "ref_sid"]

dumps = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                         check_circular=False).encode

#: The encoding of ``INAPPLICABLE`` (shared: encoders never mutate it).
NA = {"$": "na"}


def ref(sid: int) -> Dict[str, object]:
    """The encoding of the entity with surrogate id ``sid`` -- what a
    client puts in ``values`` to reference an object it knows by id."""
    return {"$": "ref", "id": int(sid)}


def ref_sid(encoded) -> Optional[int]:
    """The surrogate id an encoded entity reference names; None for
    any other encoded value."""
    if isinstance(encoded, dict) and encoded.get("$") == "ref":
        return encoded["id"]
    return None


def is_encoded(value) -> bool:
    """Whether ``value`` is already a tagged encoding (``ref(sid)``, or
    an encoding a caller round-tripped from a read)."""
    return isinstance(value, dict) and "$" in value


def encode_value(value) -> object:
    """A JSON-safe encoding of one run-time store value."""
    # Fast path: primitives pass through (the common case on the WAL
    # hot path; `bool` before `int` is irrelevant here since both pass).
    kind = type(value)
    if kind is int or kind is str or kind is float or kind is bool \
            or value is None:
        return value
    if value is INAPPLICABLE:
        return NA
    if isinstance(value, EnumSymbol):
        return {"$": "enum", "name": value.name}
    if isinstance(value, RecordValue):
        return {"$": "rec",
                "fields": {name: encode_value(value.get_value(name))
                           for name in value.field_names()}}
    if is_entity(value):
        surrogate = getattr(value, "surrogate", None)
        if surrogate is None:
            raise StorageError(
                "cannot encode an entity value without a surrogate "
                "(only store-resident entities travel)")
        return {"$": "ref", "id": surrogate.id}
    if isinstance(value, (int, float, str, bool)):
        return value
    raise StorageError(
        f"value {value!r} of type {type(value).__name__} is not "
        "serializable")


def decode_value(encoded, resolve: Callable[[int], object]):
    """Invert :func:`encode_value`; ``resolve`` maps a surrogate id back
    to whatever stands for the entity at the decoding edge."""
    if isinstance(encoded, dict):
        tag = encoded.get("$")
        if tag == "na":
            return INAPPLICABLE
        if tag == "enum":
            return EnumSymbol(encoded["name"])
        if tag == "ref":
            return resolve(encoded["id"])
        if tag == "rec":
            return RecordValue({
                name: decode_value(child, resolve)
                for name, child in encoded["fields"].items()})
        raise StorageError(f"unknown value tag {tag!r}")
    return encoded


def encode_values(values: Dict[str, object]) -> Dict[str, object]:
    """:func:`encode_value` over an attribute-value mapping."""
    out = {}
    for name, value in values.items():
        kind = type(value)
        if kind is int or kind is str or kind is float or kind is bool:
            out[name] = value
        else:
            out[name] = encode_value(value)
    return out


def decode_values(encoded: Dict[str, object],
                  resolve: Callable[[int], object]) -> Dict[str, object]:
    # Primitives decode to themselves: only a dict is worth a call.
    return {name: decode_value(value, resolve) if isinstance(value, dict)
            else value for name, value in encoded.items()}
