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

Errors cross every edge through :func:`encode_error`: ``{"type": class
name, "msg": str(exc), "fields": vars(exc)}``, each field a value as
above, a ``{"$": "violation"}`` record (as a ``violations`` reply lists
them), a list (a tuple) or a ``{"$": "map"}``; one that fails is left out.
A non-library exception (a bug) travels as a ``StorageError`` naming it.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional

from repro import errors
from repro.errors import ReproError, StorageError, Violation
from repro.typesys.values import (
    INAPPLICABLE,
    EnumSymbol,
    RecordValue,
    is_entity,
)

__all__ = ["NA", "decode_error", "decode_value", "decode_values",
           "decode_violation", "dumps", "encode_error", "encode_value",
           "encode_values", "encode_violation", "is_encoded", "ref",
           "ref_sid"]

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


def encode_violation(violation: Violation) -> Dict[str, object]:
    return {"$": "violation", "kind": violation.kind,
            "class": violation.class_name, "attr": violation.attribute,
            "value": encode_value(violation.value), "rule": violation.rule}


def decode_violation(encoded, resolve: Callable[[int], object]) -> Violation:
    return Violation(encoded["kind"], encoded["class"], encoded["attr"],
                     decode_value(encoded["value"], resolve), encoded["rule"])


#: Every library error class by name: what :func:`decode_error` builds.
_ERRORS = {cls.__name__: cls for cls in vars(errors).values()
           if isinstance(cls, type) and issubclass(cls, ReproError)}


def _encode_field(value):
    if isinstance(value, tuple):
        return [_encode_field(item) for item in value]
    if isinstance(value, dict):
        return {"$": "map", "items": {str(key): _encode_field(item)
                                      for key, item in value.items()}}
    return (encode_violation(value) if isinstance(value, Violation)
            else encode_value(value))


def _decode_field(encoded, resolve):
    if isinstance(encoded, list):
        return tuple(_decode_field(item, resolve) for item in encoded)
    tag = encoded.get("$") if isinstance(encoded, dict) else None
    if tag == "map":
        return {key: _decode_field(item, resolve)
                for key, item in encoded["items"].items()}
    return (decode_violation(encoded, resolve) if tag == "violation"
            else decode_value(encoded, resolve))


def encode_error(exc: BaseException) -> Dict[str, object]:
    """The wire form of a raised exception (see the module docstring)."""
    if not isinstance(exc, ReproError):
        return {"type": "StorageError", "msg": f"{type(exc).__name__}: {exc}"}
    fields = {}
    for name, value in vars(exc).items():
        try:
            fields[name] = _encode_field(value)
        except StorageError:    # not encodable: left out
            pass
    return {"type": type(exc).__name__, "msg": str(exc), "fields": fields}


def decode_error(payload, resolve: Callable[[int], object] = int
                 ) -> ReproError:
    """The exception :func:`encode_error` encoded, entity values
    through ``resolve``; an unknown class name is a ``StorageError``."""
    name, msg = payload.get("type"), payload.get("msg", "")
    cls = _ERRORS.get(name)
    if cls is None:
        return StorageError(f"{name}: {msg}")
    exc = cls.__new__(cls)
    exc.args = (msg,)
    exc.__dict__.update((field, _decode_field(value, resolve)) for field, value
                        in payload.get("fields", {}).items())
    return exc
