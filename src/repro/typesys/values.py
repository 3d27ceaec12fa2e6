"""Run-time values and membership of values in types.

The denotational reading of a type is a set of run-time values;
:func:`type_contains` decides that membership.  It is the semantic anchor
for the whole library: the subtype checker is sound with respect to it, and
the object store uses it to enforce the paper's conformance rule.

Value universe
--------------
* Python ``int`` / ``str`` / ``bool`` / ``float`` for the primitives.
* :class:`EnumSymbol` for symbolic constants such as ``'Dove``.
* :data:`INAPPLICABLE` -- the sole value of type ``None`` (an attribute
  that is "incorrectly applied" to the object, Section 4.1).
* *Entities*: any object whose class defines ``memberships`` (an
  iterable of class names) and ``get_value(attr)``; the object store's
  instances do.
* :class:`RecordValue` -- an anonymous record value for inline record
  types (Section 2b).

Conditional types need to know the *owner* of the attribute being checked
(the alternative ``T/E`` applies only when the owner is a member of ``E``),
so :func:`type_contains` takes an optional ``owner``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.typesys.context import ClassGraph, EmptyClassGraph
from repro.typesys.core import (
    AnyEntityType,
    AnyType,
    ClassType,
    ConditionalType,
    EnumerationType,
    IntRangeType,
    NoneType,
    PrimitiveType,
    RecordType,
    Type,
    UnionType,
)

_EMPTY_GRAPH = EmptyClassGraph()


@dataclass(frozen=True)
class EnumSymbol:
    """A symbolic constant, written ``'Dove`` in the CDL."""

    name: str

    def __str__(self) -> str:
        return f"'{self.name}"


class Inapplicable:
    """Singleton marker: the attribute does not apply to this object."""

    _instance = None

    def __new__(cls) -> "Inapplicable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INAPPLICABLE"

    def __bool__(self) -> bool:
        return False


INAPPLICABLE = Inapplicable()


class RecordValue:
    """An anonymous record value, e.g. an in-line address.

    Behaves as an immutable mapping from field name to value.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: Mapping[str, object] = None, **kwargs) -> None:
        merged = dict(fields or {})
        merged.update(kwargs)
        self._fields = merged

    def get_value(self, name: str):
        return self._fields.get(name, INAPPLICABLE)

    def field_names(self):
        return tuple(self._fields)

    def __getitem__(self, name: str):
        return self._fields[name]

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordValue):
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._fields.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._fields.items()))
        return f"RecordValue({inner})"


def is_entity(value) -> bool:
    """Whether a run-time value is an entity (a class instance).

    Decided from the type: ``memberships`` is looked up on the class and
    never evaluated -- it may be a property that copies a set or asks
    another process (a sharded store's remote handle).  ``get_value`` is
    a method; finding it on the value runs none of the value's code and
    turns every datum away first, at the cost of one failed lookup.
    """
    return hasattr(value, "get_value") and hasattr(type(value), "memberships")


def entity_is_member(value, class_name: str, graph: ClassGraph) -> bool:
    """Whether an entity is a member of ``class_name``, directly or through
    any of its recorded memberships (using the IS-A graph transitively)."""
    for m in value.memberships:
        if m == class_name or graph.is_subclass(m, class_name):
            return True
    return False


def type_contains(t: Type, value, graph: ClassGraph = None,
                  owner=None) -> bool:
    """Decide whether ``value`` belongs to the denotation of ``t``.

    ``owner`` is the entity whose attribute is being checked; it is only
    consulted by conditional types (their alternatives are guarded by the
    owner's class memberships).
    """
    if graph is None:
        graph = _EMPTY_GRAPH

    if isinstance(t, AnyType):
        return True

    if isinstance(t, UnionType):
        return any(type_contains(m, value, graph, owner) for m in t.members)

    if isinstance(t, ConditionalType):
        if type_contains(t.base, value, graph, owner):
            return True
        if owner is None or not is_entity(owner):
            return False
        return any(
            entity_is_member(owner, alt.condition, graph)
            and type_contains(alt.type, value, graph, owner)
            for alt in t.alternatives
        )

    if isinstance(t, NoneType):
        return value is INAPPLICABLE
    if value is INAPPLICABLE:
        return False

    if isinstance(t, PrimitiveType):
        if t.name == "Integer":
            return isinstance(value, int) and not isinstance(value, bool)
        if t.name == "String":
            return isinstance(value, str)
        if t.name == "Boolean":
            return isinstance(value, bool)
        if t.name == "Real":
            return (isinstance(value, float)
                    or (isinstance(value, int) and not isinstance(value, bool)))
        return False

    if isinstance(t, IntRangeType):
        return (isinstance(value, int) and not isinstance(value, bool)
                and t.lo <= value <= t.hi)

    if isinstance(t, EnumerationType):
        return isinstance(value, EnumSymbol) and value.name in t.symbols

    if isinstance(t, AnyEntityType):
        return is_entity(value)

    if isinstance(t, ClassType):
        return is_entity(value) and entity_is_member(value, t.name, graph)

    if isinstance(t, RecordType):
        if isinstance(value, RecordValue) or is_entity(value):
            getter = value.get_value
        elif isinstance(value, Mapping):
            def getter(name, _m=value):
                return _m.get(name, INAPPLICABLE)
        else:
            return False
        return all(
            type_contains(ftype, getter(fname), graph, owner=value)
            for fname, ftype in t.fields
        )

    return False


def value_repr(value) -> str:
    """A short, stable human-readable rendering of a run-time value."""
    if value is INAPPLICABLE:
        return "INAPPLICABLE"
    if isinstance(value, EnumSymbol):
        return str(value)
    if is_entity(value):
        surrogate = getattr(value, "surrogate", None)
        if surrogate is not None:
            return f"<entity {surrogate}>"
        return "<entity>"
    return repr(value)
