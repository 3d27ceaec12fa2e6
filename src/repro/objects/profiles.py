"""The paper's storage partition (Section 5.5), read off the live store.

Objects sharing a direct-membership signature share a record format (the
"semantic grouping" of Daplex), so an exceptional subclass with
structurally incompatible values gets "a logical file with a distinct
record format"; then "the type deduction algorithm can ... reduce the
run-time search for the file where some particular object's attribute
value is located".  :func:`profile_catalog` is that partition in one walk
of the instances' own fields (per signature: members, the attributes set
on *every* member, and whether none is dirty) -- a shard's ``shard_map``
is this walk, serialised per request.  :func:`record_format` is a
signature's fields and kinds (a ``None``-ranged attribute gets no field;
surrogates never force a partition).  :func:`scan_attribute` is the
deduction-pruned search that E7 measures against the unpruned reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.errors import StorageError, UnknownAttributeError, UnknownClassError
from repro.schema.schema import Schema
from repro.typesys.core import (
    AnyEntityType, ClassType, EnumerationType, IntRangeType, NoneType,
    PrimitiveType, RecordType, Type)
from repro.typesys.values import INAPPLICABLE

__all__ = ["Profile", "ScanStats", "kind_of_range", "profile_catalog",
           "record_format", "scan_attribute"]

_PRIMITIVE_KINDS = {"Integer": "int", "Real": "real", "Boolean": "bool",
                    "String": "string"}


class Profile:
    """One signature's share of a store: its sorted ``classes``, its
    ``members`` in store order, the attribute names every member has set
    (``total``), and whether none of them is dirty (``clean``)."""

    __slots__ = ("classes", "members", "total", "clean")

    def __init__(self, classes: Tuple[str, ...], members: list, total: set,
                 clean: bool) -> None:
        self.classes, self.members = classes, members
        self.total, self.clean = total, clean


@dataclass
class ScanStats:
    """How much work a scan did (pruning makes these smaller)."""

    partitions_considered: int = 0
    partitions_scanned: int = 0
    rows_read: int = 0
    rows_matched: int = 0


def profile_catalog(store, exclude=()) -> Dict[FrozenSet[str], Profile]:
    """``{signature: Profile}`` over ``store``'s objects whose surrogate
    is not in ``exclude``, in first-seen order."""
    dirty, skip = store._dirty, set(exclude)
    catalog: Dict[FrozenSet[str], Profile] = {}
    for obj in store.instances():
        surrogate = obj.surrogate
        if surrogate in skip:
            continue
        key = obj._memberships
        profile = catalog.get(key)
        if profile is None:
            catalog[key] = Profile(tuple(sorted(key)), [obj],
                                   set(obj._values), surrogate not in dirty)
        else:
            profile.members.append(obj)
            profile.total.intersection_update(obj._values)
            if surrogate in dirty:
                profile.clean = False
    return catalog


def kind_of_range(range_type: Type) -> Optional[str]:
    """The field kind of a declared range; ``None`` for the ``None``
    range (the attribute is inapplicable and gets no field)."""
    if isinstance(range_type, NoneType):
        return None
    if isinstance(range_type, IntRangeType):
        return "int"
    if isinstance(range_type, PrimitiveType):
        return _PRIMITIVE_KINDS.get(range_type.name, "string")
    if isinstance(range_type, EnumerationType):
        return "symbol"
    if isinstance(range_type, (ClassType, AnyEntityType)):
        return "surrogate"
    if isinstance(range_type, RecordType):
        return "record"
    # Conditional types are never *declared*: exceptional alternatives
    # live in other partitions.
    raise StorageError(f"range {range_type} has no storage kind")


def record_format(schema: Schema, signature: Iterable[str]) -> Dict[str, str]:
    """``{field: kind}``, by field name, for objects whose direct
    memberships are ``signature``: one field per applicable attribute,
    typed by its most specific declared range across the signature."""
    names = sorted(set(signature))
    attributes = sorted({attribute for name in names for attribute
                         in schema.applicable_attribute_names(name)})
    kinds = {attribute: _field_kind(schema, names, attribute)
             for attribute in attributes}
    return {name: kind for name, kind in kinds.items() if kind is not None}


def _field_kind(schema: Schema, names: Iterable[str],
                attribute: str) -> Optional[str]:
    """``attribute``'s field kind in the format of signature ``names``:
    ``None`` when it is inapplicable or ``None``-ranged there."""
    best = None
    for name in names:
        try:
            candidate = schema.attribute_constraints(name, attribute)[0]
        except UnknownAttributeError:
            continue
        if best is None or schema.is_subclass(candidate.owner, best.owner):
            best = candidate
    return None if best is None else kind_of_range(best.range)


def scan_attribute(schema: Schema, catalog: Dict[FrozenSet[str], Profile],
                   class_name: str, attribute: str,
                   stats: Optional[ScanStats] = None
                   ) -> Iterator[Tuple[object, object]]:
    """Yield ``(surrogate, value)`` for every member of ``class_name``
    with ``attribute`` set, reading only the profiles type deduction
    cannot rule out: a signature without a subclass of ``class_name``
    holds none of its instances, and a format without the field holds no
    value of it."""
    if not schema.has_class(class_name):
        raise UnknownClassError(class_name)
    if stats is None:
        stats = ScanStats()
    for profile in sorted(catalog.values(), key=lambda p: p.classes):
        stats.partitions_considered += 1
        if not any(schema.is_subclass(m, class_name)
                   for m in profile.classes):
            continue
        if _field_kind(schema, profile.classes, attribute) is None:
            continue
        stats.partitions_scanned += 1
        for obj in profile.members:
            stats.rows_read += 1
            value = obj.get_value(attribute)
            if value is not INAPPLICABLE:
                stats.rows_matched += 1
                yield obj.surrogate, value
