"""Lattice operations: normalization, meet, and join.

``normalize`` puts a type into a canonical form so structural equality can
be used: redundant conditional alternatives (already admitted by the base)
are dropped, duplicate union members removed, and nested structures
normalized recursively.

``meet`` and ``join`` are *best effort* bounds used by the query
checker.  ``join`` is total (it falls back to a union, or
``Any``).  ``meet`` returns ``None`` when no informative lower bound can be
computed -- callers treat that as "don't know", never as "empty", because
an object may be a member of two incomparable classes at once
(Section 4.1's renal-failure + hemorrhaging patient).
"""

from __future__ import annotations

from typing import Optional

from repro.typesys.context import ClassGraph, EmptyClassGraph
from repro.typesys.core import (
    ANY,
    ANY_ENTITY,
    INTEGER,
    AnyEntityType,
    AnyType,
    ClassType,
    Conditional,
    ConditionalType,
    EnumerationType,
    IntRangeType,
    NoneType,
    PrimitiveType,
    RecordType,
    Type,
    UnionType,
)
from repro.typesys.subtyping import is_subtype

_EMPTY_GRAPH = EmptyClassGraph()


def normalize(t: Type, graph: ClassGraph = None) -> Type:
    """Canonical form of ``t`` (idempotent)."""
    if graph is None:
        graph = _EMPTY_GRAPH
    if isinstance(t, ConditionalType):
        base = normalize(t.base, graph)
        kept = []
        for alt in t.alternatives:
            alt_type = normalize(alt.type, graph)
            if is_subtype(alt_type, base, graph):
                continue  # redundant excuse: already admitted by the base
            kept.append(Conditional(alt_type, alt.condition))
        # Merge duplicate (type, condition) pairs; absorb alternatives
        # subsumed by another alternative with a more general condition.
        pruned = []
        for i, alt in enumerate(kept):
            subsumed = False
            for j, other in enumerate(kept):
                if i == j:
                    continue
                covers = (graph.is_subclass(alt.condition, other.condition)
                          and is_subtype(alt.type, other.type, graph))
                if not covers:
                    continue
                covered_back = (
                    graph.is_subclass(other.condition, alt.condition)
                    and is_subtype(other.type, alt.type, graph))
                if covered_back:
                    # Equivalent alternatives: the earlier one wins.
                    if j < i:
                        subsumed = True
                        break
                else:
                    subsumed = True
                    break
            if not subsumed and alt not in pruned:
                pruned.append(alt)
        if not pruned:
            return base
        return ConditionalType(base, pruned)
    if isinstance(t, UnionType):
        members = [normalize(m, graph) for m in t.members]
        kept = []
        for i, m in enumerate(members):
            redundant = False
            for j, other in enumerate(members):
                if i == j:
                    continue
                if is_subtype(m, other, graph) and not (
                        is_subtype(other, m, graph) and j > i):
                    redundant = True
                    break
            if not redundant:
                kept.append(m)
        if len(kept) == 1:
            return kept[0]
        return UnionType(kept)
    if isinstance(t, RecordType):
        return RecordType({n: normalize(ft, graph) for n, ft in t.fields})
    if isinstance(t, IntRangeType):
        return t
    return t


def join(a: Type, b: Type, graph: ClassGraph = None) -> Type:
    """A least-ish upper bound of ``a`` and ``b`` (total)."""
    if graph is None:
        graph = _EMPTY_GRAPH
    if is_subtype(a, b, graph):
        return b
    if is_subtype(b, a, graph):
        return a
    if isinstance(a, IntRangeType) and isinstance(b, IntRangeType):
        return IntRangeType(min(a.lo, b.lo), max(a.hi, b.hi))
    if isinstance(a, IntRangeType) and b == INTEGER:
        return INTEGER
    if isinstance(b, IntRangeType) and a == INTEGER:
        return INTEGER
    if isinstance(a, EnumerationType) and isinstance(b, EnumerationType):
        return EnumerationType(a.symbols | b.symbols)
    if isinstance(a, ClassType) and isinstance(b, ClassType):
        common = _least_common_superclasses(a.name, b.name, graph)
        if len(common) == 1:
            return ClassType(next(iter(common)))
        if common:
            return UnionType([ClassType(c) for c in sorted(common)])
        return ANY_ENTITY
    if isinstance(a, (ClassType, AnyEntityType)) and isinstance(
            b, (ClassType, AnyEntityType)):
        return ANY_ENTITY
    if isinstance(a, RecordType) and isinstance(b, RecordType):
        a_fields = a.field_map()
        common = {
            name: join(a_fields[name], ft, graph)
            for name, ft in b.fields if name in a_fields
        }
        if common:
            return RecordType(common)
        return ANY
    if isinstance(a, (AnyType,)) or isinstance(b, (AnyType,)):
        return ANY
    try:
        return UnionType([a, b])
    except ValueError:
        return a


def meet(a: Type, b: Type, graph: ClassGraph = None) -> Optional[Type]:
    """A greatest-ish lower bound, or ``None`` when unknown."""
    if graph is None:
        graph = _EMPTY_GRAPH
    if is_subtype(a, b, graph):
        return a
    if is_subtype(b, a, graph):
        return b
    if isinstance(a, IntRangeType) and isinstance(b, IntRangeType):
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        if lo > hi:
            return None
        return IntRangeType(lo, hi)
    if isinstance(a, EnumerationType) and isinstance(b, EnumerationType):
        common = a.symbols & b.symbols
        if not common:
            return None
        return EnumerationType(common)
    if isinstance(a, RecordType) and isinstance(b, RecordType):
        fields = a.field_map()
        for name, ft in b.fields:
            if name in fields:
                lower = meet(fields[name], ft, graph)
                if lower is None:
                    return None
                fields[name] = lower
            else:
                fields[name] = ft
        return RecordType(fields)
    if isinstance(a, NoneType) or isinstance(b, NoneType):
        return None
    # Incomparable class types: their extents may legitimately intersect
    # (multi-membership), so we cannot name the meet -- report "unknown".
    return None


def disjoint(a: Type, b: Type, graph: ClassGraph = None) -> bool:
    """Whether ``a`` and ``b`` *provably* share no values.

    Conservative: returns ``False`` when in doubt.  Two incomparable class
    types are **not** disjoint -- an object may be a member of several
    classes at once (Section 4.1's renal-failure + hemorrhaging patient),
    and the paper's open-world reading never declares classes disjoint.
    """
    if graph is None:
        graph = _EMPTY_GRAPH
    if is_subtype(a, b, graph) or is_subtype(b, a, graph):
        return False
    if isinstance(a, UnionType):
        return all(disjoint(m, b, graph) for m in a.members)
    if isinstance(b, UnionType):
        return all(disjoint(a, m, graph) for m in b.members)
    if isinstance(a, ConditionalType):
        return disjoint(a.base, b, graph) and all(
            disjoint(alt.type, b, graph) for alt in a.alternatives)
    if isinstance(b, ConditionalType):
        return disjoint(b, a, graph)
    if isinstance(a, AnyType) or isinstance(b, AnyType):
        return False
    if isinstance(a, NoneType) or isinstance(b, NoneType):
        # NONE admits only INAPPLICABLE, which no other type admits, and
        # the subtype checks above already handled NONE vs NONE.
        return True
    kinds = {_value_kind(a), _value_kind(b)}
    if kinds == {"int", "real"}:
        return False  # every integer value is also a Real value
    if len(kinds) == 2:
        return True
    kind = next(iter(kinds))
    if kind == "int":
        lo_a, hi_a = _int_bounds(a)
        lo_b, hi_b = _int_bounds(b)
        return max(lo_a, lo_b) > min(hi_a, hi_b)
    if kind == "enum" and isinstance(a, EnumerationType) and isinstance(
            b, EnumerationType):
        return not (a.symbols & b.symbols)
    if kind == "record":
        if isinstance(a, RecordType) and isinstance(b, RecordType):
            a_fields = a.field_map()
            return any(
                name in a_fields and disjoint(a_fields[name], ft, graph)
                for name, ft in b.fields
            )
        return False  # class vs record/class: extents may intersect
    return False


_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _int_bounds(t: Type):
    if isinstance(t, IntRangeType):
        return t.lo, t.hi
    return _NEG_INF, _POS_INF


def _value_kind(t: Type) -> str:
    """Coarse partition of the value universe used by ``disjoint``."""
    if isinstance(t, IntRangeType):
        return "int"
    if isinstance(t, PrimitiveType):
        if t.name == "Integer":
            return "int"
        if t.name == "Real":
            return "real"
        if t.name == "String":
            return "string"
        if t.name == "Boolean":
            return "boolean"
        return "primitive:" + t.name
    if isinstance(t, EnumerationType):
        return "enum"
    if isinstance(t, (ClassType, AnyEntityType, RecordType)):
        # Entities and records live in one kind: a class instance can
        # satisfy a record type structurally.
        return "record"
    return "other"


def _least_common_superclasses(a: str, b: str, graph: ClassGraph) -> set:
    """Minimal elements of the common-ancestor set of two classes.

    Requires the graph to expose ``ancestors``; graphs that do not (the
    bare protocol) yield the empty set, and ``join`` falls back to
    ``AnyEntity``.
    """
    ancestors = getattr(graph, "ancestors", None)
    if ancestors is None:
        return set()
    common = set(ancestors(a)) & set(ancestors(b))
    return {
        c for c in common
        if not any(
            other != c and graph.is_subclass(other, c) for other in common
        )
    }
