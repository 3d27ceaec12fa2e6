"""The schema: class registry, IS-A DAG, excuse registry, and types.

The schema is the single source of truth the rest of the library consults:

* it implements the :class:`~repro.typesys.context.ClassGraph` protocol, so
  class-name types are interpreted against it;
* it indexes *excuses* globally -- any class may excuse a constraint on any
  other class, IS-A related or not (Section 5.3: the mechanism "does not
  utilize in any form the topology of the inheritance hierarchy");
* it computes the paper's class-to-type translation (Section 5.4): the
  *relaxed* constraint of ``(B, p)`` is the conditional type
  ``R + S1/E1 + ...`` collecting every excuse registered against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    CyclicHierarchyError,
    DuplicateClassError,
    UnknownAttributeError,
    UnknownClassError,
)
from repro.schema.classdef import ClassDef
from repro.typesys.core import (
    ConditionalType,
    NoneType,
    RecordType,
    Type,
    UnionType,
)


@dataclass(frozen=True)
class Constraint:
    """One applicable constraint: ``IF x in owner THEN x.attribute in range``."""

    owner: str
    attribute: str
    range: Type

    def __str__(self) -> str:
        return f"({self.owner}, {self.attribute}): {self.range}"


def range_mentions_none(range_type: Type) -> bool:
    """Whether a declared range speaks about applicability, so that an
    unset (INAPPLICABLE) value is a real value that must be checked."""
    if isinstance(range_type, NoneType):
        return True
    if isinstance(range_type, ConditionalType):
        return range_mentions_none(range_type.base) or any(
            range_mentions_none(a.type) for a in range_type.alternatives)
    return False


def _entity_sensitive(range_type: Type) -> bool:
    """Whether membership of a value in the range can depend on the
    *owner entity's* class memberships (conditional alternatives are
    guarded by the owner; record fields re-anchor the owner to the value
    itself and are therefore not entity-sensitive)."""
    if isinstance(range_type, ConditionalType):
        return True
    if isinstance(range_type, UnionType):
        return any(_entity_sensitive(m) for m in range_type.members)
    return False


@dataclass(frozen=True)
class IndexedConstraint:
    """One precomputed row of the conformance index: the constraint, the
    excuses registered against it, and two predicates the checker would
    otherwise re-derive per call."""

    constraint: Constraint
    excuses: Tuple["ExcuseEntry", ...]
    mentions_none: bool
    entity_sensitive: bool


@dataclass(frozen=True)
class ExcuseEntry:
    """One registered excuse: ``excusing_class`` excuses the constraint on
    ``(target from the registry key)`` and offers ``range`` as the
    alternative."""

    excusing_class: str
    range: Type

    def __str__(self) -> str:
        return f"{self.range}/{self.excusing_class}"


class Schema:
    """A mutable registry of class definitions.

    Mutations (``add_class``, ``replace_class``, ``remove_class``)
    invalidate the internal caches; reads are cached and cheap.
    """

    def __init__(self, classes: Iterable[ClassDef] = ()) -> None:
        self._classes: Dict[str, ClassDef] = {}
        self._ancestors: Dict[str, frozenset] = {}
        self._excuse_table: Optional[Dict[Tuple[str, str],
                                          Tuple[ExcuseEntry, ...]]] = None
        # class name -> rows for constraints *declared on* that class.
        self._declared_index: Dict[str, Tuple[IndexedConstraint, ...]] = {}
        # class name -> attribute -> rows from the whole IS-A closure.
        self._constraint_index: Dict[
            str, Dict[str, Tuple[IndexedConstraint, ...]]] = {}
        self._version = 0
        for cdef in classes:
            self.add_class(cdef)

    # ------------------------------------------------------------------
    # Registry mutations
    # ------------------------------------------------------------------

    def add_class(self, cdef: ClassDef) -> None:
        """Register a class.  Parents must already exist; excuse targets
        may be forward references (validated by the SchemaValidator)."""
        if cdef.name in self._classes:
            raise DuplicateClassError(cdef.name)
        for parent in cdef.parents:
            if parent == cdef.name:
                raise CyclicHierarchyError(
                    f"class {cdef.name!r} cannot be its own parent")
            if parent not in self._classes:
                raise UnknownClassError(parent)
        self._classes[cdef.name] = cdef
        self._invalidate()

    def replace_class(self, cdef: ClassDef) -> ClassDef:
        """Swap in a new definition for an existing class; returns the old
        one.  Used by schema evolution (Section 6: a modification "is
        propagated to all its subclasses; this may result in unexcused
        contradictions being found by the compiler")."""
        if cdef.name not in self._classes:
            raise UnknownClassError(cdef.name)
        for parent in cdef.parents:
            if parent not in self._classes:
                raise UnknownClassError(parent)
        old = self._classes[cdef.name]
        self._classes[cdef.name] = cdef
        self._invalidate()
        if any(cdef.name in self.ancestors(parent)
               for parent in cdef.parents):
            self._classes[cdef.name] = old
            self._invalidate()
            raise CyclicHierarchyError(
                f"replacing {cdef.name!r} would create an IS-A cycle")
        return old

    def remove_class(self, name: str) -> ClassDef:
        """Remove a class that no other class references as a parent."""
        if name not in self._classes:
            raise UnknownClassError(name)
        dependents = [
            c.name for c in self._classes.values()
            if name in c.parents and c.name != name
        ]
        if dependents:
            raise CyclicHierarchyError(
                f"cannot remove {name!r}: it is a parent of "
                f"{', '.join(sorted(dependents))}")
        removed = self._classes.pop(name)
        self._invalidate()
        return removed

    def _invalidate(self) -> None:
        self._ancestors.clear()
        self._excuse_table = None
        self._declared_index.clear()
        self._constraint_index.clear()
        self._version += 1

    @property
    def version(self) -> int:
        """Monotone mutation counter; bumps whenever the caches (ancestors,
        excuse registry, constraint index) are invalidated.  External
        caches keyed on schema-derived data compare against it."""
        return self._version

    # ------------------------------------------------------------------
    # ClassGraph protocol + hierarchy queries
    # ------------------------------------------------------------------

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def get(self, name: str) -> ClassDef:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def classes(self) -> Iterator[ClassDef]:
        return iter(self._classes.values())

    def class_names(self) -> Tuple[str, ...]:
        return tuple(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def ancestors(self, name: str) -> frozenset:
        """All classes ``name`` IS-A, including itself."""
        cached = self._ancestors.get(name)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cdef = self._classes.get(current)
            if cdef is not None:
                stack.extend(cdef.parents)
        result = frozenset(seen)
        self._ancestors[name] = result
        return result

    def proper_ancestors(self, name: str) -> frozenset:
        return self.ancestors(name) - {name}

    def descendants(self, name: str) -> frozenset:
        """All classes that are ``name`` or IS-A ``name``."""
        self.get(name)
        return frozenset(
            c for c in self._classes if name in self.ancestors(c)
        )

    def children(self, name: str) -> Tuple[str, ...]:
        self.get(name)
        return tuple(
            c.name for c in self._classes.values() if name in c.parents
        )

    def roots(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self._classes.values() if not c.parents)

    def is_subclass(self, sub: str, sup: str) -> bool:
        if sub == sup:
            return sub in self._classes or True
        if sub not in self._classes:
            return False
        return sup in self.ancestors(sub)

    def effective_record(self, name: str) -> Optional[RecordType]:
        """The record type a class denotes structurally: every applicable
        attribute with its most specific *declared* range.  Used by the
        Cardelli-style classes-as-record-types subtype rule."""
        if name not in self._classes:
            return None
        fields: Dict[str, Type] = {}
        for attr_name in self.applicable_attribute_names(name):
            constraints = self.attribute_constraints(name, attr_name)
            fields[attr_name] = constraints[0].range
        return RecordType(fields)

    # ------------------------------------------------------------------
    # Constraints and excuses
    # ------------------------------------------------------------------

    def applicable_attribute_names(self, name: str) -> Tuple[str, ...]:
        """Attribute names applicable to instances of ``name`` (declared
        anywhere along its ancestry), in deterministic order."""
        names: Set[str] = set()
        for ancestor in self.ancestors(name):
            names.update(a.name for a in self.get(ancestor).attributes)
        return tuple(sorted(names))

    def declared_constraints(self, name: str) -> Tuple[Constraint, ...]:
        cdef = self.get(name)
        return tuple(
            Constraint(name, a.name, a.range) for a in cdef.attributes
        )

    def applicable_constraints(self, name: str) -> Tuple[Constraint, ...]:
        """Every constraint an instance of ``name`` is subject to:
        declarations on the class itself and on all its ancestors."""
        out: List[Constraint] = []
        for ancestor in sorted(self.ancestors(name)):
            out.extend(self.declared_constraints(ancestor))
        return tuple(out)

    def attribute_constraints(self, name: str,
                              attribute: str) -> Tuple[Constraint, ...]:
        """The constraints on ``attribute`` applicable to ``name``,
        most-specific owners first.  Raises if the attribute is not
        applicable at all ("supervisor is not applicable to arbitrary
        persons")."""
        found = [
            c for c in self.applicable_constraints(name)
            if c.attribute == attribute
        ]
        if not found:
            raise UnknownAttributeError(name, attribute)

        owners = [c.owner for c in found]

        def specificity(c: Constraint) -> int:
            # Owners lower in the hierarchy first; ties broken by name for
            # determinism.  (Counting uses a snapshot of the owners:
            # list.sort empties the list while running, so the key function
            # must not iterate `found` itself.)
            return sum(
                1 for other in owners if self.is_subclass(c.owner, other)
            )

        found.sort(key=lambda c: (-specificity(c), c.owner))
        return tuple(found)

    def _excuses(self) -> Dict[Tuple[str, str], Tuple[ExcuseEntry, ...]]:
        if self._excuse_table is None:
            index: Dict[Tuple[str, str], List[ExcuseEntry]] = {}
            for cdef in self._classes.values():
                for attr in cdef.attributes:
                    for ref in attr.excuses:
                        key = (ref.class_name, ref.attribute)
                        index.setdefault(key, []).append(
                            ExcuseEntry(cdef.name, attr.range))
            self._excuse_table = {
                key: tuple(sorted(entries,
                                  key=lambda e: (e.excusing_class,
                                                 str(e.range))))
                for key, entries in index.items()
            }
        return self._excuse_table

    def excuses_against(self, owner: str,
                        attribute: str) -> Tuple[ExcuseEntry, ...]:
        """All excuses registered against the constraint ``(owner, attribute)``."""
        return self._excuses().get((owner, attribute), ())

    def excuse_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """All excused ``(class, attribute)`` pairs in the schema."""
        return tuple(sorted(self._excuses()))

    # ------------------------------------------------------------------
    # The conformance index (incremental engine substrate)
    # ------------------------------------------------------------------

    def declared_index(self, name: str) -> Tuple[IndexedConstraint, ...]:
        """Index rows for the constraints *declared on* ``name`` itself,
        in declaration order, with excuses and per-range predicates
        precomputed.  Cached until the next schema mutation."""
        cached = self._declared_index.get(name)
        if cached is not None:
            return cached
        cdef = self.get(name)
        rows = tuple(
            IndexedConstraint(
                Constraint(name, attr.name, attr.range),
                self.excuses_against(name, attr.name),
                range_mentions_none(attr.range),
                _entity_sensitive(attr.range),
            )
            for attr in cdef.attributes
        )
        self._declared_index[name] = rows
        return rows

    def constraint_table(
            self, name: str) -> Dict[str, Tuple[IndexedConstraint, ...]]:
        """The flattened conformance table of one class: every
        ``(class, attribute)`` constraint applicable to instances of
        ``name`` (from the whole IS-A closure), keyed by attribute, with
        owners in sorted order.  This is the per-class half of the
        incremental engine's index; per-entity profiles are merged from
        these by the checker."""
        cached = self._constraint_index.get(name)
        if cached is not None:
            return cached
        table: Dict[str, List[IndexedConstraint]] = {}
        for ancestor in sorted(self.ancestors(name)):
            for row in self.declared_index(ancestor):
                table.setdefault(row.constraint.attribute, []).append(row)
        frozen = {attr: tuple(rows) for attr, rows in table.items()}
        self._constraint_index[name] = frozen
        return frozen

    def is_excused_by_membership(self, owner: str, attribute: str,
                                 member_of: Iterable[str]) -> bool:
        """Whether membership in any of ``member_of`` (transitively) makes
        some excuse against ``(owner, attribute)`` applicable."""
        members = set(member_of)
        for entry in self.excuses_against(owner, attribute):
            if any(self.is_subclass(m, entry.excusing_class)
                   for m in members):
                return True
        return False

    # ------------------------------------------------------------------
    # The class-to-type translation (Section 5.4)
    # ------------------------------------------------------------------

    def relaxed_constraint(self, owner: str, attribute: str) -> Type:
        """The conditional type of ``attribute`` as stated on ``owner``:
        declared range plus one alternative per registered excuse.

        This is the paper's subtype assertion, e.g.::

            Patient < [treatedBy: Physician + Psychologist/Alcoholic]
        """
        cdef = self.get(owner)
        attr = cdef.attribute(attribute)
        if attr is None:
            raise UnknownAttributeError(owner, attribute)
        entries = self.excuses_against(owner, attribute)
        if not entries:
            return attr.range
        return ConditionalType(
            attr.range,
            [(entry.range, entry.excusing_class) for entry in entries],
        )

    def attribute_type(self, name: str, attribute: str) -> Type:
        """The static type of ``x.attribute`` for ``x`` known (only) to be
        an instance of class ``name``: the relaxed constraint of the most
        specific declaring owner.

        When multiple incomparable owners declare the attribute (multiple
        inheritance), all their relaxed constraints apply conjunctively;
        this returns the first in specificity order -- use
        :meth:`attribute_constraints` for the full set.
        """
        constraints = self.attribute_constraints(name, attribute)
        best = constraints[0]
        return self.relaxed_constraint(best.owner, best.attribute)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def virtual_classes(self) -> Tuple[ClassDef, ...]:
        return tuple(c for c in self._classes.values() if c.virtual)

    def virtual_classes_with_origin_owner(
            self, owner_class: str) -> Tuple[ClassDef, ...]:
        """Virtual classes embedded at some attribute of ``owner_class``."""
        return tuple(
            c for c in self._classes.values()
            if c.virtual and c.origin is not None
            and c.origin.owner_class == owner_class
        )

    def virtual_classes_with_origin(self, owner_class: str,
                                    attribute: str) -> Tuple[ClassDef, ...]:
        return tuple(
            c for c in self._classes.values()
            if c.virtual and c.origin is not None
            and c.origin.owner_class == owner_class
            and c.origin.attribute == attribute
        )

    def copy(self) -> "Schema":
        """A mutable clone sharing the (frozen) class definitions.

        The clone carries the version counter forward, so a mutation of
        the clone yields a version strictly greater than any the original
        ever exposed.  Online schema evolution relies on this: plan-cache
        entries and compiled profiles are keyed by schema version, and a
        successor epoch built from a copy must never collide with keys
        minted under the original.
        """
        clone = Schema()
        clone._classes = dict(self._classes)
        clone._version = self._version
        return clone

    def __str__(self) -> str:
        return "\n\n".join(str(c) for c in self._classes.values())
