"""The excuse rule read plainly: the reference every checker is held to.

Section 5.1: an object ``x`` conforms when, for every class ``B`` it
belongs to (IS-A closed) and every attribute ``p`` declared on ``B`` with
range ``R``::

    x in B  ->  x.p in R  or  (x in E and x.p in S)

for the excuses ``(E, S)`` registered against ``(B, p)``.  This module
evaluates exactly that, re-deriving everything from the schema on every
call: ``schema.ancestors``, ``ClassDef.attributes``,
``schema.excuses_against`` and ``ExcuseSemantics.satisfies`` -- no
constraint index, no signature profiles, no membership deltas, no
generated code.  It is slow on purpose and lives with the tests on
purpose: ``src/repro`` has one checker, and the property suites require
it to be indistinguishable from this one.

A suite runs a store on the reference through the ``store.checker``
seam: ``oracle = on_reference(ObjectStore(schema))``.

The Section 5.5 partition is read plainly here too:
:func:`reference_catalog` derives each signature's members, total
attributes and clean flag object by object, and :func:`unpruned_scan` is
the search without type deduction that E7 measures the pruned
``repro.objects.profiles.scan_attribute`` against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.objects.profiles import ScanStats
from repro.schema.schema import Constraint, Schema, range_mentions_none
from repro.semantics.candidates import ExcuseSemantics
from repro.semantics.checker import ConformanceChecker, Violation
from repro.typesys.values import INAPPLICABLE


def closure(schema: Schema, entity) -> Set[str]:
    """Every class the entity belongs to, closed under IS-A."""
    classes: Set[str] = set()
    for membership in entity.memberships:
        classes |= schema.ancestors(membership)
    return classes


#: The paper's final rule, applied one constraint at a time.
EXCUSE = ExcuseSemantics()


def reference_check(schema: Schema, entity, require_values: bool = False,
                    candidate: Optional[Dict[str, object]] = None
                    ) -> List[Violation]:
    """Every violation of ``entity``, in (sorted class, declaration)
    order then stray values by name -- the order the store reports.
    ``candidate`` reads the named attributes as the given values instead
    of the stored ones ("would the object conform if ...")."""
    values = {name: entity.get_value(name) for name in entity.value_names()}
    values.update(candidate or {})
    violations: List[Violation] = []
    declared: Set[str] = set()
    for class_name in sorted(closure(schema, entity)):
        for attr in schema.get(class_name).attributes:
            declared.add(attr.name)
            value = values.get(attr.name, INAPPLICABLE)
            unset = value is INAPPLICABLE
            if (unset and not require_values
                    and not range_mentions_none(attr.range)):
                continue    # nothing stored, nothing claimed about absence
            constraint = Constraint(class_name, attr.name, attr.range)
            excuses = schema.excuses_against(class_name, attr.name)
            if EXCUSE.satisfies(schema, entity, value, constraint, excuses):
                continue
            if unset and require_values:
                violations.append(Violation(
                    "missing-value", class_name, attr.name, value))
            else:
                violations.append(Violation(
                    "constraint", class_name, attr.name, value,
                    EXCUSE.render_rule(constraint, excuses)))
    for name in sorted(set(values) - declared):
        if values[name] is not INAPPLICABLE:
            violations.append(Violation(
                "inapplicable-attribute", "?", name, values[name]))
    return violations


class ReferenceChecker(ConformanceChecker):
    """A checker whose every entry point re-derives the whole object.

    The scoped entry points exist so a mutation can check less; the
    reference ignores the scope and checks everything, so a store running
    on it rejects a mutation exactly when the mutated object stops
    conforming."""

    def expanded_memberships(self, entity) -> Set[str]:
        return closure(self.schema, entity)

    def check(self, entity) -> List[Violation]:
        return reference_check(self.schema, entity, self.require_values)

    def sweep(self, entities):
        return [(entity, violation) for entity in entities
                for violation in self.check(entity)]

    def check_attribute(self, entity, attribute: str,
                        value) -> List[Violation]:
        return reference_check(self.schema, entity, self.require_values,
                               {attribute: value})

    def check_classes(self, entity,
                      class_names: Iterable[str]) -> List[Violation]:
        return self.check(entity)

    def check_membership_loss(self, entity,
                              removed: Iterable[str]) -> List[Violation]:
        return self.check(entity)


def on_reference(store):
    """Swap ``store``'s checker for the reference (same values policy,
    same counter sink) and return the store."""
    old = store.checker
    store.checker = ReferenceChecker(
        store.schema, require_values=old.require_values, stats=old.stats)
    return store


def reference_catalog(store, exclude=()) -> list:
    """``[(sorted classes, member sids, sorted total, clean)]`` in the
    order signatures first occur among ``store``'s objects outside
    ``exclude``: a signature's total attributes are those every one of
    its members has a value for; it is clean when no member is dirty."""
    visible = [obj for obj in store.instances()
               if obj.surrogate not in exclude]
    signatures: list = []
    for obj in visible:
        if obj.memberships not in signatures:
            signatures.append(obj.memberships)
    out = []
    for signature in signatures:
        members = [obj for obj in visible if obj.memberships == signature]
        names = {name for obj in members for name in obj.value_names()}
        out.append((
            sorted(signature), [obj.surrogate.id for obj in members],
            sorted(name for name in names if all(
                obj.get_value(name) is not INAPPLICABLE for obj in members)),
            not any(obj.surrogate in store._dirty for obj in members)))
    return out


def unpruned_scan(schema: Schema, catalog, class_name: str, attribute: str,
                  stats: ScanStats):
    """``scan_attribute`` without type deduction: every profile is read
    and each row's membership tested (E7's baseline)."""
    for profile in sorted(catalog.values(), key=lambda p: p.classes):
        stats.partitions_considered += 1
        stats.partitions_scanned += 1
        relevant = any(schema.is_subclass(m, class_name)
                       for m in profile.classes)
        for obj in profile.members:
            stats.rows_read += 1
            value = obj.get_value(attribute)
            if relevant and value is not INAPPLICABLE:
                stats.rows_matched += 1
                yield obj.surrogate, value
