"""The excuse rule read plainly: the reference every checker is held to.

Section 5.1: an object ``x`` conforms when, for every class ``B`` it
belongs to (IS-A closed) and every attribute ``p`` declared on ``B`` with
range ``R``::

    x in B  ->  x.p in R  or  (x in E and x.p in S)

for the excuses ``(E, S)`` registered against ``(B, p)``.  This module
evaluates exactly that, re-deriving everything from the schema on every
call: ``schema.ancestors``, ``ClassDef.attributes``,
``schema.excuses_against`` and ``ConstraintSemantics.satisfies`` -- no
constraint index, no signature profiles, no membership deltas.  It is
slow on purpose and lives with the tests on purpose: ``src/repro`` has
one checker, and the property suites require it to be indistinguishable
from this one.

A suite runs a store on the reference through the ``store.checker``
seam: ``oracle = on_reference(ObjectStore(schema))``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.schema.schema import Constraint, Schema, range_mentions_none
from repro.semantics.candidates import ConstraintSemantics
from repro.semantics.checker import ConformanceChecker, Violation
from repro.typesys.values import INAPPLICABLE


def closure(schema: Schema, entity) -> Set[str]:
    """Every class the entity belongs to, closed under IS-A."""
    classes: Set[str] = set()
    for membership in entity.memberships:
        classes |= schema.ancestors(membership)
    return classes


def reference_check(schema: Schema, semantics: ConstraintSemantics, entity,
                    require_values: bool = False,
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
            if semantics.satisfies(schema, entity, value, constraint,
                                   excuses):
                continue
            if unset and require_values:
                violations.append(Violation(
                    "missing-value", class_name, attr.name, value))
            else:
                violations.append(Violation(
                    "constraint", class_name, attr.name, value,
                    semantics.render_rule(constraint, excuses)))
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
        return reference_check(self.schema, self.semantics, entity,
                               self.require_values)

    def check_attribute(self, entity, attribute: str,
                        value) -> List[Violation]:
        return reference_check(self.schema, self.semantics, entity,
                               self.require_values, {attribute: value})

    def check_classes(self, entity,
                      class_names: Iterable[str]) -> List[Violation]:
        return self.check(entity)

    def check_membership_loss(self, entity,
                              removed: Iterable[str]) -> List[Violation]:
        return self.check(entity)


def on_reference(store):
    """Swap ``store``'s checker for the reference (same semantics, same
    values policy, same counter sink) and return the store."""
    old = store.checker
    store.checker = ReferenceChecker(
        store.schema, old.semantics, require_values=old.require_values,
        stats=old.stats)
    return store
