"""Conformance checking: does an entity satisfy its classes' constraints?

The checker applies a :class:`~repro.semantics.candidates.ConstraintSemantics`
(by default the paper's final one) to *every* constraint the entity is
subject to: for each class ``C`` the entity belongs to and each attribute
``p`` declared on ``C``, the rule for ``(C, p)`` -- relaxed by all excuses
registered against that pair -- must hold.  This is Section 5.1's rule for
objects belonging to several classes.

The checker also reports *applicability* errors: a value stored under an
attribute name that no membership class declares ("supervisor is not
applicable to arbitrary persons, only to employees").

Each entity's direct-membership signature resolves to a cached
*profile* -- the flattened ``(class, attribute)`` constraint rows with
excuses prefetched, merged from the schema's per-class
:meth:`~repro.schema.schema.Schema.constraint_table` index -- and the
membership-delta checks (:meth:`check_classes`,
:meth:`check_membership_loss`) let mutations re-derive only the
constraints they can affect.  The plain reading of the rule, with no
index and no cache, is ``tests/reference_model.py``; the property suites
compare every verdict here against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.obs import EngineStats
from repro.schema.schema import IndexedConstraint, Schema
from repro.semantics.candidates import ConstraintSemantics, ExcuseSemantics
from repro.typesys.values import INAPPLICABLE, value_repr


@dataclass(frozen=True)
class Violation:
    """One failed constraint on one entity."""

    kind: str  # "constraint" | "inapplicable-attribute" | "missing-value"
    class_name: str
    attribute: str
    value: object
    rule: str = ""

    def __str__(self) -> str:
        if self.kind == "inapplicable-attribute":
            return (f"attribute {self.attribute!r} is not applicable "
                    f"(no membership class declares it); value "
                    f"{value_repr(self.value)}")
        if self.kind == "missing-value":
            return (f"attribute {self.attribute!r} required by "
                    f"{self.class_name!r} has no value")
        return (f"value {value_repr(self.value)} violates "
                f"({self.class_name!r}, {self.attribute!r}); rule: "
                f"{self.rule}")


def expand_signature(schema: Schema,
                     memberships: Iterable[str]) -> FrozenSet[str]:
    """The IS-A closure of a direct-membership signature."""
    expanded: Set[str] = set()
    for m in memberships:
        expanded.update(schema.ancestors(m))
    return frozenset(expanded)


def profile_rows(schema: Schema,
                 expanded: FrozenSet[str]) -> Tuple[IndexedConstraint, ...]:
    """Every constraint row an entity with the given expanded memberships
    is subject to, in the deterministic (sorted owner, declaration) order
    the checker reports violations in.  Shared by the interpreted profile
    cache and the bulk loader's compiled profiles so both see the same
    rows in the same order."""
    rows: List[IndexedConstraint] = []
    for class_name in sorted(expanded):
        rows.extend(schema.declared_index(class_name))
    return tuple(rows)


class _Profile:
    """The precomputed conformance profile of one membership signature:
    every constraint row an entity with those direct memberships is
    subject to, in the deterministic (sorted owner, declaration) order the
    checker reports violations in."""

    __slots__ = ("expanded", "rows", "by_attr", "applicable")

    def __init__(self, expanded: FrozenSet[str],
                 rows: Tuple[IndexedConstraint, ...]) -> None:
        self.expanded = expanded
        self.rows = rows
        by_attr: Dict[str, List[IndexedConstraint]] = {}
        for row in rows:
            by_attr.setdefault(row.constraint.attribute, []).append(row)
        self.by_attr: Dict[str, Tuple[IndexedConstraint, ...]] = {
            attr: tuple(entries) for attr, entries in by_attr.items()
        }
        self.applicable = frozenset(self.by_attr)


class ConformanceChecker:
    """Checks entities against a schema under a chosen semantics.

    Parameters
    ----------
    schema:
        The schema supplying constraints and the excuse registry.
    semantics:
        The constraint semantics (default: the paper's final definition).
    require_values:
        When True, an attribute declared with a range that does not admit
        :data:`INAPPLICABLE` must have a value (strict database mode);
        when False missing values are ignored (useful while populating).
    stats:
        An :class:`~repro.obs.EngineStats` to increment; one is created
        when not supplied.
    """

    def __init__(self, schema: Schema,
                 semantics: Optional[ConstraintSemantics] = None,
                 require_values: bool = False,
                 stats: Optional[EngineStats] = None) -> None:
        self.schema = schema
        self.semantics = semantics or ExcuseSemantics()
        self.require_values = require_values
        self.stats = stats if stats is not None else EngineStats()
        self._profiles: Dict[FrozenSet[str], _Profile] = {}
        self._schema_version = schema.version

    # ------------------------------------------------------------------
    # Profiles (signature -> flattened constraint rows)
    # ------------------------------------------------------------------

    def _profile_for(self, memberships: FrozenSet[str]) -> _Profile:
        if self._schema_version != self.schema.version:
            self._profiles.clear()
            self._schema_version = self.schema.version
        profile = self._profiles.get(memberships)
        if profile is not None:
            self.stats.profile_hits += 1
            return profile
        self.stats.profile_misses += 1
        expanded = expand_signature(self.schema, memberships)
        profile = _Profile(expanded, profile_rows(self.schema, expanded))
        self._profiles[memberships] = profile
        return profile

    def _profile(self, entity) -> _Profile:
        return self._profile_for(entity.memberships)

    def rebind_schema(self, schema: Schema,
                      affected: FrozenSet[str]) -> None:
        """Point the checker at a successor schema epoch, keeping every
        cached profile the change provably cannot affect.

        A profile depends only on the declared constraints (and excuse
        registries) of the classes in its IS-A expansion, so it survives
        a schema change whose affected-class region is disjoint from
        that expansion.  The wholesale clear in :meth:`_profile_for`
        remains as the safety net for in-place schema mutation; this
        path is the delta-scoped one the online evolution pipeline uses.
        """
        survivors: Dict[FrozenSet[str], _Profile] = {}
        for signature, profile in self._profiles.items():
            if profile.expanded.isdisjoint(affected):
                survivors[signature] = profile
                self.stats.schema_profiles_retained += 1
            else:
                self.stats.schema_profiles_invalidated += 1
        self.schema = schema
        self._profiles = survivors
        self._schema_version = schema.version

    def expanded_memberships(self, entity) -> Set[str]:
        """All classes the entity belongs to, closed under IS-A."""
        return set(self._profile(entity).expanded)

    # ------------------------------------------------------------------
    # Per-row verdicts (shared by every entry point)
    # ------------------------------------------------------------------

    def _check_row(self, entity, value,
                   row: IndexedConstraint) -> Optional[Violation]:
        """The verdict for one constraint row, or None when satisfied.
        Returns None (a silent skip) for unset values in values-optional
        mode when the range does not speak about applicability."""
        if value is INAPPLICABLE and not self.require_values:
            # Unset attribute: nothing to check yet (unless the declared
            # range itself speaks about applicability, in which case
            # INAPPLICABLE is a real value and must be checked).
            if not row.mentions_none:
                return None
        self.stats.constraints_checked += 1
        constraint = row.constraint
        if value is INAPPLICABLE and self.require_values:
            if not self.semantics.satisfies(
                    self.schema, entity, value, constraint, row.excuses):
                self.stats.violations_found += 1
                return Violation("missing-value", constraint.owner,
                                 constraint.attribute, value)
            return None
        if not self.semantics.satisfies(
                self.schema, entity, value, constraint, row.excuses):
            self.stats.violations_found += 1
            return Violation(
                "constraint", constraint.owner, constraint.attribute, value,
                self.semantics.render_rule(constraint, row.excuses))
        return None

    # ------------------------------------------------------------------
    # Whole-object checks
    # ------------------------------------------------------------------

    def check(self, entity) -> List[Violation]:
        """All violations for one entity (empty list = conformant)."""
        self.stats.full_checks += 1
        profile = self._profile(entity)
        violations: List[Violation] = []
        for row in profile.rows:
            violation = self._check_row(
                entity, entity.get_value(row.constraint.attribute), row)
            if violation is not None:
                violations.append(violation)
        for name in sorted(set(entity.value_names()) - profile.applicable):
            value = entity.get_value(name)
            if value is INAPPLICABLE:
                continue
            self.stats.violations_found += 1
            violations.append(Violation(
                "inapplicable-attribute", "?", name, value))
        return violations

    def conforms(self, entity) -> bool:
        return not self.check(entity)

    # ------------------------------------------------------------------
    # Scoped checks (what each kind of mutation can newly violate)
    # ------------------------------------------------------------------

    def check_attribute(self, entity, attribute: str,
                        value) -> List[Violation]:
        """Violations that *would* arise from setting ``attribute`` to
        ``value`` on ``entity`` (used by the store for eager checking).

        Unset values follow the same policy as :meth:`check`: in
        values-optional mode an INAPPLICABLE value is only checked against
        constraints whose range speaks about applicability, so clearing an
        attribute through the checked path agrees with a full re-check.
        """
        self.stats.attribute_checks += 1
        profile = self._profile(entity)
        entries = profile.by_attr.get(attribute)
        if not entries:
            if value is INAPPLICABLE:
                return []  # clearing a never-applicable attribute is a no-op
            self.stats.violations_found += 1
            return [Violation("inapplicable-attribute", "?", attribute,
                              value)]
        self.stats.constraints_skipped += len(profile.rows) - len(entries)
        violations: List[Violation] = []
        for row in entries:
            violation = self._check_row(entity, value, row)
            if violation is not None:
                violations.append(violation)
        return violations

    def check_classes(self, entity,
                      class_names: Iterable[str]) -> List[Violation]:
        """Violations against only the constraints *declared on* the given
        classes.  This is the membership-gain delta check: when an entity
        joins a class, the constraints introduced by the closure delta are
        the only ones whose verdict can newly fail (extra memberships can
        satisfy more excuse branches, never fewer, and applicability only
        widens)."""
        self.stats.delta_checks += 1
        violations: List[Violation] = []
        checked = 0
        for class_name in sorted(set(class_names)):
            for row in self.schema.declared_index(class_name):
                checked += 1
                violation = self._check_row(
                    entity, entity.get_value(row.constraint.attribute), row)
                if violation is not None:
                    violations.append(violation)
        self.stats.constraints_skipped += max(
            0, len(self._profile(entity).rows) - checked)
        return violations

    def check_membership_loss(self, entity,
                              removed: Iterable[str]) -> List[Violation]:
        """Violations that can arise from the entity having *left* the
        ``removed`` classes (the closure delta of a declassification,
        computed by the store; the entity's memberships are already
        reduced).  Only two kinds of rules can newly fail:

        * remaining constraints with an excuse whose excusing class is in
          ``removed`` (the non-monotonic hazard: a value that conformed
          via the excuse branch ``x in E`` loses its excuse), plus the
          rare entity-sensitive ranges (conditional alternatives);
        * stored values whose attribute is no longer declared by any
          remaining membership class (new applicability errors).
        """
        self.stats.delta_checks += 1
        removed_set = frozenset(removed)
        profile = self._profile(entity)
        violations: List[Violation] = []
        checked = 0
        for row in profile.rows:
            affected = row.entity_sensitive or any(
                e.excusing_class in removed_set for e in row.excuses)
            if not affected:
                continue
            checked += 1
            violation = self._check_row(
                entity, entity.get_value(row.constraint.attribute), row)
            if violation is not None:
                violations.append(violation)
        self.stats.constraints_skipped += len(profile.rows) - checked
        for name in sorted(set(entity.value_names()) - profile.applicable):
            value = entity.get_value(name)
            if value is INAPPLICABLE:
                continue
            self.stats.violations_found += 1
            violations.append(Violation(
                "inapplicable-attribute", "?", name, value))
        return violations

