"""Conformance checking: does an entity satisfy its classes' constraints?

For each class ``C`` an entity belongs to and each attribute ``p``
declared on ``C``, the paper's final rule for ``(C, p)`` -- relaxed by
every excuse registered against that pair -- must hold (Section 5.1).
Values stored under an attribute no membership class declares are
*applicability* errors ("supervisor is not applicable to arbitrary
persons, only to employees").

There is one checker.  Each direct-membership signature resolves once to
its generated check (:mod:`repro.semantics.compiled`), and every entry
point runs a row subset of that one table: a write its attribute's rows,
a membership gain the closure delta's, a loss the rows it can break,
validation and bulk batches every row.  The plain reading of the rule is
``tests/reference_model.py``; the property suites hold every verdict
here to it.
"""

from __future__ import annotations

from typing import (Callable, Collection, Dict, FrozenSet, Iterable, List,
                    Optional, Set, Tuple)

from repro.obs import EngineStats
from repro.schema.schema import Schema
from repro.semantics.compiled import (
    CompiledProfileChecker, Violation, compile_profile, expand_signature,
    values_of)
from repro.typesys.values import INAPPLICABLE

__all__ = ["ConformanceChecker", "Violation", "expand_signature"]


class ConformanceChecker:
    """Checks entities against a schema under the paper's final rule.

    ``require_values=True`` is strict database mode: an attribute whose
    declared range does not admit :data:`INAPPLICABLE` must have a value
    (otherwise missing values are ignored, useful while populating).
    ``stats`` is the :class:`~repro.obs.EngineStats` to increment.
    """

    def __init__(self, schema: Schema, require_values: bool = False,
                 stats: Optional[EngineStats] = None) -> None:
        self.schema = schema
        self.require_values = require_values
        self.stats = stats if stats is not None else EngineStats()
        self._profiles: Dict[FrozenSet[str], CompiledProfileChecker] = {}
        self._schema_version = schema.version

    def _profile_for(self, signature: FrozenSet[str]
                     ) -> CompiledProfileChecker:
        """The signature's profile, compiled on first use, counted as a
        profile hit or miss."""
        if self._schema_version != self.schema.version:
            self._profiles.clear()
            self._schema_version = self.schema.version
        profile = self._profiles.get(signature)
        if profile is not None:
            self.stats.profile_hits += 1
            return profile
        self.stats.profile_misses += 1
        profile = self._profiles[signature] = compile_profile(
            self.schema, signature, self.require_values)
        self.stats.profiles_compiled += 1
        self.stats.compiled_rows_elided += profile.rows_elided
        return profile

    def rebind_schema(self, schema: Schema,
                      affected: FrozenSet[str]) -> None:
        """Point the checker at a successor schema epoch, keeping every
        profile the change provably cannot affect: a profile's rows
        depend only on the classes in its IS-A expansion, so it survives
        a change whose affected region is disjoint from that expansion
        (value memberships are always read against the live schema).
        The clear in :meth:`_profile_for` is the safety net for in-place
        schema mutation."""
        survivors: Dict[FrozenSet[str], CompiledProfileChecker] = {}
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
        return set(self._profile_for(entity.memberships).expanded)

    def _run(self, profile: CompiledProfileChecker, key,
             values) -> List[Violation]:
        """One entry point's rows of ``profile`` over ``values``."""
        run, skipped = profile.subset(key)
        checked, violations = run(values, self.schema)
        stats = self.stats
        stats.constraints_skipped += skipped
        stats.constraints_checked += checked
        stats.violations_found += len(violations)
        return violations

    def check(self, entity) -> List[Violation]:
        """All violations for one entity (empty list = conformant)."""
        self.stats.full_checks += 1
        return self._run(self._profile_for(entity.memberships), None,
                         values_of(entity))

    def sweep(self, entities: Collection) -> List[Tuple[object, Violation]]:
        """:meth:`check` over ``entities`` with one profile lookup per
        direct-membership signature: the ``(entity, violation)`` pairs in
        entity order, and the counters, one call per entity gives."""
        tables: Dict[FrozenSet[str], Callable] = {}
        found, schema, stats, checked = [], self.schema, self.stats, 0
        for entity in entities:
            table = tables.get(signature := entity.memberships)
            if table is None:
                table = tables[signature] = self._profile_for(signature).table
            rows, violations = table(values_of(entity), schema)
            checked += rows
            if violations:
                found += [(entity, violation) for violation in violations]
        stats.full_checks += len(entities)
        stats.profile_hits += len(entities) - len(tables)
        stats.constraints_checked += checked
        stats.violations_found += len(found)
        return found

    def conforms(self, entity) -> bool:
        return not self.check(entity)

    def check_attribute(self, entity, attribute: str,
                        value) -> List[Violation]:
        """Violations that *would* arise from setting ``attribute`` to
        ``value`` on ``entity`` (the store's eager write check).  An
        unset value is checked as :meth:`check` would: in values-optional
        mode only against ranges that speak about applicability."""
        self.stats.attribute_checks += 1
        profile = self._profile_for(entity.memberships)
        if attribute in profile.applicable:
            return self._run(profile, attribute, value)
        if value is INAPPLICABLE:
            return []  # clearing a never-applicable attribute is a no-op
        self.stats.violations_found += 1
        return [Violation("inapplicable-attribute", "?", attribute, value)]

    def check_classes(self, entity,
                      class_names: Iterable[str]) -> List[Violation]:
        """Violations against only the constraints *declared on* the given
        classes: the membership-gain check.  When an entity joins a
        class, only the closure delta's constraints can newly fail (extra
        memberships satisfy more excuse branches, never fewer, and
        applicability only widens)."""
        self.stats.delta_checks += 1
        return self._run(self._profile_for(entity.memberships),
                         ("classes", frozenset(class_names)),
                         values_of(entity))

    def check_membership_loss(self, entity,
                              removed: Iterable[str]) -> List[Violation]:
        """Violations that can arise from the entity having *left* the
        ``removed`` classes (its memberships are already reduced): rows
        excused by a removed class -- a value that conformed through the
        branch ``x in E`` loses its excuse -- and ranges that depend on
        the owner's memberships, plus stored values no remaining class
        declares."""
        self.stats.delta_checks += 1
        return self._run(self._profile_for(entity.memberships),
                         ("loss", frozenset(removed)), values_of(entity))
