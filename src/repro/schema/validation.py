"""Schema validation: the revised specialization rule (Section 5.1).

The rule: *if a subclass specifies a new range for an existing attribute,
then this range must itself be a specialization of the inherited range(s),
or it must excuse the definition(s) of the constraint(s) being
contradicted.*

This module is what the paper's **verifiability** desideratum asks for:
"the language compiler or environment should be able to alert the
programmer about cases of inconsistent specification".  Concretely:

* a non-specializing redefinition without a covering excuse is an
  **error** (``unexcused-contradiction``);
* an excuse covering no contradiction is a **warning**
  (``redundant-excuse`` -- "nothing wrong will happen if an excuse is
  added -- it will simply be redundant", Section 5.3);
* an excuse naming an unknown class or attribute is an **error**;
* incomparable multiple-inheritance constraints that no value can satisfy
  (and that no excuse adjudicates) are a **warning**
  (``unsatisfiable-attribute`` -- the Quaker/Republican *dick* situation
  before the mutual excuses are added).

Excuse *inheritance* (Section 5.3) is honored: a subclass of ``Alcoholic``
that redefines ``treatedBy`` to a subclass of ``Psychologist`` needs no new
excuse, because membership in ``Alcoholic`` already excuses the ``Patient``
constraint; the check is uniform -- a redefinition ``S`` on ``C``
contradicting ``(B, p, R)`` is covered iff some excuse against ``(B, p)``
is declared by a class ``E`` with ``C`` IS-A ``E`` and ``S <= S_E``.
"""

from __future__ import annotations

import itertools
from typing import List

from repro.errors import Diagnostic, UnexcusedContradictionError
from repro.schema.classdef import ClassDef
from repro.schema.schema import Constraint, Schema
from repro.typesys.core import Type
from repro.typesys.operations import disjoint
from repro.typesys.subtyping import is_subtype


class UnsatisfiableAttributeWarning(UserWarning):
    """No value can satisfy all applicable constraints on an attribute."""


class SchemaValidator:
    """Checks a schema against the revised specialization rule."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def validate(self) -> List[Diagnostic]:
        """All diagnostics for every class, deterministic order."""
        out: List[Diagnostic] = []
        for name in sorted(self.schema.class_names()):
            out.extend(self.validate_class(name))
        return out

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.validate() if d.is_error]

    def check(self) -> None:
        """Raise on the first error (keeps warnings silent)."""
        errors = self.errors()
        if errors:
            first = errors[0]
            raise UnexcusedContradictionError(
                first.class_name, first.attribute,
                first.contradicted or "?", first.message)

    def validate_class(self, name: str) -> List[Diagnostic]:
        """Diagnostics local to one class (used incrementally by schema
        evolution: a modified superclass re-validates its descendants)."""
        out: List[Diagnostic] = []
        cdef = self.schema.get(name)
        out.extend(self._check_excuse_targets(cdef))
        out.extend(self._check_redefinitions(cdef))
        out.extend(self._check_satisfiability(cdef))
        return out

    # ------------------------------------------------------------------
    # Individual checks
    # ------------------------------------------------------------------

    def _check_excuse_targets(self, cdef: ClassDef) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for attr_name, ref in cdef.declared_excuses():
            if ref.class_name == cdef.name:
                out.append(Diagnostic(
                    "error", "excuse-on-self", cdef.name, attr_name,
                    "a class cannot excuse its own constraint",
                    ref.class_name))
                continue
            if not self.schema.has_class(ref.class_name):
                out.append(Diagnostic(
                    "error", "unknown-excuse-target", cdef.name, attr_name,
                    f"excused class {ref.class_name!r} is not defined",
                    ref.class_name))
                continue
            target = self.schema.get(ref.class_name)
            target_attr = target.attribute(ref.attribute)
            if target_attr is None:
                out.append(Diagnostic(
                    "error", "unknown-excuse-attribute", cdef.name,
                    attr_name,
                    f"class {ref.class_name!r} does not declare "
                    f"{ref.attribute!r}", ref.class_name))
                continue
            own_attr = cdef.attribute(attr_name)
            if own_attr is not None and is_subtype(
                    own_attr.range, target_attr.range, self.schema):
                out.append(Diagnostic(
                    "warning", "redundant-excuse", cdef.name, attr_name,
                    f"range {own_attr.range} already specializes "
                    f"{target_attr.range} on {ref.class_name!r}; the excuse "
                    "is redundant", ref.class_name))
        return out

    def _check_redefinitions(self, cdef: ClassDef) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for attr in cdef.attributes:
            for constraint in self._inherited_constraints(cdef, attr.name):
                if is_subtype(attr.range, constraint.range, self.schema):
                    continue  # proper specialization
                if self._covered_by_excuse(cdef.name, attr.range,
                                           constraint):
                    continue
                out.append(Diagnostic(
                    "error", "unexcused-contradiction", cdef.name,
                    attr.name,
                    f"range {attr.range} is not a specialization of "
                    f"{constraint.range} declared on "
                    f"{constraint.owner!r} and no applicable excuse "
                    "covers it", constraint.owner))
        return out

    def _inherited_constraints(self, cdef: ClassDef,
                               attribute: str) -> List[Constraint]:
        found: List[Constraint] = []
        for ancestor in sorted(self.schema.proper_ancestors(cdef.name)):
            owner = self.schema.get(ancestor)
            owned = owner.attribute(attribute)
            if owned is not None:
                found.append(Constraint(ancestor, attribute, owned.range))
        return found

    def _covered_by_excuse(self, class_name: str, new_range: Type,
                           constraint: Constraint) -> bool:
        """Uniform coverage rule (Section 5.3): the contradiction of
        ``(B, p)`` by range ``S`` on ``C`` is covered iff some excuse
        against ``(B, p)`` was declared by a class ``E`` with ``C`` IS-A
        ``E`` and ``S <= S_E``."""
        for entry in self.schema.excuses_against(constraint.owner,
                                                 constraint.attribute):
            if not self.schema.is_subclass(class_name,
                                           entry.excusing_class):
                continue
            if is_subtype(new_range, entry.range, self.schema):
                return True
        return False

    def _check_satisfiability(self, cdef: ClassDef) -> List[Diagnostic]:
        """Warn when instances of ``cdef`` cannot satisfy all applicable
        constraints on some attribute, even using every available excuse.

        This is exactly the pre-excuse Quaker/Republican situation: *dick*
        "cannot hold any opinion without contradicting some constraint".
        Adding the mutual excuses makes the constraints co-satisfiable and
        silences the warning.
        """
        out: List[Diagnostic] = []
        schema = self.schema
        for attr_name in schema.applicable_attribute_names(cdef.name):
            constraints = schema.attribute_constraints(cdef.name, attr_name)
            if len(constraints) < 2:
                continue
            # For each constraint, the disjuncts an instance of cdef may
            # use: the declared range, plus every excusing range whose
            # excusing class the instance necessarily belongs to or *may*
            # belong to via cdef's ancestry is too strong -- we only count
            # excuses by classes cdef IS-A, since only those memberships
            # are implied.
            disjuncts_per_constraint: List[List[Type]] = []
            for constraint in constraints:
                options = [constraint.range]
                for entry in schema.excuses_against(constraint.owner,
                                                    attr_name):
                    if schema.is_subclass(cdef.name, entry.excusing_class):
                        options.append(entry.range)
                disjuncts_per_constraint.append(options)
            if self._co_satisfiable(disjuncts_per_constraint):
                continue
            owners = ", ".join(repr(c.owner) for c in constraints)
            out.append(Diagnostic(
                "warning", "unsatisfiable-attribute", cdef.name, attr_name,
                f"no value satisfies all constraints from {owners} and no "
                "applicable excuse adjudicates between them"))
        return out

    def _co_satisfiable(self,
                        disjuncts: List[List[Type]]) -> bool:
        """Whether one disjunct can be picked from each constraint such
        that no two picks are provably disjoint (a sound approximation of
        joint satisfiability -- it errs toward *not* warning)."""
        for combo in itertools.product(*disjuncts):
            if not any(
                    disjoint(a, b, self.schema)
                    for a, b in itertools.combinations(combo, 2)):
                return True
        return False
