"""Arbitrary inter-object constraints attached to classes (Section 2d).

"In addition to type constraints, there are other assertions which one
would like to state as part of a logical theory of the application
domain: e.g., Employees earn less than their supervisors.  Such
assertions can often be attached to one (or a few) classes."

A :class:`ClassAssertion` attaches a boolean expression (query expression
language, over ``self``) to a class; the checker evaluates it for every
member.  An assertion whose evaluation touches an INAPPLICABLE value is
*indeterminate* for that object and, by default, does not count as a
violation (the type constraint machinery already polices applicability);
pass ``strict=True`` to flag indeterminate cases too.

Assertions compose with excuses through ordinary class structure: attach
the assertion to the most general class for which it holds, and state
exceptional subclasses' differing assertions on those subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import QueryTypeError, SchemaError, UnknownClassError
from repro.query.compiler import compile_predicate


@dataclass(frozen=True)
class ClassAssertion:
    """One assertion: ``expression`` must hold of every ``class_name``
    member."""

    class_name: str
    name: str
    expression: str
    doc: str = ""

    def __str__(self) -> str:
        return f"assert {self.name} on {self.class_name}: {self.expression}"


@dataclass(frozen=True)
class AssertionViolation:
    kind: str  # "violated" | "indeterminate"
    surrogate: object
    assertion: ClassAssertion

    def __str__(self) -> str:
        return (f"object {self.surrogate}: assertion "
                f"{self.assertion.name!r} on "
                f"{self.assertion.class_name!r} is {self.kind}")


class AssertionChecker:
    """Registers and evaluates class-attached assertions."""

    def __init__(self, schema, strict: bool = False) -> None:
        self.schema = schema
        self.strict = strict
        self._assertions: Dict[str, List[ClassAssertion]] = {}
        self._compiled: Dict[Tuple[str, str], object] = {}

    # ------------------------------------------------------------------

    def add(self, class_name: str, name: str, expression: str,
            doc: str = "") -> ClassAssertion:
        """Attach an assertion; the expression is type-checked against
        the class at registration time."""
        if not self.schema.has_class(class_name):
            raise UnknownClassError(class_name)
        key = (class_name, name)
        if key in self._compiled:
            raise SchemaError(
                f"assertion {name!r} already attached to {class_name!r}")
        try:
            self._compiled[key] = compile_predicate(
                self.schema, class_name, expression)
        except QueryTypeError as exc:
            raise QueryTypeError(
                f"assertion {name!r} on {class_name!r} is ill-typed: "
                f"{exc}") from None
        assertion = ClassAssertion(class_name, name, expression, doc)
        self._assertions.setdefault(class_name, []).append(assertion)
        return assertion

    def assertions_for(self, class_name: str) -> Tuple[ClassAssertion, ...]:
        """Assertions applicable to members of ``class_name`` (its own
        and every ancestor's -- assertions are inherited)."""
        out: List[ClassAssertion] = []
        for ancestor in sorted(self.schema.ancestors(class_name)):
            out.extend(self._assertions.get(ancestor, ()))
        return tuple(out)

    # ------------------------------------------------------------------

    def check_object(self, store, obj) -> List[AssertionViolation]:
        violations: List[AssertionViolation] = []
        seen: set = set()
        for membership in obj.memberships:
            for assertion in self.assertions_for(membership):
                key = (assertion.class_name, assertion.name)
                if key in seen:
                    continue
                seen.add(key)
                # None is indeterminate: a touched value was missing.
                verdict = self._compiled[key](store, obj)
                if verdict is False:
                    violations.append(AssertionViolation(
                        "violated", obj.surrogate, assertion))
                elif verdict is None and self.strict:
                    violations.append(AssertionViolation(
                        "indeterminate", obj.surrogate, assertion))
        return violations

    def check_store(self, store) -> List[AssertionViolation]:
        out: List[AssertionViolation] = []
        for obj in store.instances():
            out.extend(self.check_object(store, obj))
        return out
