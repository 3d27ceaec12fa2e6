"""Definitional (predicate-defined) classes (paper Section 2c).

"Extents also allow the specification of definitional classes:
'Employees satisfying some predicate P'."

A :class:`DefinedClass` pairs a base class with a predicate written in
the query expression language (over the variable ``self``); its extent is
the subset of the base extent satisfying the predicate.  The catalog
evaluates extents on demand (always-fresh, view-like) and can optionally
*materialize* membership into the store so defined classes participate in
conformance checking and excuses like any other class -- in that case the
defined class must first exist in the schema (as a plain subclass of the
base) and ``refresh`` keeps the classification in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import QueryTypeError, SchemaError, UnknownClassError
from repro.query.compiler import compile_predicate


@dataclass(frozen=True)
class DefinedClass:
    """One definitional class: name, base, predicate text."""

    name: str
    base: str
    predicate: str
    doc: str = ""

    def __str__(self) -> str:
        return f"{self.name} == {self.base} where {self.predicate}"


class DefinedClassCatalog:
    """Holds definitional classes and evaluates their extents."""

    def __init__(self, store) -> None:
        self.store = store
        self.schema = store.schema
        self._defined: Dict[str, DefinedClass] = {}
        self._compiled: Dict[str, object] = {}

    # ------------------------------------------------------------------

    def define(self, name: str, base: str, predicate: str,
               doc: str = "") -> DefinedClass:
        """Register ``name`` as the ``base`` objects satisfying
        ``predicate`` (an expression over ``self``).  The predicate is
        type-checked against the base class at definition time."""
        if name in self._defined:
            raise SchemaError(f"defined class {name!r} already exists")
        if not self.schema.has_class(base):
            raise UnknownClassError(base)
        try:
            self._compiled[name] = compile_predicate(
                self.schema, base, predicate)
        except QueryTypeError as exc:
            raise QueryTypeError(
                f"predicate of {name!r} is ill-typed: {exc}") from None
        defined = DefinedClass(name, base, predicate, doc)
        self._defined[name] = defined
        return defined

    def get(self, name: str) -> DefinedClass:
        try:
            return self._defined[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def defined_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._defined))

    # ------------------------------------------------------------------

    def is_member(self, obj, name: str) -> bool:
        defined = self.get(name)
        if not self.store.is_member(obj, defined.base):
            return False
        return self._satisfies(name, obj)

    def extent(self, name: str) -> Tuple[object, ...]:
        """The current (always fresh) extent of the defined class."""
        defined = self.get(name)
        return tuple(
            obj for obj in self.store.extent(defined.base)
            if self._satisfies(name, obj)
        )

    def count(self, name: str) -> int:
        return len(self.extent(name))

    def _satisfies(self, name: str, obj) -> bool:
        # Indeterminate (a touched value was missing, e.g.
        # INAPPLICABLE): the predicate cannot hold of this object.
        return self._compiled[name](self.store, obj) is True

    # ------------------------------------------------------------------

    def materialize(self, name: str) -> int:
        """Classify the current members into the *schema* class of the
        same name (which must exist as a subclass of the base), so the
        defined class participates in constraints and excuses.  Returns
        how many classifications changed."""
        defined = self.get(name)
        if not self.schema.has_class(name):
            raise UnknownClassError(name)
        if not self.schema.is_subclass(name, defined.base):
            raise SchemaError(
                f"schema class {name!r} must be a subclass of "
                f"{defined.base!r} to materialize the defined class")
        changed = 0
        members = {obj.surrogate for obj in self.extent(name)}
        for obj in list(self.store.extent(defined.base)):
            is_in = name in obj.memberships
            should = obj.surrogate in members
            if should and not is_in:
                self.store.classify(obj, name)
                changed += 1
            elif is_in and not should:
                self.store.declassify(obj, name)
                changed += 1
        return changed

    refresh = materialize
