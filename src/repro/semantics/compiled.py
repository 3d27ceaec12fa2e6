"""Generated conformance checks, one per direct-membership signature.

Section 5.4: the compiler "can avoid the introduction of run-time safety
tests in those cases where it has determined that no type error can
occur".  Objects sharing a direct-membership signature share one
constraint table, so the rule ``IF x in B THEN x.p in R OR (x in E AND
x.p in S)`` is specialised once per signature and emitted as source for
:func:`repro.query.compiler.instantiate`.  The guard ``x in E`` depends
only on the signature (virtual classes included), so each excuse branch
is live or dead at compile time; conditional alternatives ``T/E``, also
guarded by the owner, fold the same way.  Range tests are inline
expressions (a record type, which re-anchors the owner to the value,
calls ``type_contains``), and a row whose accepted set is universal
emits no test.  Names and constants are bound through the namespace, so
signatures of one shape share a code object.  The store's checker runs
row subsets of the one table (:meth:`CompiledProfileChecker.subset`).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import Violation
from repro.query.compiler import indent, instantiate
from repro.schema.schema import IndexedConstraint, Schema
from repro.semantics.candidates import ExcuseSemantics
from repro.typesys.core import (
    AnyEntityType, AnyType, ClassType, ConditionalType, EnumerationType,
    IntRangeType, NoneType, PrimitiveType, Type, UnionType)
from repro.typesys.values import EnumSymbol, entity_is_member, type_contains


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
    is subject to, in the (sorted owner, declaration) order violations
    are reported in."""
    rows: List[IndexedConstraint] = []
    for class_name in sorted(expanded):
        rows.extend(schema.declared_index(class_name))
    return tuple(rows)


def values_of(entity) -> Dict[str, object]:
    """A store instance's own value dict, else one read through the
    entity protocol."""
    values = getattr(entity, "_values", None)
    if values is None:
        values = {name: entity.get_value(name)
                  for name in entity.value_names()}
    return values


#: What generated checks call, beside the query compiler's runtime.
_RUNTIME = {"_V": Violation, "_Sym": EnumSymbol, "_member": entity_is_member,
            "_tc": type_contains}
_INT = "isinstance({x}, int) and not isinstance({x}, bool)"
_PRIMITIVES = {"Integer": f"({_INT})", "String": "isinstance({x}, str)",
               "Boolean": "isinstance({x}, bool)",
               "Real": f"(isinstance({{x}}, float) or ({_INT}))"}
_RULES = ExcuseSemantics()


def _holds(schema: Schema, signature: FrozenSet[str],
           class_name: str) -> bool:
    """Whether every entity with this direct-membership signature is a
    member of ``class_name`` (an excuse or conditional guard)."""
    return any(m == class_name or schema.is_subclass(m, class_name)
               for m in signature)


def _accepted(schema: Schema, signature: FrozenSet[str],
              row: IndexedConstraint) -> List[Type]:
    """The ranges a row accepts for this signature: the declared one and
    every excuse whose guard holds."""
    return [row.constraint.range] + [
        e.range for e in row.excuses
        if _holds(schema, signature, e.excusing_class)]


def _any(tests: List[str]) -> str:
    """The disjunction of emitted tests, folded."""
    tests = [t for t in tests if t != "False"]
    if "True" in tests:
        return "True"
    if len(tests) > 1:
        return "(" + " or ".join(tests) + ")"
    return tests[0] if tests else "False"


class _Emitter:
    """Emits one check over some of a signature's rows; every name and
    constant it spells goes through the namespace."""

    def __init__(self, schema: Schema, signature: FrozenSet[str]) -> None:
        self.schema, self.signature = schema, signature
        self.namespace: Dict[str, object] = {}
        self.elided = 0

    def bind(self, value) -> str:
        name = f"_c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def test(self, t: Type, x: str) -> str:
        """An expression equal to ``type_contains(t, x, g, owner)`` for
        any owner with this signature."""
        if isinstance(t, AnyType):
            return "True"
        if isinstance(t, UnionType):
            return _any([self.test(m, x) for m in t.members])
        if isinstance(t, ConditionalType):
            return _any([self.test(t.base, x)] + [
                self.test(alt.type, x) for alt in t.alternatives
                if _holds(self.schema, self.signature, alt.condition)])
        if isinstance(t, NoneType):
            return f"({x} is INAP)"
        if isinstance(t, PrimitiveType):
            return _PRIMITIVES.get(t.name, "False").format(x=x)
        if isinstance(t, IntRangeType):
            return (f"({_INT.format(x=x)} and "
                    f"{self.bind(t.lo)} <= {x} <= {self.bind(t.hi)})")
        if isinstance(t, EnumerationType):
            return (f"(isinstance({x}, _Sym) and "
                    f"{x}.name in {self.bind(frozenset(t.symbols))})")
        if isinstance(t, AnyEntityType):
            return f"_is_entity({x})"
        if isinstance(t, ClassType):
            return (f"(_is_entity({x}) and "
                    f"_member({x}, {self.bind(t.name)}, g))")
        return f"_tc({self.bind(t)}, {x}, g)"   # a record type

    def function(self, rows: Tuple[IndexedConstraint, ...],
                 require_values: bool, by_value: bool,
                 strays: Optional[FrozenSet[str]]) -> Callable:
        """``check(values, g) -> (rows checked, violations)`` for the live
        schema ``g`` (no test reads the owner: its memberships are the
        signature).  ``by_value`` passes the rows' one attribute value as
        ``x0``; ``strays`` (the applicable attributes) adds that sweep."""
        names: Dict[str, Tuple[str, str]] = {}  # attribute -> (x, bound)
        loads: List[str] = []
        body: List[str] = []
        checked = 0     # rows checked whether or not their value is set
        for row in rows:
            constraint = row.constraint
            if constraint.attribute not in names:
                x, bound = f"x{len(names)}", self.bind(constraint.attribute)
                names[constraint.attribute] = x, bound
                if not by_value:
                    loads.append(f"{x} = values.get({bound}, INAP)")
            x, attribute = names[constraint.attribute]
            test = _any([self.test(t, x) for t in _accepted(
                self.schema, self.signature, row)])
            unset_skipped = not (require_values or row.mentions_none)
            if test == "True":
                self.elided += 1
                if unset_skipped:
                    body.append(f"n += {x} is not INAP")
                else:
                    checked += 1
                continue
            owner = self.bind(constraint.owner)
            rule = self.bind(_RULES.render_rule(constraint, row.excuses))
            failed = f"_V('constraint', {owner}, {attribute}, {x}, {rule})"
            if unset_skipped:
                body += [f"if {x} is not INAP:", "    n += 1",
                         f"    if not {test}:", f"        out.append({failed})"]
                continue
            checked += 1
            if require_values:
                failed = (f"_V('missing-value', {owner}, {attribute}, {x}) "
                          f"if {x} is INAP else {failed}")
            body += [f"if not {test}:", f"    out.append({failed})"]
        if strays is not None:
            applicable = self.bind(strays)
            body += [f"if not {applicable}.issuperset(values):",
                     f"    for name in sorted(values.keys() - {applicable}):",
                     "        if values[name] is not INAP:",
                     "            out.append(_V('inapplicable-attribute', "
                     "'?', name, values[name]))"]
        return instantiate("_check", "\n".join(
            [f"def _check({'x0' if by_value else 'values'}, g):"]
            + indent(["out = []", f"n = {checked}"] + loads + body
                     + ["return n, out"])), {**_RUNTIME, **self.namespace})


class CompiledProfileChecker:
    """One signature's constraint table as generated code.

    :meth:`check` reports the same :class:`Violation` list, in the same
    order, as the plain reading of the rule (``tests/reference_model``)
    for any entity whose direct memberships equal ``signature``.  The
    generated functions (``table``, :meth:`subset`) answer ``(rows
    checked, violations)`` for the store checker's counters.
    """

    __slots__ = ("schema", "signature", "expanded", "rows", "applicable",
                 "require_values", "table", "rows_elided", "_subsets")

    def __init__(self, schema: Schema, signature: FrozenSet[str],
                 require_values: bool) -> None:
        self.schema, self.signature = schema, signature
        self.expanded = expand_signature(schema, signature)
        self.rows = profile_rows(schema, self.expanded)
        self.applicable = frozenset(r.constraint.attribute for r in self.rows)
        self.require_values = require_values
        #: entry-point key -> (its generated rows, how many rows it skips)
        self._subsets: Dict[object, Tuple[Callable, int]] = {}
        self.table = self.subset(None)[0]
        self.rows_elided = self.table._elided

    def check(self, entity,
              schema: Optional[Schema] = None) -> List[Violation]:
        """All violations for one entity (empty list = conformant).
        Value memberships are read against ``schema``: the live one,
        when the profile outlived the epoch it was compiled in."""
        return self.table(values_of(entity),
                          self.schema if schema is None else schema)[1]

    def _select(self, key) -> Tuple[IndexedConstraint, ...]:
        """The rows an entry point checks: all (``None``), an attribute's,
        those declared on ``("classes", names)``, or those ``("loss",
        removed)`` can break -- a removed class's excuses, and ranges
        that depend on the owner's memberships."""
        if key is None or isinstance(key, str):
            return tuple(r for r in self.rows
                         if key in (None, r.constraint.attribute))
        kind, names = key
        if kind == "classes":
            return tuple(r for r in self.rows if r.constraint.owner in names)
        return tuple(r for r in self.rows if r.entity_sensitive or any(
            e.excusing_class in names for e in r.excuses))

    def subset(self, key) -> Tuple[Callable, int]:
        """One entry point's generated rows (built on first use), and how
        many of the table's rows it skips."""
        entry = self._subsets.get(key)
        if entry is None:
            rows = self._select(key)
            emitter = _Emitter(self.schema, self.signature)
            run = emitter.function(
                rows, self.require_values, isinstance(key, str),
                self.applicable if key is None or key[0] == "loss" else None)
            run._elided = emitter.elided
            entry = self._subsets[key] = (run, len(self.rows) - len(rows))
        return entry


def compile_profile(schema: Schema, signature: FrozenSet[str],
                    require_values: bool = False) -> CompiledProfileChecker:
    """Compile the constraint table of one direct-membership signature."""
    return CompiledProfileChecker(schema, frozenset(signature), require_values)
