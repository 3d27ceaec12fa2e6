"""Profile-compiled conformance checkers for the bulk-ingestion path.

The paper's Section 5.4 observation -- the compiler "can avoid the
introduction of run-time safety tests in those cases where it has
determined that no type error can occur" -- was applied to the read path
by the E3 query compiler.  This module applies it to the *write* path:
objects sharing a direct-membership signature are subject to an identical
constraint table, so the excuse rule

    IF x in B THEN  x.p in R  OR  (x in E AND x.p in S)

can be specialized once per signature and amortized over every object in
a batch.  Two facts make the specialization sound:

* the excuse guard ``x in E`` depends only on ``x``'s memberships, which
  are exactly the signature being compiled -- so each excuse branch is
  either *active* (its range joins the accepted set) or *dead* (dropped),
  decided at compile time;
* conditional-type alternatives ``T/E`` are guarded by the *owner's*
  memberships (``type_contains``), which are again the signature --
  record types are the one construct that re-anchors the owner to the
  value, so they (alone) fall back to the interpreted ``type_contains``.

Rows whose folded accepted set is universal (an ``ANY``-ranged or
otherwise unfalsifiable constraint) are eliminated outright, exactly as
the E3 compiler drops provably-safe run-time checks.

Profiles whose expanded signature includes a virtual class are *not*
compiled (``compile_profile`` returns ``None``): virtual-class membership
is maintained by the store's reference counting, not derivable from the
signature, so those objects take the interpreted
:class:`~repro.semantics.checker.ConformanceChecker`.

A compiled checker's :meth:`~CompiledProfileChecker.check` is pure -- it
reads the entity and returns :class:`Violation` objects, touching no
shared counters -- which is what lets the bulk loader fan profile groups
out to worker threads and merge results deterministically.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.obs import EngineStats
from repro.schema.schema import Schema
from repro.semantics.candidates import (
    ConstraintSemantics,
    ExcuseSemantics,
)
from repro.semantics.checker import (
    Violation,
    expand_signature,
    profile_rows,
)
from repro.typesys.core import (
    AnyEntityType,
    AnyType,
    ClassType,
    ConditionalType,
    EnumerationType,
    IntRangeType,
    NoneType,
    PrimitiveType,
    Type,
    UnionType,
)
from repro.typesys.values import (
    INAPPLICABLE,
    EnumSymbol,
    entity_is_member,
    is_entity,
    type_contains,
)

#: ``pred(value, owner) -> bool`` -- membership of a (non-INAPPLICABLE)
#: value in one accepted range, specialized to a signature.
RangePred = Callable[[object, object], bool]


class _SignatureEntity:
    """A stand-in entity carrying only a membership signature, used to
    evaluate owner-membership guards at compile time."""

    __slots__ = ("memberships",)

    def __init__(self, memberships: FrozenSet[str]) -> None:
        self.memberships = memberships

    def get_value(self, name: str):  # entity protocol; never has values
        return INAPPLICABLE


def _signature_member(schema: Schema, signature: FrozenSet[str],
                      class_name: str) -> bool:
    """Whether every entity with this direct-membership signature is a
    member of ``class_name`` (mirrors ``entity_is_member``)."""
    return any(
        m == class_name or schema.is_subclass(m, class_name)
        for m in signature
    )


def _is_universal(t: Type, schema: Schema,
                  signature: FrozenSet[str]) -> bool:
    """Whether ``t`` provably contains *every* run-time value for owners
    with this signature (so a constraint ranging over it cannot fail)."""
    if isinstance(t, AnyType):
        return True
    if isinstance(t, UnionType):
        return any(_is_universal(m, schema, signature) for m in t.members)
    if isinstance(t, ConditionalType):
        if _is_universal(t.base, schema, signature):
            return True
        return any(
            _signature_member(schema, signature, alt.condition)
            and _is_universal(alt.type, schema, signature)
            for alt in t.alternatives
        )
    return False


def _compile_range(t: Type, schema: Schema,
                   signature: FrozenSet[str]) -> RangePred:
    """A predicate equivalent to ``type_contains(t, value, schema,
    owner)`` for non-INAPPLICABLE values and owners with the given
    signature.  Conditional guards are folded statically; record types
    re-anchor the owner and therefore defer to ``type_contains``."""
    if isinstance(t, AnyType):
        return lambda value, owner: True
    if isinstance(t, UnionType):
        preds = [_compile_range(m, schema, signature) for m in t.members]
        return lambda value, owner: any(p(value, owner) for p in preds)
    if isinstance(t, ConditionalType):
        arms = [_compile_range(t.base, schema, signature)]
        arms.extend(
            _compile_range(alt.type, schema, signature)
            for alt in t.alternatives
            if _signature_member(schema, signature, alt.condition)
        )
        if len(arms) == 1:
            return arms[0]
        return lambda value, owner: any(p(value, owner) for p in arms)
    if isinstance(t, NoneType):
        # Only INAPPLICABLE inhabits None, and the compiled row handles
        # INAPPLICABLE before predicates run.
        return lambda value, owner: False
    if isinstance(t, PrimitiveType):
        name = t.name
        if name == "Integer":
            return lambda value, owner: (
                isinstance(value, int) and not isinstance(value, bool))
        if name == "String":
            return lambda value, owner: isinstance(value, str)
        if name == "Boolean":
            return lambda value, owner: isinstance(value, bool)
        if name == "Real":
            return lambda value, owner: (
                isinstance(value, float)
                or (isinstance(value, int)
                    and not isinstance(value, bool)))
        return lambda value, owner: False
    if isinstance(t, IntRangeType):
        lo, hi = t.lo, t.hi
        return lambda value, owner: (
            isinstance(value, int) and not isinstance(value, bool)
            and lo <= value <= hi)
    if isinstance(t, EnumerationType):
        symbols = frozenset(t.symbols)
        return lambda value, owner: (
            isinstance(value, EnumSymbol) and value.name in symbols)
    if isinstance(t, AnyEntityType):
        return lambda value, owner: is_entity(value)
    if isinstance(t, ClassType):
        name = t.name
        return lambda value, owner: (
            is_entity(value) and entity_is_member(value, name, schema))
    # RecordType (owner re-anchors to the value) and any future
    # constructor: interpreted fallback, still correct by definition.
    return lambda value, owner: type_contains(t, value, schema,
                                              owner=owner)


class _CompiledRow:
    """One surviving constraint row, specialized to a signature."""

    __slots__ = ("attribute", "owner", "rule", "skip_when_unset",
                 "inapplicable_ok", "pred")

    def __init__(self, attribute: str, owner: str, rule: str,
                 skip_when_unset: bool, inapplicable_ok: bool,
                 pred: RangePred) -> None:
        self.attribute = attribute
        self.owner = owner
        self.rule = rule
        self.skip_when_unset = skip_when_unset
        self.inapplicable_ok = inapplicable_ok
        self.pred = pred


class CompiledProfileChecker:
    """A whole-object conformance check specialized to one signature.

    Produces the same :class:`Violation` list, in the same order, as
    ``ConformanceChecker.check`` for any entity whose direct memberships
    equal ``signature`` (property-tested in
    ``tests/test_compiled_checker.py``).
    """

    __slots__ = ("signature", "expanded", "applicable", "rows",
                 "require_values", "rows_total", "rows_elided")

    def __init__(self, signature: FrozenSet[str],
                 expanded: FrozenSet[str],
                 applicable: FrozenSet[str],
                 rows: Tuple[_CompiledRow, ...],
                 require_values: bool,
                 rows_total: int) -> None:
        self.signature = signature
        self.expanded = expanded
        self.applicable = applicable
        self.rows = rows
        self.require_values = require_values
        self.rows_total = rows_total
        self.rows_elided = rows_total - len(rows)

    def check(self, entity) -> List[Violation]:
        """All violations for one entity (empty list = conformant).
        Pure: no shared state is touched, so calls may run on any
        thread."""
        # Hot path: read a store Instance's value dict directly (one
        # dict probe per row); anything else goes through the entity
        # protocol.
        values = getattr(entity, "_values", None)
        if values is None:
            values = {name: entity.get_value(name)
                      for name in entity.value_names()}
        violations: List[Violation] = []
        require_values = self.require_values
        for row in self.rows:
            value = values.get(row.attribute, INAPPLICABLE)
            if value is INAPPLICABLE:
                if row.skip_when_unset or row.inapplicable_ok:
                    continue
                if require_values:
                    violations.append(Violation(
                        "missing-value", row.owner, row.attribute, value))
                else:
                    violations.append(Violation(
                        "constraint", row.owner, row.attribute, value,
                        row.rule))
                continue
            if row.pred(value, entity):
                continue
            violations.append(Violation(
                "constraint", row.owner, row.attribute, value, row.rule))
        applicable = self.applicable
        extra = None
        for name in values:
            if name not in applicable:
                extra = [name] if extra is None else extra + [name]
        if extra:
            extra.sort()
            for name in extra:
                value = values[name]
                if value is INAPPLICABLE:
                    continue
                violations.append(Violation(
                    "inapplicable-attribute", "?", name, value))
        return violations


def compile_profile(schema: Schema, signature: FrozenSet[str],
                    semantics: Optional[ConstraintSemantics] = None,
                    require_values: bool = False
                    ) -> Optional[CompiledProfileChecker]:
    """Compile the constraint table of one direct-membership signature,
    or return ``None`` when the profile cannot be specialized (non-excuse
    semantics, or a virtual class in the expanded signature)."""
    semantics = semantics or ExcuseSemantics()
    if type(semantics) is not ExcuseSemantics:
        return None
    expanded = expand_signature(schema, signature)
    if any(schema.get(name).virtual for name in expanded):
        return None
    rows = profile_rows(schema, expanded)
    sig_entity = _SignatureEntity(signature)
    compiled: List[_CompiledRow] = []
    applicable = frozenset(
        row.constraint.attribute for row in rows)
    for row in rows:
        constraint = row.constraint
        active_ranges: List[Type] = [constraint.range]
        active_ranges.extend(
            e.range for e in row.excuses
            if _signature_member(schema, signature, e.excusing_class)
        )
        skip_when_unset = (not require_values) and (not row.mentions_none)
        # Exact INAPPLICABLE verdict: evaluate the real semantics once at
        # compile time against a value-less stand-in with this signature.
        inapplicable_ok = semantics.satisfies(
            schema, sig_entity, INAPPLICABLE, constraint, row.excuses)
        if any(_is_universal(t, schema, signature) for t in active_ranges):
            # A universal accepted set also admits INAPPLICABLE, so the
            # row can never produce a violation: eliminate it.
            continue
        preds = [_compile_range(t, schema, signature)
                 for t in active_ranges]
        if len(preds) == 1:
            pred = preds[0]
        else:
            def pred(value, owner, _preds=tuple(preds)):
                return any(p(value, owner) for p in _preds)
        compiled.append(_CompiledRow(
            constraint.attribute, constraint.owner,
            semantics.render_rule(constraint, row.excuses),
            skip_when_unset, inapplicable_ok, pred))
    return CompiledProfileChecker(
        signature, expanded, applicable, tuple(compiled),
        require_values, len(rows))


class CompiledProfileCache:
    """Per-store cache of compiled profiles, invalidated when the schema
    version moves (mirrors the interpreted profile cache)."""

    def __init__(self, schema: Schema,
                 semantics: Optional[ConstraintSemantics] = None,
                 require_values: bool = False,
                 stats: Optional[EngineStats] = None) -> None:
        self.schema = schema
        self.semantics = semantics or ExcuseSemantics()
        self.require_values = require_values
        self.stats = stats
        self._compiled: Dict[FrozenSet[str],
                             Optional[CompiledProfileChecker]] = {}
        self._schema_version = schema.version

    def get(self, signature: FrozenSet[str]
            ) -> Optional[CompiledProfileChecker]:
        """The compiled checker for a signature, or ``None`` when the
        profile must take the interpreted path.  Declines are cached
        too."""
        if self._schema_version != self.schema.version:
            self._compiled.clear()
            self._schema_version = self.schema.version
        if signature in self._compiled:
            return self._compiled[signature]
        checker = compile_profile(
            self.schema, signature, self.semantics, self.require_values)
        self._compiled[signature] = checker
        if checker is not None and self.stats is not None:
            self.stats.profiles_compiled += 1
            self.stats.compiled_rows_elided += checker.rows_elided
        return checker
