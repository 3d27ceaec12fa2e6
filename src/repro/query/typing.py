"""Flow-sensitive type inference for queries (paper Section 5.4).

The inferred description of an expression is a set of **possibilities**:
each is a way the value could turn out, together with the *membership
assumptions* under which that way can occur.  For ``p`` iterating over
``Patient``::

    p.treatedBy   ~~>   { Physician            [],
                          Psychologist         [p in Alcoholic] }

Excuse alternatives introduce assumption-guarded possibilities; membership
guards (``when p in Alcoholic then ...``, ``where p not in ...``) resolve
or refute them; and the conjunction of all applicable constraints prunes
the cross product (inside the ``then`` branch, the ``Alcoholic``
constraint forces ``Psychologist``, reproducing the paper's judgement).

Virtual-class provenance ("unshared exceptional structure"): the extent of
a virtual class is exactly the set of values of its home attribute
(Section 5.6), and the object store -- with ``strict_virtual_extents``
(the default) -- refuses to reference a virtual-class member through any
other site.  Under that run-time invariant the checker soundly concludes
``x.a not-in V`` whenever ``a`` is not ``V``'s home attribute or ``x`` is
known not to belong to ``V``'s home owner class.  This is what makes the
guard ``p not in Tubercular_Patient`` restore the type safety of
``p.treatedAt.location.state``, exactly as the paper claims.  Pass
``assume_unshared=False`` to drop the invariant (the guard then no longer
helps -- ablation benchmark E4).

A possibility whose value may be :data:`INAPPLICABLE` (an excused ``None``
range) makes any *use* of it unsafe; findings carry the assumptions under
which the failure can occur so the compiler can either warn or insert a
run-time check at exactly that access.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import (
    Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple)

from repro.errors import QueryTypeError, UnknownClassError
from repro.query.ast import (
    Aggregate,
    And,
    Compare,
    Const,
    Expr,
    InClass,
    Not,
    NotInClass,
    Or,
    Path,
    Query,
    Var,
    When,
)
from repro.schema.schema import Schema
from repro.typesys.core import (
    BOOLEAN,
    INTEGER,
    REAL,
    STRING,
    ClassType,
    EnumerationType,
    IntRangeType,
    NoneType,
    RecordType,
    Type,
)
from repro.typesys.operations import disjoint, meet
from repro.typesys.subtyping import is_subtype
from repro.typesys.values import EnumSymbol


#: One membership assumption: (path key, class name, positive?).
Assumption = Tuple[str, str, bool]


def render_assumption(a: Assumption) -> str:
    path, class_name, positive = a
    relation = "in" if positive else "not in"
    return f"{path} {relation} {class_name}"


@dataclass(frozen=True)
class Possibility:
    """One way an expression's value can turn out.

    ``kind`` is ``"entity"`` (``pos``/``neg`` are class-membership
    knowledge about the value), ``"scalar"`` (``type`` describes it), or
    ``"inapplicable"`` (the value is the INAPPLICABLE marker).
    ``assumptions`` are the unresolved membership conditions under which
    this possibility can occur; an empty set means it is unconditional.
    """

    kind: str
    type: Optional[Type] = None
    pos: FrozenSet[str] = frozenset()
    neg: FrozenSet[str] = frozenset()
    assumptions: FrozenSet[Assumption] = frozenset()

    def describe(self) -> str:
        if self.kind == "inapplicable":
            body = "INAPPLICABLE"
        elif self.kind == "entity":
            body = " & ".join(sorted(self.pos)) or "AnyEntity"
        else:
            body = str(self.type)
        if self.assumptions:
            conditions = " and ".join(
                render_assumption(a) for a in sorted(self.assumptions))
            return f"{body} [when {conditions}]"
        return body


@dataclass(frozen=True)
class UnsafeFinding:
    """One analysis finding.

    ``severity`` is ``"error"`` (fails under every possibility) or
    ``"unsafe"`` (fails under the listed assumptions -- the paper's
    "may result in a run-time failure for certain database states").
    """

    severity: str
    expr: str
    reason: str
    assumptions: FrozenSet[Assumption] = frozenset()

    def __str__(self) -> str:
        text = f"{self.severity}: {self.expr}: {self.reason}"
        if self.assumptions:
            conditions = " and ".join(
                render_assumption(a) for a in sorted(self.assumptions))
            text += f" [when {conditions}]"
        return text


class AccessDecision(NamedTuple):
    """Whether one attribute access needs a run-time check, and why."""

    expr: Path
    checked: bool
    reason: str


class FlowFacts:
    """Membership facts per path key, accumulated along control flow."""

    def __init__(self, pos: Dict[str, Set[str]] = None,
                 neg: Dict[str, Set[str]] = None) -> None:
        self._pos: Dict[str, Set[str]] = {
            k: set(v) for k, v in (pos or {}).items()}
        self._neg: Dict[str, Set[str]] = {
            k: set(v) for k, v in (neg or {}).items()}

    def copy(self) -> "FlowFacts":
        return FlowFacts(self._pos, self._neg)

    def assume(self, key: str, class_name: str,
               positive: bool) -> "FlowFacts":
        clone = self.copy()
        target = clone._pos if positive else clone._neg
        target.setdefault(key, set()).add(class_name)
        return clone

    def pos_for(self, key: str) -> Set[str]:
        return self._pos.get(key, set())

    def neg_for(self, key: str) -> Set[str]:
        return self._neg.get(key, set())

    def known_in(self, schema: Schema, key: Optional[str],
                 class_name: str) -> bool:
        if key is None:
            return False
        return any(
            schema.is_subclass(p, class_name) for p in self.pos_for(key))

    def known_not_in(self, schema: Schema, key: Optional[str],
                     class_name: str) -> bool:
        if key is None:
            return False
        # x not-in n and C IS-A n  ==>  x not-in C.
        return any(
            schema.is_subclass(class_name, n) for n in self.neg_for(key))


@dataclass
class TypeReport:
    """Result of analyzing a query."""

    query: Query
    select_possibilities: List[List[Possibility]] = field(
        default_factory=list)
    findings: List[UnsafeFinding] = field(default_factory=list)
    #: One per attribute access (occurrence), in inference order.
    decisions: List[AccessDecision] = field(default_factory=list)

    @property
    def errors(self) -> List[UnsafeFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def unsafe(self) -> List[UnsafeFinding]:
        return [f for f in self.findings if f.severity == "unsafe"]

    @property
    def is_safe(self) -> bool:
        return not self.findings

    def describe_select(self) -> List[str]:
        out = []
        for expr, possibilities in zip(self.query.select,
                                       self.select_possibilities):
            rendered = " | ".join(p.describe() for p in possibilities)
            out.append(f"{expr}: {rendered}")
        return out


class QueryTyper:
    """Infers possibility sets for expressions against a schema."""

    def __init__(self, schema: Schema, assume_unshared: bool = True) -> None:
        self.schema = schema
        self.assume_unshared = assume_unshared
        self.findings: List[UnsafeFinding] = []
        self.decisions: List[AccessDecision] = []

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def analyze_query(self, query: Query) -> TypeReport:
        """Type the whole query, collecting findings."""
        self.findings, self.decisions = [], []
        if not self.schema.has_class(query.source_class):
            raise UnknownClassError(query.source_class)
        env = {query.var: query.source_class}
        facts = FlowFacts().assume(query.var, query.source_class, True)
        if query.where is not None:
            self.infer(query.where, env, facts)
            facts = self._apply_condition(query.where, facts, True)
        report = TypeReport(query)
        aggregate_items = [e for e in query.select
                           if isinstance(e, Aggregate)]
        if aggregate_items and len(aggregate_items) != len(query.select):
            self._finding(
                "error", query.select[0],
                "aggregate and per-row select items cannot be mixed",
                frozenset())
        for expr in query.select:
            if isinstance(expr, Aggregate):
                possibilities = self._infer_aggregate(expr, env, facts)
            else:
                possibilities = self.infer(expr, env, facts)
                self._flag_inapplicable_output(expr, possibilities)
            report.select_possibilities.append(possibilities)
        report.findings = list(self.findings)
        report.decisions = list(self.decisions)
        return report

    def _infer_aggregate(self, expr: Aggregate, env: Dict[str, str],
                         facts: FlowFacts) -> List[Possibility]:
        if expr.operand is None:
            return [Possibility("scalar", INTEGER)]
        operand_poss = self.infer(expr.operand, env, facts)
        numeric_only = expr.function in ("avg", "total")
        for p in operand_poss:
            if p.kind == "inapplicable":
                continue  # aggregates simply skip missing values
            if numeric_only and not self._numeric(p):
                self._finding(
                    "unsafe", expr,
                    f"{expr.function} needs numeric values, got "
                    f"{p.describe()}", p.assumptions)
            elif expr.function in ("min", "max") and not self._orderable(
                    p):
                self._finding(
                    "unsafe", expr,
                    f"{expr.function} needs orderable values, got "
                    f"{p.describe()}", p.assumptions)
        if expr.function == "count":
            return [Possibility("scalar", INTEGER)]
        if expr.function == "avg":
            return [Possibility("scalar", REAL)]
        if expr.function == "total":
            return [Possibility("scalar", INTEGER)]
        # min/max: the operand's scalar possibilities survive.
        survivors = [p for p in operand_poss if p.kind == "scalar"]
        return survivors or [Possibility("scalar", INTEGER)]

    @staticmethod
    def _numeric(p: Possibility) -> bool:
        if p.kind != "scalar":
            return False
        if isinstance(p.type, IntRangeType):
            return True
        return p.type == INTEGER or str(p.type) == "Real"

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def infer(self, expr: Expr, env: Dict[str, str],
              facts: FlowFacts) -> List[Possibility]:
        if isinstance(expr, Var):
            return self._infer_var(expr, env, facts)
        if isinstance(expr, Const):
            return [self._const_possibility(expr.value)]
        if isinstance(expr, Path):
            return self._infer_path(expr, env, facts)
        if isinstance(expr, (InClass, NotInClass)):
            if not self.schema.has_class(expr.class_name):
                raise UnknownClassError(expr.class_name)
            inner = self.infer(expr.expr, env, facts)
            for p in inner:
                if p.kind == "scalar":
                    self._finding("error", expr,
                                  "membership test on a non-entity value",
                                  p.assumptions)
            return [Possibility("scalar", BOOLEAN)]
        if isinstance(expr, Not):
            self.infer(expr.operand, env, facts)
            return [Possibility("scalar", BOOLEAN)]
        if isinstance(expr, And):
            self.infer(expr.left, env, facts)
            right_facts = self._apply_condition(expr.left, facts, True)
            self.infer(expr.right, env, right_facts)
            return [Possibility("scalar", BOOLEAN)]
        if isinstance(expr, Or):
            self.infer(expr.left, env, facts)
            right_facts = self._apply_condition(expr.left, facts, False)
            self.infer(expr.right, env, right_facts)
            return [Possibility("scalar", BOOLEAN)]
        if isinstance(expr, Compare):
            return self._infer_compare(expr, env, facts)
        if isinstance(expr, When):
            self.infer(expr.condition, env, facts)
            then_facts = self._apply_condition(expr.condition, facts, True)
            else_facts = self._apply_condition(expr.condition, facts, False)
            then_poss = self.infer(expr.then, env, then_facts)
            else_poss = self.infer(expr.otherwise, env, else_facts)
            return self._dedupe(then_poss + else_poss)
        if isinstance(expr, Aggregate):
            raise QueryTypeError(
                "aggregates are only legal as top-level select items")
        raise QueryTypeError(f"cannot type expression {expr!r}")

    # -- variables and constants ---------------------------------------

    def _infer_var(self, expr: Var, env: Dict[str, str],
                   facts: FlowFacts) -> List[Possibility]:
        source = env.get(expr.name)
        if source is None:
            raise QueryTypeError(f"unbound variable {expr.name!r}")
        pos = {source} | facts.pos_for(expr.name)
        neg = set(facts.neg_for(expr.name))
        return [Possibility("entity", pos=frozenset(pos),
                            neg=frozenset(neg))]

    @staticmethod
    def _const_possibility(value) -> Possibility:
        if isinstance(value, bool):
            return Possibility("scalar", BOOLEAN)
        if isinstance(value, int):
            return Possibility("scalar", IntRangeType(value, value))
        if isinstance(value, float):
            return Possibility("scalar", REAL)
        if isinstance(value, str):
            return Possibility("scalar", STRING)
        if isinstance(value, EnumSymbol):
            return Possibility("scalar", EnumerationType([value.name]))
        raise QueryTypeError(f"unsupported literal {value!r}")

    # -- attribute access (the heart of the analysis) -------------------

    def _infer_path(self, expr: Path, env: Dict[str, str],
                    facts: FlowFacts) -> List[Possibility]:
        base_poss = self.infer(expr.base, env, facts)
        first = len(self.findings)   # the findings this access raises
        base_key = expr.base.key()
        attribute = expr.attribute
        results: List[Possibility] = []
        failures = 0

        for bp in base_poss:
            if bp.kind == "inapplicable":
                failures += 1
                self._finding(
                    "unsafe", expr,
                    f"{expr.base} may be INAPPLICABLE, so "
                    f".{attribute} can fail", bp.assumptions)
                continue
            if bp.kind == "scalar":
                if isinstance(bp.type, RecordType):
                    ftype = bp.type.field_type(attribute)
                    if ftype is None:
                        failures += 1
                        self._finding(
                            "unsafe", expr,
                            f"record type {bp.type} has no field "
                            f"{attribute!r}", bp.assumptions)
                        continue
                    results.append(self._possibility_from_range(
                        ftype, bp.assumptions, neg=frozenset()))
                    continue
                failures += 1
                self._finding(
                    "unsafe", expr,
                    f"attribute access on non-entity type {bp.type}",
                    bp.assumptions)
                continue
            owners = self.schema.owner_rows(bp.pos, attribute)
            if not owners:
                failures += 1
                self._finding(
                    "unsafe", expr,
                    f"attribute {attribute!r} is not applicable when "
                    f"{expr.base} is only a "
                    f"{' & '.join(sorted(bp.pos)) or 'AnyEntity'}",
                    bp.assumptions)
                continue
            results.extend(self._access_entity(
                expr, bp, owners, base_key, attribute, facts))

        if failures == len(base_poss) and base_poss:
            # Upgrade: the access fails under *every* possibility.
            self._finding(
                "error", expr,
                f"attribute {attribute!r} is not applicable to "
                f"{expr.base}", frozenset())
        results = self._dedupe(self._apply_path_facts(expr, results, facts))
        # Its own finding guards the access; so does a fetch that may yield
        # INAPPLICABLE (an excused None range), though only a use fails.
        inapplicable = [p for p in results if p.kind == "inapplicable"]
        if len(self.findings) > first:
            decision = (True, self.findings[first].reason)
        elif inapplicable:
            assumptions = sorted(inapplicable[0].assumptions)
            decision = (True, "value may be INAPPLICABLE " + (
                "under " + ", ".join(map(render_assumption, assumptions))
                if assumptions else "unconditionally"))
        else:
            decision = (False, "proven safe")
        self.decisions.append(AccessDecision(expr, *decision))
        return results

    def _apply_path_facts(self, expr: Path, results: List[Possibility],
                          facts: FlowFacts) -> List[Possibility]:
        """Merge membership facts recorded for this path itself (guards
        like ``when p.treatedAt in Hospital$1 then ...``) into the
        computed possibilities, pruning the ones they refute."""
        key = expr.key()
        if key is None:
            return results
        pos_facts = facts.pos_for(key)
        neg_facts = facts.neg_for(key)
        if not pos_facts and not neg_facts:
            return results
        refined: List[Possibility] = []
        for p in results:
            if p.kind == "inapplicable":
                if pos_facts:
                    continue  # a guard proved the value is an entity
                refined.append(p)
                continue
            if p.kind != "entity":
                refined.append(p)
                continue
            pos = set(p.pos) | set(pos_facts)
            neg = set(p.neg) | set(neg_facts)
            if any(self.schema.is_subclass(c, n)
                   for c in pos for n in neg):
                continue  # the facts refute this possibility outright
            refined.append(replace(
                p, pos=frozenset(pos), neg=frozenset(neg)))
        return refined

    def _access_entity(self, expr: Path, bp: Possibility,
                       owners: Sequence[Tuple[str, Type]],
                       base_key: Optional[str], attribute: str,
                       facts: FlowFacts) -> List[Possibility]:
        """The possibilities of ``bp.attribute``.  ``owners`` are the
        applicable constraints: declarations of ``attribute`` on any
        class the value is known to belong to (IS-A closed,
        :meth:`Schema.owner_rows`)."""
        # 1. Disjunct options per constraint: the declared range plus one
        #    option per *live* excuse (resolved against what we know about
        #    the owner's memberships).
        option_sets: List[List[Tuple[Type, FrozenSet[Assumption]]]] = []
        for owner, declared in owners:
            options: List[Tuple[Type, FrozenSet[Assumption]]] = [
                (declared, frozenset())]
            for entry in self.schema.excuses_against(owner, attribute):
                excusing = entry.excusing_class
                if self._owner_known_in(bp, base_key, excusing, facts):
                    options.append((entry.range, frozenset()))
                elif self._owner_known_not_in(bp, base_key, excusing,
                                              facts):
                    continue
                else:
                    options.append((
                        entry.range,
                        frozenset({(base_key or str(expr.base),
                                    excusing, True)})))
            option_sets.append(options)

        # 2. Provenance: virtual classes the value provably cannot belong
        #    to (see module docstring).
        provenance_neg = self._provenance_neg(bp, base_key, attribute,
                                              facts)

        # 3. Cross product of disjunct choices = candidate possibilities.
        results: List[Possibility] = []
        for combo in itertools.product(*option_sets):
            assumptions = bp.assumptions.union(
                *(a for _, a in combo)) if combo else bp.assumptions
            ranges = [r for r, _ in combo]
            if self._infeasible(ranges):
                continue
            possibility = self._combine_ranges(
                ranges, frozenset(assumptions), provenance_neg)
            if possibility is not None:
                results.append(possibility)
        return results

    def _owner_known_in(self, bp: Possibility, base_key: Optional[str],
                        class_name: str, facts: FlowFacts) -> bool:
        if any(self.schema.is_subclass(p, class_name) for p in bp.pos):
            return True
        return facts.known_in(self.schema, base_key, class_name)

    def _owner_known_not_in(self, bp: Possibility,
                            base_key: Optional[str], class_name: str,
                            facts: FlowFacts) -> bool:
        if any(self.schema.is_subclass(class_name, n) for n in bp.neg):
            return True
        return facts.known_not_in(self.schema, base_key, class_name)

    def _provenance_neg(self, bp: Possibility, base_key: Optional[str],
                        attribute: str, facts: FlowFacts) -> FrozenSet[str]:
        if not self.assume_unshared:
            return frozenset()
        neg: Set[str] = set()
        for cdef in self.schema.virtual_classes():
            origin = cdef.origin
            if origin.attribute != attribute:
                # Members of this virtual class are only ever reachable
                # through its home attribute.
                neg.add(cdef.name)
            elif self._owner_known_not_in(bp, base_key,
                                          origin.owner_class, facts):
                neg.add(cdef.name)
        return frozenset(neg)

    def _infeasible(self, ranges: Sequence[Type]) -> bool:
        return any(
            disjoint(a, b, self.schema)
            for a, b in itertools.combinations(ranges, 2))

    def _combine_ranges(self, ranges: Sequence[Type],
                        assumptions: FrozenSet[Assumption],
                        provenance_neg: FrozenSet[str]
                        ) -> Optional[Possibility]:
        """Conjunction of the chosen ranges as one possibility."""
        if all(isinstance(r, NoneType) for r in ranges):
            return Possibility("inapplicable", assumptions=assumptions)
        class_names = {r.name for r in ranges if isinstance(r, ClassType)}
        if class_names:
            # Entity-valued.  Mixed entity/scalar combos were already
            # dropped as infeasible; record conjunction of class types.
            pos = frozenset(class_names)
            if any(self.schema.is_subclass(p, n)
                   for p in pos for n in provenance_neg):
                return None  # contradicts provenance: cannot occur
            return Possibility("entity", pos=pos, neg=provenance_neg,
                               assumptions=assumptions)
        # Scalar conjunction: iterated meet, best effort.
        lower: Optional[Type] = ranges[0]
        for r in ranges[1:]:
            narrowed = meet(lower, r, self.schema)
            if narrowed is None:
                break
            lower = narrowed
        return Possibility("scalar", lower, assumptions=assumptions)

    def _possibility_from_range(self, range_type: Type,
                                assumptions: FrozenSet[Assumption],
                                neg: FrozenSet[str]) -> Possibility:
        if isinstance(range_type, NoneType):
            return Possibility("inapplicable", assumptions=assumptions)
        if isinstance(range_type, ClassType):
            return Possibility("entity", pos=frozenset({range_type.name}),
                               neg=neg, assumptions=assumptions)
        return Possibility("scalar", range_type, assumptions=assumptions)

    # -- comparisons ------------------------------------------------------

    def _infer_compare(self, expr: Compare, env: Dict[str, str],
                       facts: FlowFacts) -> List[Possibility]:
        left = self.infer(expr.left, env, facts)
        right = self.infer(expr.right, env, facts)
        numeric = expr.op in ("<", "<=", ">", ">=")
        for lp in left:
            for rp in right:
                assumptions = lp.assumptions | rp.assumptions
                if lp.kind == "inapplicable" or rp.kind == "inapplicable":
                    self._finding(
                        "unsafe", expr,
                        "comparison operand may be INAPPLICABLE",
                        assumptions)
                    continue
                if numeric and not (self._orderable(lp)
                                    and self._orderable(rp)):
                    self._finding(
                        "unsafe", expr,
                        f"operands of {expr.op!r} are not orderable",
                        assumptions)
                    continue
                if (expr.op in ("=", "!=") and lp.kind == "scalar"
                        and rp.kind == "scalar"
                        and disjoint(lp.type, rp.type, self.schema)):
                    self._finding(
                        "unsafe", expr,
                        f"types {lp.type} and {rp.type} share no values; "
                        "the comparison is vacuous", assumptions)
        return [Possibility("scalar", BOOLEAN)]

    @staticmethod
    def _orderable(p: Possibility) -> bool:
        if p.kind != "scalar":
            return False
        if isinstance(p.type, IntRangeType):
            return True
        return p.type in (INTEGER, STRING) or str(p.type) == "Real"

    # -- control-flow facts ----------------------------------------------

    def _apply_condition(self, condition: Expr, facts: FlowFacts,
                         truth: bool) -> FlowFacts:
        """Facts known when ``condition`` evaluated to ``truth``."""
        if isinstance(condition, InClass):
            key = condition.expr.key()
            if key is not None:
                return facts.assume(key, condition.class_name, truth)
            return facts
        if isinstance(condition, NotInClass):
            key = condition.expr.key()
            if key is not None:
                return facts.assume(key, condition.class_name, not truth)
            return facts
        if isinstance(condition, Not):
            return self._apply_condition(condition.operand, facts,
                                         not truth)
        if isinstance(condition, And) and truth:
            facts = self._apply_condition(condition.left, facts, True)
            return self._apply_condition(condition.right, facts, True)
        if isinstance(condition, Or) and not truth:
            facts = self._apply_condition(condition.left, facts, False)
            return self._apply_condition(condition.right, facts, False)
        return facts

    # -- bookkeeping -------------------------------------------------------

    def _dedupe(self, possibilities: List[Possibility]
                ) -> List[Possibility]:
        """Drop exact duplicates and possibilities subsumed by another
        with weaker assumptions and a larger value set."""
        kept: List[Possibility] = []
        for i, p in enumerate(possibilities):
            covered = False
            for j, q in enumerate(possibilities):
                if i == j:
                    continue
                if not self._subsumes(q, p):
                    continue
                if self._subsumes(p, q):
                    # Equivalent possibilities: the earlier one wins.
                    if j < i:
                        covered = True
                        break
                else:
                    covered = True
                    break
            if not covered and p not in kept:
                kept.append(p)
        return kept

    def _subsumes(self, a: Possibility, b: Possibility) -> bool:
        """Whether every run-time case of ``b`` is covered by ``a`` --
        i.e. b's value set is within a's and a needs no extra assumptions."""
        if not a.assumptions <= b.assumptions:
            return False
        if a.kind != b.kind:
            return False
        if a.kind == "inapplicable":
            return True
        if a.kind == "entity":
            # a covers b when b's memberships imply a's (b more specific).
            return all(
                any(self.schema.is_subclass(bp, ap) for bp in b.pos)
                for ap in a.pos)
        return is_subtype(b.type, a.type, self.schema)

    def _finding(self, severity: str, expr: Expr, reason: str,
                 assumptions: FrozenSet[Assumption]) -> None:
        self.findings.append(UnsafeFinding(
            severity, str(expr), reason, frozenset(assumptions)))

    def _flag_inapplicable_output(self, expr: Expr,
                                  possibilities: List[Possibility]) -> None:
        for p in possibilities:
            if p.kind == "inapplicable":
                self._finding(
                    "unsafe", expr,
                    "selected value may be INAPPLICABLE (the attribute "
                    "does not exist for some objects)", p.assumptions)
