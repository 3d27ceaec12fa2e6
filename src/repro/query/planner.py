"""Cost-based query planning: predicate pushdown into index lookups.

The compiler (:mod:`repro.query.compiler`) decides *how each row is
checked*; this module decides *which rows are visited at all*.  A plan
wraps a compiled query with the sargable ``where`` conjuncts the planner
proved safe to push down:

* ``x.attr = const`` -- an equality probe into the store's secondary
  hash index on ``attr`` (:mod:`repro.query.indexes`);
* ``x in Class`` / ``x not in Class`` -- an intersection with (or
  subtraction of) the class's extent surrogate set, the membership index
  the store maintains anyway.

Exactness under excuse semantics
--------------------------------

The guarded scan does not merely filter rows -- it *skips* them (counted
in ``rows_skipped``) when a guarded access hits INAPPLICABLE, and the
planner must reproduce that behaviour bit for bit.  Two rules make the
indexed plan provably scan-equivalent:

1. **Skip rows are visited, not pruned.**  For every pushed equality the
   executor unions in the index's INAPPLICABLE posting (restricted to
   the candidates so far) *before* intersecting with the value posting.
   Those rows are then run through the unchanged compiled ``where``
   expression, which skips/raises/nulls them exactly as the scan would.
2. **A pushdown is only legal while the residual prefix cannot skip.**
   Conjuncts are evaluated left to right with short-circuit ``and``; a
   row pruned by conjunct *j* is silently dropped by the scan only if no
   conjunct *i < j* can raise a skip first.  Residual conjuncts that
   contain attribute accesses can; once one appears, every later
   sargable conjunct is blocked (reported in ``explain()``).  Pushed
   conjuncts themselves never break the rule: memberships cannot skip,
   and equalities contribute their skip rows to the visit set.

Rows that survive pruning run through the same generated row loop as
the scan, over the surrogate-sorted visit set, so results, order, and
``rows_skipped`` all match the full scan exactly (property-tested in
``tests/test_planner_equivalence_properties.py``).

Costing is deliberately simple: posting sizes and ``store.count()`` are
exact, so the executor compares the materialized visit set against the
extent and falls back to the scan when pruning bought nothing.  Plans
are cached per store, keyed on (query text, schema version, index-design
version, compile options) -- a repeated query skips parse, type
analysis, compilation, and pushdown extraction entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.query.ast import (
    Compare,
    Const,
    Expr,
    InClass,
    NotInClass,
    Path,
    Query,
    Var,
    split_conjuncts,
)
from repro.query.compiler import CompiledQuery, compile_query, indent
from repro.query.interpreter import ExecutionStats
from repro.schema.schema import Schema

#: compile_query keyword options that shape the plan, with defaults;
#: normalized into the cache key so ``{}`` and explicit defaults agree.
_COMPILE_OPTION_DEFAULTS: Tuple[Tuple[str, object], ...] = (
    ("eliminate_checks", True),
    ("assume_unshared", True),
    ("on_unsafe", "skip"),
    ("raise_on_error", True),
    ("optimize_source", True),
)


@dataclass(frozen=True)
class Pushdown:
    """One sargable conjunct the executor resolves through an index."""

    kind: str                          # "eq" | "member" | "not-member"
    text: str                          # the conjunct, for explain()
    attribute: Optional[str] = None    # eq: the indexed attribute
    value: object = None               # eq: the probe constant
    class_name: Optional[str] = None   # member/not-member: the class


@dataclass
class QueryPlan:
    """A compiled query plus its pushdown decisions."""

    compiled: CompiledQuery
    pushdowns: Tuple[Pushdown, ...]
    #: Conjuncts left to the guarded row loop.
    residual: Tuple[str, ...]
    #: (conjunct text, reason) pairs for sargable-but-not-pushed ones.
    blocked: Tuple[Tuple[str, str], ...]
    schema_version: int
    index_version: int
    #: The function ``build_plan`` generates for this exact pushdown
    #: sequence (:func:`_compile_executor`).  Not part of plan identity.
    executor: Callable = field(init=False, repr=False, compare=False)

    def explain(self, store=None) -> str:
        """The compiled plan plus the planner's physical decisions; pass
        a populated store for live cardinality estimates."""
        lines = [self.compiled.explain(), ""]
        source = self.compiled.source_class
        if not self.pushdowns and not self.blocked:
            lines.append("access path: full extent scan "
                         f"(no sargable conjunct for extent({source}))")
        else:
            lines.append("access path: cost-based at execute() -- index "
                         "pushdowns when they prune, else full scan")
        n_lines = self.executor._source.count("\n") + 1
        lines.append(
            f"executor: generated row function, {n_lines} lines "
            f"({len(self.pushdowns)} pushdown step(s) inlined)")
        manager = store.indexes if store is not None else ()
        for p in self.pushdowns:
            via = {
                "eq": f"index({p.attribute}) + its INAPPLICABLE posting",
                "member": f"extent-set intersection ({p.class_name})",
                "not-member": f"extent-set subtraction ({p.class_name})",
            }[p.kind]
            estimate = ""
            if store is not None:
                estimate = f"  ~{self._estimate(p, store)} rows"
            lines.append(f"  [pushdown] {p.text}  via {via}{estimate}")
            if p.kind == "eq" and p.attribute in manager:
                # The surface the live manager and a snapshot's frozen
                # postings share.
                lines.append(
                    "             postings: "
                    f"{len(manager.inapplicable(p.attribute))} "
                    "inapplicable, "
                    f"{len(manager.residue(p.attribute))} residue")
        for text in self.residual:
            lines.append(f"  [residual] {text}  -- guarded row loop")
        for text, reason in self.blocked:
            lines.append(f"  [blocked ] {text}  -- {reason}")
        if store is not None:
            lines.append(
                f"  extent({source}): {store.count(source)} rows")
            qstats = manager.qstats
            lines.append(
                f"  plan cache: {qstats.plan_hits} hit(s), "
                f"{qstats.plan_misses} miss(es), "
                f"{qstats.plan_evictions} eviction(s); "
                f"{qstats.compiled_execs} generated execution(s), "
                f"{qstats.sources_compiled} source(s) compiled")
        return "\n".join(lines)

    def _estimate(self, p: Pushdown, store) -> int:
        if p.kind == "eq":
            manager = store.indexes
            return (manager.selectivity(p.attribute, p.value)
                    if p.attribute in manager else 0)
        if p.kind == "member":
            return store.count(p.class_name)
        return max(store.count(self.compiled.source_class) -
                   store.count(p.class_name), 0)


# ----------------------------------------------------------------------
# Pushdown extraction
# ----------------------------------------------------------------------

def _contains_path(expr: Expr) -> bool:
    """Whether evaluating ``expr`` can touch an attribute (and therefore
    potentially skip the row)."""
    return isinstance(expr, Path) or any(
        _contains_path(child) for child in vars(expr).values()
        if isinstance(child, Expr))


def _as_sargable(conjunct: Expr, var: str,
                 schema: Schema) -> Optional[Pushdown]:
    """Recognize an index-servable conjunct, or None."""
    if isinstance(conjunct, InClass) or isinstance(conjunct, NotInClass):
        if (isinstance(conjunct.expr, Var) and conjunct.expr.name == var
                and schema.has_class(conjunct.class_name)):
            kind = "member" if isinstance(conjunct, InClass) else "not-member"
            return Pushdown(kind=kind, text=str(conjunct),
                            class_name=conjunct.class_name)
        return None
    if isinstance(conjunct, Compare) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if isinstance(left, Const) and isinstance(right, Path):
            left, right = right, left
        if (isinstance(left, Path) and isinstance(right, Const)
                and isinstance(left.base, Var) and left.base.name == var):
            return Pushdown(kind="eq", text=str(conjunct),
                            attribute=left.attribute, value=right.value)
    return None


def build_plan(compiled: CompiledQuery, schema: Schema,
               manager) -> QueryPlan:
    """Extract the pushdowns for one compiled query against the store's
    current physical design (``manager`` is its IndexManager)."""
    query = compiled.query
    pushdowns: List[Pushdown] = []
    residual: List[str] = []
    blocked: List[Tuple[str, str]] = []
    prefix_can_skip = False
    for conjunct in split_conjuncts(query.where):
        p = _as_sargable(conjunct, query.var, schema)
        if p is not None and p.kind == "eq" and p.attribute not in manager:
            blocked.append((p.text, f"no index on {p.attribute!r}"))
            p = None
        if p is None:
            residual.append(str(conjunct))
            if _contains_path(conjunct):
                # This conjunct may skip rows; pruning by any later
                # conjunct would miss those skips (module docstring).
                prefix_can_skip = True
            continue
        if prefix_can_skip:
            blocked.append(
                (p.text, "a residual conjunct before it can skip rows"))
            residual.append(str(conjunct))
            continue
        pushdowns.append(p)
    plan = QueryPlan(
        compiled=compiled,
        pushdowns=tuple(pushdowns),
        residual=tuple(residual),
        blocked=tuple(blocked),
        schema_version=schema.version,
        index_version=manager.version,
    )
    plan.executor = _compile_executor(plan, manager.qstats)
    return plan


# ----------------------------------------------------------------------
# Planning with the plan cache
# ----------------------------------------------------------------------

def _options_key(compile_kwargs: Dict[str, object]) -> Tuple:
    unknown = set(compile_kwargs) - {k for k, _ in _COMPILE_OPTION_DEFAULTS}
    if unknown:
        raise TypeError(
            f"unknown compile option(s): {', '.join(sorted(unknown))}")
    return tuple(
        compile_kwargs.get(name, default)
        for name, default in _COMPILE_OPTION_DEFAULTS
    )


def plan_query(query: Union[str, Query], store,
               **compile_kwargs) -> QueryPlan:
    """Plan (or fetch the cached plan for) ``query`` against ``store``.

    The cache key is (query text, schema version, index-design version,
    compile options): a hit skips parse, type analysis, compilation, and
    pushdown extraction; any schema mutation or index create/drop simply
    stops the old key from matching.
    """
    schema = store.schema
    manager = store.indexes
    text = query if isinstance(query, str) else str(query)
    key = (text, schema.version, manager.version,
           _options_key(compile_kwargs))
    plan = manager.plan_cache.get(key)
    if plan is not None:
        return plan
    compiled = compile_query(query, schema, **compile_kwargs)
    plan = build_plan(compiled, schema, manager)
    manager.plan_cache.put(key, plan)
    return plan


# ----------------------------------------------------------------------
# Generated execution
# ----------------------------------------------------------------------

def _compile_executor(plan: QueryPlan, qstats=None) -> Callable:
    """Generate the plan's one function: the prune-or-scan decision for
    this exact pushdown sequence as straight-line set algebra, then the
    compiled query's row loop over whichever rows it chose.

    Probe constants, attribute and class names are bound into the
    function's namespace (``_a0``/``_v0``/``_c0``), never spelled in the
    source, so plans of one shape share a memoised code object
    (:func:`repro.query.compiler.instantiate`) and a plan-cache miss
    costs string assembly plus the ``exec`` of a ``def``.

    The function takes ``(store, stats)`` -- any store-like object with
    an index manager, so one cached plan serves the live store and every
    snapshot -- and returns the row list.  Rows arrive as
    ``(ref, memberships, values)`` from ``store.scan_rows`` /
    ``store.visit_rows``.  When the physical design moved underneath the
    plan (a pushed equality's index was dropped) it runs the guarded
    full scan: anything missing means scan, never a wrong answer.
    """
    compiled = plan.compiled
    env: Dict[str, object] = {}
    scan = ["qstats.full_scans += 1",
            "state = store.scan_rows(_source)"]
    return compiled.emitter.function("_plan", "store, stats", [
        "manager = store.indexes",
        "qstats = manager.qstats",
        "qstats.compiled_execs += 1",
        *(_prune_or_scan(plan, env, scan) if plan.pushdowns else scan),
        *compiled.loop_source(),
    ], env, qstats)


def _prune_or_scan(plan: QueryPlan, env: Dict[str, object],
                   scan: List[str]) -> List[str]:
    """Body lines that leave the rows to loop over in ``state``: the
    visit set the pushdowns computed when it prunes, else ``scan``;
    binds the probe constants into ``env``."""
    compiled, pushdowns = plan.compiled, plan.pushdowns
    n_eq = sum(1 for p in pushdowns if p.kind == "eq")
    # When every where conjunct was pushed down (empty residual) and no
    # aggregates fold, a candidate reached through *exact* value
    # postings -- no residue merged, no INAPPLICABLE rows to visit -- is
    # already proven to satisfy the whole where clause: its value sits
    # in the probe's hash bucket (same ``==`` the comparison uses) and
    # memberships were intersected directly.  Such runs take the
    # where-free loop; any residue/skip contamination re-checks.
    no_where = not plan.residual and compiled.aggregates is None
    estimates, guards = [], []
    for i, p in enumerate(pushdowns):
        if p.kind == "eq":
            env[f"_a{i}"] = p.attribute
            env[f"_v{i}"] = p.value
            guards.append(f"_a{i} in manager")
            estimates.append(f"manager.selectivity(_a{i}, _v{i}) + "
                             f"len(manager.inapplicable(_a{i}))")
        else:
            env[f"_c{i}"] = p.class_name
            estimates.append(f"store.count(_c{i})")
    lines = ["visit = None"]
    if no_where:
        lines.append("proven = False")
    algebra = ["extent_set = store.extent_surrogates(_source)",
               "scan_rows = len(extent_set)"]
    # Pre-estimate from index stats / extent counts: skip the set
    # algebra when no pushdown can possibly prune.  A not-member
    # pushdown has no cheap upper bound, so its presence disables the
    # shortcut.
    if any(p.kind == "not-member" for p in pushdowns):
        algebra.append("if scan_rows:")
    elif len(estimates) == 1:
        algebra.append(f"if scan_rows and {estimates[0]} < scan_rows:")
    else:
        algebra.append(
            f"if scan_rows and min({', '.join(estimates)}) < scan_rows:")
    steps = ["cand = extent_set"]
    if n_eq:
        steps.append("skips = None")
    if no_where and n_eq:
        steps.append("exact = True")
    for i, p in enumerate(pushdowns):
        if p.kind == "eq":
            steps += [
                f"inap = manager.inapplicable(_a{i}) & cand",
                "skips = inap if skips is None else skips | inap",
                f"matched = manager.lookup(_a{i}, _v{i}) & cand",
                f"residue = manager.residue(_a{i})",
                "if residue:",
            ]
            if no_where:
                steps += [
                    "    res = residue & cand",
                    "    if res:",
                    "        matched = matched | res",
                    "        exact = False",
                ]
            else:
                steps.append("    matched = matched | (residue & cand)")
            steps.append("cand = matched")
        elif p.kind == "member":
            steps.append(f"cand = cand & store.extent_surrogates(_c{i})")
        else:
            steps.append(f"cand = cand - store.extent_surrogates(_c{i})")
    steps += [
        f"qstats.index_lookups += {len(pushdowns)}",
        f"stats.index_lookups = {len(pushdowns)}",
        # Skip rows are visited, not pruned (module docstring, rule 1).
        "visit = cand | skips" if n_eq else "visit = cand",
        "pruned = scan_rows - len(visit)",
        "if pruned <= 0:",
        "    visit = None",
    ]
    if no_where:
        # Membership-only pushdowns are always exact.
        steps += ["else:", "    proven = exact and not skips" if n_eq
                  else "    proven = True"]
    algebra += indent(steps)
    # Stale-design guard first: every pushed equality still needs its
    # index.
    if guards:
        algebra = [f"if {' and '.join(guards)}:"] + indent(algebra)
    lines += algebra + ["if visit is None:"] + indent(scan) + [
        "else:",
        "    qstats.index_scans += 1",
        "    qstats.rows_pruned += pruned",
        "    stats.rows_pruned = pruned",
        # Bitset visit sets iterate in ascending surrogate order -- the
        # scan's extent order -- so no sort is needed.
        "    state = store.visit_rows(visit)",
    ]
    if no_where:
        lines += ["if proven:"] + indent(compiled.loop_source(where=False))
    return lines


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def execute_plan(plan: QueryPlan, store) -> Tuple[List[tuple],
                                                  ExecutionStats]:
    """Run a plan through its generated function: prune through the
    indexes when that wins, fall back to the guarded full scan when it
    does not.  Results and every ``ExecutionStats`` field match the
    closure-tree reference (``tests/reference_query.py``) on the same
    compiled query exactly (``tests/test_generated_equivalence.py``).
    """
    stats = ExecutionStats()
    return plan.executor(store, stats), stats


def execute_planned(query: Union[str, Query], store,
                    **compile_kwargs) -> Tuple[List[tuple],
                                               ExecutionStats]:
    """Plan-cache-aware execution: the one-call read path, over the live
    store or any snapshot-like view of it."""
    return execute_plan(plan_query(query, store, **compile_kwargs), store)
