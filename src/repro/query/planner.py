"""Cost-based query planning: predicate pushdown into index lookups.

The compiler (:mod:`repro.query.compiler`) decides *how each row is
checked*; this module decides *which rows are visited at all*.  A plan
wraps a compiled query with the sargable ``where`` conjuncts the planner
proved safe to push down:

* ``x.attr = const`` -- an equality probe into the store's secondary
  hash index on ``attr`` (:mod:`repro.query.indexes`); ``<``, ``<=``,
  ``>``, ``>=`` walk its bucket keys instead (``range_buckets``);
* ``x in Class`` / ``x not in Class`` -- an intersection with (or
  subtraction of) the class's extent surrogate set, the membership index
  the store maintains anyway.

Exactness under excuse semantics
--------------------------------

The guarded scan does not merely filter rows -- it *skips* them (counted
in ``rows_skipped``) when a guarded access hits INAPPLICABLE, and the
planner must reproduce that behaviour bit for bit.  Two rules make the
indexed plan provably scan-equivalent:

1. **Skip rows are never pruned.**  For every pushed equality the
   executor takes the index's INAPPLICABLE posting (restricted to the
   candidates so far) aside *before* intersecting with the value
   posting; a range adds its residue and the buckets whose comparison
   raised.  The row loop skips/raises/nulls them as the scan would; a
   run that proves its rows under ``"skip"`` counts them instead.
2. **A pushdown is only legal while the residual prefix cannot skip.**
   Conjuncts are evaluated left to right with short-circuit ``and``; a
   row pruned by conjunct *j* is silently dropped by the scan only if no
   conjunct *i < j* can raise a skip first.  Residual conjuncts that
   contain attribute accesses can; once one appears, every later
   sargable conjunct is blocked (reported in ``explain()``).  Pushed
   conjuncts themselves never break the rule: memberships cannot skip,
   and equalities and ranges contribute their skip rows to the visit set.

Rows that survive pruning run the scan's generated row loop (minus the
``where`` in a run that proved them) over the surrogate-sorted visit
set, so results, order, and ``rows_skipped`` match the full scan
(property-tested in ``tests/test_planner_equivalence_properties.py``).

Costing is deliberately simple: posting sizes and ``store.count()`` are
exact, so the executor compares the materialized visit set against the
extent and falls back to the scan when pruning bought nothing (or a
range walk would cost more than the scan, :data:`RANGE_KEY_ROWS`).  Plans
are cached per store, keyed on (query text, schema version, index-design
version, compile options, wire): a hit skips parse, typing, compilation
and pushdown extraction; a miss pays them for its own text only, as the
pushdown lines are assembled once per plan shape (:func:`_prelude`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
)

#: Scanned rows one bucket key of a range walk costs (it walks while
#: ``keys * RANGE_KEY_ROWS < extent rows``).  Intel Xeon, CPython 3.11: a
#: key ~0.07 us, ~0.5 us if it matches; a ``p.age > k`` row ~0.08 us.
RANGE_KEY_ROWS = 4


@dataclass(frozen=True)
class Pushdown:
    """One sargable conjunct the executor resolves through an index."""

    kind: str                    # "eq" | "range" | "member" | "not-member"
    text: str                          # the conjunct, for explain()
    attribute: Optional[str] = None    # eq/range: the indexed attribute
    value: object = None               # eq/range: the constant
    class_name: Optional[str] = None   # member/not-member: the class
    op: Optional[str] = None           # eq/range: the comparison
    const_left: bool = False           # eq/range: `value op attribute`


@dataclass
class QueryPlan:
    """A compiled query plus its pushdown decisions."""

    compiled: CompiledQuery
    pushdowns: Tuple[Pushdown, ...]
    #: Conjuncts left to the guarded row loop.
    residual: Tuple[str, ...]
    #: (conjunct text, reason) pairs for sargable-but-not-pushed ones.
    blocked: Tuple[Tuple[str, str], ...]
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
        rows = store.count(source) if store is not None else 0
        for p in self.pushdowns:
            indexed = p.attribute in manager
            keys = len(manager.buckets(p.attribute)) if indexed else "N"
            via = {
                "eq": f"index({p.attribute}) + its INAPPLICABLE posting",
                "range": f"index({p.attribute}) range over {keys} keys + "
                         "its INAPPLICABLE posting",
                "member": f"extent-set intersection ({p.class_name})",
                "not-member": f"extent-set subtraction ({p.class_name})",
            }[p.kind]
            estimate = ""
            if store is not None:
                estimate = f"  ~{self._estimate(p, store)} rows"
            lines.append(f"  [pushdown] {p.text}  via {via}{estimate}")
            if indexed:
                # The surface the live manager and a snapshot's frozen
                # postings share.
                lines.append(
                    "             postings: "
                    f"{len(manager.inapplicable(p.attribute))} "
                    "inapplicable, "
                    f"{len(manager.residue(p.attribute))} residue")
            if indexed and p.kind == "range" and keys * RANGE_KEY_ROWS >= rows:
                lines.append(
                    f"             falls back to the full scan: {keys} keys"
                    f" x {RANGE_KEY_ROWS} >= {rows} extent rows")
            lines.append(f"             loop: {self._loop(p, manager)}")
        for text in self.residual:
            lines.append(f"  [residual] {text}  -- guarded row loop")
        for text, reason in self.blocked:
            lines.append(f"  [blocked ] {text}  -- {reason}")
        if store is not None:
            lines.append(f"  extent({source}): {rows} rows")
            qstats = manager.qstats
            lines.append(
                f"  plan cache: {qstats.plan_hits} hit(s), "
                f"{qstats.plan_misses} miss(es), "
                f"{qstats.plan_evictions} eviction(s); "
                f"{qstats.compiled_execs} generated execution(s), "
                f"{qstats.sources_compiled} source(s) compiled")
        return "\n".join(lines)

    def _loop(self, p: Pushdown, manager) -> str:
        """Which row loop a pruning run takes, and why (:func:`_prelude`)."""
        policy = self.compiled.emitter.on_unsafe
        if self.residual or self.compiled.aggregates is not None:
            return ("visits skip rows: a residual conjunct or an aggregate"
                    " reads every row")
        if policy != "skip" and any(q.attribute for q in self.pushdowns):
            return (f"visits skip rows: on_unsafe={policy!r} must see them"
                    " (proves its rows when there are none)")
        unsure = 0
        if p.attribute in manager:
            unsure = len(manager.residue(p.attribute)) + (len(manager.range(
                p.attribute, p.value, p.op, p.const_left)[1])
                if p.kind == "range" else 0)
        return (f"visits skip rows: {unsure} residue or unorderable rows "
                "may meet the candidates" if unsure
                else "proves its rows; skip rows counted")

    def _estimate(self, p: Pushdown, store) -> int:
        manager = store.indexes
        if p.kind == "member":
            return store.count(p.class_name)
        if p.kind == "not-member":
            return max(store.count(self.compiled.source_class) -
                       store.count(p.class_name), 0)
        if p.attribute not in manager:
            return 0
        if p.kind == "eq":
            return manager.selectivity(p.attribute, p.value)
        return sum(map(len, manager.range(p.attribute, p.value, p.op,
                                          p.const_left)))


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
    if isinstance(conjunct, Compare) and conjunct.op in (
            "=", "<", "<=", ">", ">="):
        left, right = conjunct.left, conjunct.right
        const_left = isinstance(left, Const) and isinstance(right, Path)
        if const_left:
            left, right = right, left
        if (isinstance(left, Path) and isinstance(right, Const)
                and isinstance(left.base, Var) and left.base.name == var):
            return Pushdown(kind="eq" if conjunct.op == "=" else "range",
                            text=str(conjunct), attribute=left.attribute,
                            value=right.value, op=conjunct.op,
                            const_left=const_left)
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
        if p is not None and p.attribute and p.attribute not in manager:
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
    )
    plan.executor = _compile_executor(plan, manager.qstats)
    return plan


# ----------------------------------------------------------------------
# Planning with the plan cache
# ----------------------------------------------------------------------

#: The options key of a call that passes none.
_DEFAULT_OPTIONS = tuple(default for _, default in _COMPILE_OPTION_DEFAULTS)


def _options_key(compile_kwargs: Dict[str, object]) -> Tuple:
    if not compile_kwargs:
        return _DEFAULT_OPTIONS
    unknown = set(compile_kwargs) - {k for k, _ in _COMPILE_OPTION_DEFAULTS}
    if unknown:
        raise TypeError(
            f"unknown compile option(s): {', '.join(sorted(unknown))}")
    return tuple(
        compile_kwargs.get(name, default)
        for name, default in _COMPILE_OPTION_DEFAULTS
    )


def plan_query(query: Union[str, Query], store, *, wire: bool = False,
               **compile_kwargs) -> QueryPlan:
    """Plan (or fetch the cached plan for) ``query`` against ``store``.

    The cache key is (query text, schema version, index-design version,
    compile options, ``wire``): a hit skips parse, type analysis,
    compilation, and pushdown extraction; any schema mutation or index
    create/drop simply stops the old key from matching.  ``wire`` is
    the edge's choice, not a compile option: a wire plan returns the
    ``query`` op's flat reply rows (``compile_query(wire=True)``).
    """
    schema = store.schema
    manager = store.indexes
    text = query if isinstance(query, str) else str(query)
    key = (text, schema.version, manager.version,
           _options_key(compile_kwargs), wire)
    plan = manager.plan_cache.get(key)
    if plan is not None:
        return plan
    compiled = compile_query(query, schema, wire=wire, **compile_kwargs)
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
    (:func:`repro.query.compiler.instantiate`) and pushdown lines
    (:func:`_prelude`): a plan-cache miss pays for parsing, typing and
    emitting its own text, and for the ``exec`` of a ``def``.

    The function takes ``(store, stats)`` -- any store-like object with
    an index manager, so one cached plan serves the live store and every
    snapshot -- and returns the row list.  Its set algebra counts into
    the manager's ``bitset_stats``, the store's own sink.  Rows arrive as
    ``(ref, memberships, values)`` from ``store.scan_rows`` /
    ``store.visit_rows``.  When the physical design moved underneath the
    plan (a pushed equality's index was dropped) it runs the guarded
    full scan: anything missing means scan, never a wrong answer.

    A pushdown plan has one memo slot, keyed on the view's ``memo_ref``
    (a weak reference a ``StoreSnapshot`` or ``MaskedSnapshot`` holds to
    itself): a re-run on the same read-only view takes its outcome and
    visit rows from it, skipping the set algebra.  It holds the access
    path, never the answer (the row loop runs every call); the live
    store and a worker scope's view have ``memo_ref = None``.
    """
    compiled = plan.compiled
    env: Dict[str, object] = {}
    body = list(_SCAN)
    if plan.pushdowns:
        no_where = not plan.residual and compiled.aggregates is None
        body = list(_prelude(tuple(p.kind for p in plan.pushdowns),
                             no_where, compiled.emitter.on_unsafe))
        if no_where:
            body += ["if proven:"] + indent(compiled.loop_source(where=False))
        # The names _prelude reads: the memo slot, probe values, classes.
        env["_memo"] = [None]     # (view's memo_ref, outcome, rows)
        for i, p in enumerate(plan.pushdowns):
            if p.attribute:
                env[f"_a{i}"], env[f"_v{i}"] = p.attribute, p.value
            if p.kind == "range":
                env[f"_r{i}"] = (p.op, p.const_left)
            if p.class_name:
                env[f"_c{i}"] = p.class_name
    return compiled.emitter.function("_plan", "store, stats", [
        "manager = store.indexes",
        "qstats = manager.qstats",
        "qstats.compiled_execs += 1",
        *body,
        *compiled.loop_source(),
    ], env, qstats)


#: The rows of a run that does not prune.
_SCAN = ("qstats.full_scans += 1", "state = store.scan_rows(_source)")


@lru_cache(maxsize=256)
def _prelude(kinds: Tuple[str, ...], no_where: bool,
             on_unsafe: str) -> Tuple[str, ...]:
    """Body lines that leave the rows to loop over in ``state``: the
    visit set the pushdowns of ``kinds`` computed when it prunes, else
    the scan's.  A pure function of the plan's shape, so plans of one
    shape assemble it once; ``eq`` and ``range`` probe an index."""
    probes = any(kind in ("eq", "range") for kind in kinds)
    # When every where conjunct was pushed down (no_where: empty
    # residual, no aggregate) an *exact* run -- no residue row and no
    # unorderable bucket met the candidates -- proves its rows: each
    # value sits in a bucket whose key satisfies its conjunct (`==` as
    # the scan compares; a range key orders as its values do, SEMANTICS
    # §8) and memberships were intersected directly, so they take the
    # caller's where-free loop (`if proven:`).  Each skip row passed
    # every earlier conjunct and is INAPPLICABLE on its own: under "skip"
    # the run counts it in rows_skipped and in rows_scanned (still the
    # visit set's size) without visiting it; under "null" and "raise" it
    # must be visited, so only a run without any proves.  Everything
    # else visits cand | skips through the guarded loop.
    estimates, guards, walks = [], [], []
    for i, kind in enumerate(kinds):
        if kind in ("eq", "range"):
            guards.append(f"_a{i} in manager")
        if kind == "eq":
            estimates.append(f"manager.selectivity(_a{i}, _v{i}) + "
                             f"len(manager.inapplicable(_a{i}))")
        elif kind == "range":
            walks.append(f"len(manager.buckets(_a{i})) * {RANGE_KEY_ROWS}"
                         " < scan_rows")
        else:
            estimates.append(f"store.count(_c{i})")
    outcome = "lookups, pruned, proven, unvisited, state"
    lines = ["bitset = manager.bitset_stats", "view = store.memo_ref",
             "held = _memo[0]", "if held is not None and held[0] is view:",
             f"    _, {outcome} = held", "    if state is not None:",
             "        bitset.rows_carried += len(state)", "else:"]
    miss = ["visit = None", "lookups = pruned = unvisited = 0",
            "proven = False"]
    algebra = ["extent_set = store.extent_surrogates(_source)",
               "scan_rows = len(extent_set)"]
    # Pre-estimate from index stats / extent counts: skip the set
    # algebra when no pushdown can possibly prune.  A not-member or
    # range pushdown has no cheap upper bound, so its presence disables
    # the shortcut; a range walk must still cost less than the scan.
    if any(kind in ("not-member", "range") for kind in kinds):
        test = "scan_rows"
    elif len(estimates) == 1:
        test = f"scan_rows and {estimates[0]} < scan_rows"
    else:
        test = f"scan_rows and min({', '.join(estimates)}) < scan_rows"
    algebra.append(f"if {' and '.join([test] + walks)}:")
    steps = ["cand = extent_set"]
    if probes:
        steps.append("skips = None")
    if no_where and probes:
        steps.append("exact = True")
    # Residue and unorderable rows: visited, and the run is inexact.
    inexact = ["    exact = False"] if no_where else []
    for i, kind in enumerate(kinds):
        inap = f"inap = cand.and_(manager.inapplicable(_a{i}), bitset)"
        skips = "skips = inap if skips is None else skips.or_(inap, bitset)"
        if kind == "range":
            steps += [
                f"hits, unordered = manager.range(_a{i}, _v{i}, *_r{i})",
                inap,
                f"res = cand.and_(manager.residue(_a{i}).or_(unordered, "
                "bitset), bitset)",
                "if res:", "    inap = inap.or_(res, bitset)", *inexact,
                skips,
                "cand = cand.and_(hits, bitset)",
            ]
        elif kind == "eq":
            steps += [
                inap,
                skips,
                f"matched = cand.and_(manager.lookup(_a{i}, _v{i}), bitset)",
                f"res = cand.and_(manager.residue(_a{i}), bitset)",
                "if res:", "    matched = matched.or_(res, bitset)",
                *inexact,
                "cand = matched",
            ]
        else:
            op = "and_" if kind == "member" else "sub"
            steps.append(
                f"cand = cand.{op}(store.extent_surrogates(_c{i}), bitset)")
    steps += [
        f"lookups = {len(kinds)}",
        # cand and skips are disjoint: a row is in one posting per index.
        "pruned = scan_rows - len(cand)" + (" - len(skips)" if probes
                                             else ""),
    ]
    visit = ("    visit = cand.or_(skips, bitset)" if probes
             else "    visit = cand")
    if no_where and probes and on_unsafe == "skip":
        steps += ["if pruned > 0 and exact:", "    proven = True",
                  "    visit = cand", "    unvisited = len(skips)",
                  "elif pruned > 0:", visit]
    else:
        steps += ["if pruned > 0:", visit]
        if no_where:
            steps.append("    proven = exact and not skips" if probes
                         else "    proven = True")
    algebra += indent(steps)
    # Stale-design guard first: every pushed equality or range still
    # needs its index.
    if guards:
        algebra = [f"if {' and '.join(guards)}:"] + indent(algebra)
    miss += algebra + [
        # Bitset visit sets iterate in ascending surrogate order -- the
        # scan's extent order -- so no sort is needed.
        "state = None if visit is None else store.visit_rows(visit)",
        "if view is not None:", f"    _memo[0] = (view, {outcome})"]
    return tuple(lines + indent(miss) + [
        "qstats.index_lookups += lookups",
        "stats.index_lookups = lookups",
        "if state is None:", *indent(list(_SCAN)),
        "else:",
        "    qstats.index_scans += 1",
        "    qstats.rows_pruned += pruned",
        "    stats.rows_pruned = pruned",
        # Nonzero only in a run that proved its rows under "skip".
        "    stats.rows_scanned = stats.rows_skipped = unvisited",
    ])


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
