"""The closure-tree query evaluator -- the oracle for generated plans.

Until PR 19 this *was* the execution path (``query/compiler.py`` built
one ``lambda ctx: ...`` per AST node, ``query/interpreter.run_rows``
walked the tree per row through a ``RuntimeContext``).  The serving
path now generates one function per plan; this plain reading stays with
the tests as what "the same answer" means:

* rows come from ``store.extent`` / ``store.get`` as entity objects and
  every attribute is read through ``get_value`` / ``store.is_member``;
* whether an access is guarded is the compiler's verdict -- the
  reference consumes ``CompiledQuery.decisions`` in compile order rather
  than running a second analysis -- but *what a guard does* (count,
  test the base, test the value, skip / null / raise) is spelled out
  here independently of the emitter;
* :func:`reference_execute_plan` walks ``plan.pushdowns`` one at a time
  with ordinary set algebra, including the two exactness rules of
  ``planner``'s docstring (skip rows are visited; the where-free loop
  only over exact, skip-free visit sets).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from hypothesis import strategies as st

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
from repro.query.compiler import CompiledQuery, QueryRuntimeError
from repro.query.interpreter import ExecutionStats
from repro.typesys.values import INAPPLICABLE, RecordValue, is_entity


class SkipRow(Exception):
    """A guarded access failed; the current row is skipped."""


@dataclass
class RuntimeContext:
    """Per-row evaluation state."""

    store: object
    bindings: Dict[str, object]
    stats: ExecutionStats


_EvalFn = Callable[[RuntimeContext], object]


class _ClosureCompiler:
    def __init__(self, decisions: Iterable[Tuple[str, bool, str]],
                 on_unsafe: str) -> None:
        self._decisions: Iterator = iter(decisions)
        self.on_unsafe = on_unsafe

    def _fail(self, message: str):
        if self.on_unsafe == "skip":
            raise SkipRow()
        if self.on_unsafe == "null":
            return INAPPLICABLE
        raise QueryRuntimeError(message)

    def compile_expr(self, expr: Expr) -> _EvalFn:
        if isinstance(expr, Var):
            return lambda ctx, _name=expr.name: ctx.bindings[_name]

        if isinstance(expr, Const):
            return lambda ctx, _v=expr.value: _v

        if isinstance(expr, Path):
            return self._compile_path(expr)

        if isinstance(expr, (InClass, NotInClass)):
            inner = self.compile_expr(expr.expr)
            wanted = isinstance(expr, InClass)

            def eval_in(ctx, _f=inner, _c=expr.class_name):
                value = _f(ctx)
                return wanted == bool(
                    is_entity(value) and ctx.store.is_member(value, _c))
            return eval_in

        if isinstance(expr, Not):
            inner = self.compile_expr(expr.operand)
            return lambda ctx, _f=inner: not _f(ctx)

        if isinstance(expr, And):
            left = self.compile_expr(expr.left)
            right = self.compile_expr(expr.right)
            return lambda ctx: bool(left(ctx)) and bool(right(ctx))

        if isinstance(expr, Or):
            left = self.compile_expr(expr.left)
            right = self.compile_expr(expr.right)
            return lambda ctx: bool(left(ctx)) or bool(right(ctx))

        if isinstance(expr, Compare):
            return self._compile_compare(expr)

        if isinstance(expr, When):
            cond = self.compile_expr(expr.condition)
            then_fn = self.compile_expr(expr.then)
            else_fn = self.compile_expr(expr.otherwise)
            return lambda ctx: then_fn(ctx) if cond(ctx) else else_fn(ctx)

        raise AssertionError(f"cannot evaluate {expr!r}")

    def _compile_path(self, expr: Path) -> _EvalFn:
        base_fn = self.compile_expr(expr.base)
        text, checked, _reason = next(self._decisions)
        assert text == str(expr), (text, str(expr))
        attribute = expr.attribute

        if not checked:
            return lambda ctx: base_fn(ctx).get_value(attribute)

        def eval_checked(ctx):
            base = base_fn(ctx)
            ctx.stats.checks_executed += 1
            if base is INAPPLICABLE or not (
                    is_entity(base) or isinstance(base, RecordValue)):
                return self._fail(f"{text}: base value has no attributes")
            value = base.get_value(attribute)
            if value is INAPPLICABLE:
                return self._fail(
                    f"{text}: attribute {attribute!r} is inapplicable")
            return value
        return eval_checked

    def _compile_compare(self, expr: Compare) -> _EvalFn:
        left = self.compile_expr(expr.left)
        right = self.compile_expr(expr.right)
        op = expr.op

        def eval_compare(ctx):
            lv, rv = left(ctx), right(ctx)
            if lv is INAPPLICABLE or rv is INAPPLICABLE:
                result = self._fail(f"{expr}: INAPPLICABLE operand")
                return False if result is INAPPLICABLE else result
            if op == "=":
                return lv == rv
            if op == "!=":
                return lv != rv
            try:
                if op == "<":
                    return lv < rv
                if op == "<=":
                    return lv <= rv
                if op == ">":
                    return lv > rv
                if op == ">=":
                    return lv >= rv
            except TypeError:
                raise QueryRuntimeError(
                    f"{expr}: unorderable values {lv!r}, {rv!r}") from None
            raise QueryRuntimeError(f"unknown operator {op!r}")
        return eval_compare


class _Accumulator:
    """One aggregate fold; values of INAPPLICABLE are skipped."""

    def __init__(self, function: str) -> None:
        self.function = function
        self.n = 0
        self.total = 0
        self.best = None

    def add(self, value) -> None:
        if value is INAPPLICABLE:
            return
        self.n += 1
        if self.function in ("total", "avg"):
            self.total += value
        elif self.function == "min":
            if self.best is None or value < self.best:
                self.best = value
        elif self.function == "max":
            if self.best is None or value > self.best:
                self.best = value

    def result(self):
        if self.function == "count":
            return self.n
        if self.function == "total":
            return self.total
        if self.n == 0:
            return INAPPLICABLE  # min/max/avg of nothing
        if self.function == "avg":
            return self.total / self.n
        return self.best


@dataclass
class ReferenceQuery:
    """The closure tree of one compiled query (same compile order as the
    emitter: where, then each select item, each left to right)."""

    var: str
    where_fn: Optional[_EvalFn]
    select_fns: List[_EvalFn]
    aggregates: Optional[List[Tuple[str, Optional[_EvalFn]]]]


def reference_compile(compiled: CompiledQuery,
                      on_unsafe: str = "skip") -> ReferenceQuery:
    query = compiled.query
    closures = _ClosureCompiler(compiled.decisions, on_unsafe)
    where_fn = (closures.compile_expr(query.where)
                if query.where is not None else None)
    if compiled.aggregates is not None:
        return ReferenceQuery(query.var, where_fn, [], [
            (e.function, closures.compile_expr(e.operand)
             if e.operand is not None else None)
            for e in query.select])
    return ReferenceQuery(
        query.var, where_fn,
        [closures.compile_expr(e) for e in query.select], None)


def run_rows(reference: ReferenceQuery, store, objects: Iterable,
             stats: ExecutionStats, where: bool = True) -> List[tuple]:
    """The row loop: evaluate ``where`` and ``select`` per object."""
    bindings = {reference.var: None}
    ctx = RuntimeContext(store=store, bindings=bindings, stats=stats)
    where_fn = reference.where_fn if where else None
    accumulators = None
    if reference.aggregates is not None:
        accumulators = [_Accumulator(function)
                        for function, _fn in reference.aggregates]
    rows: List[tuple] = []
    for obj in objects:
        stats.rows_scanned += 1
        bindings[reference.var] = obj
        try:
            if where_fn is not None and not where_fn(ctx):
                continue
            if accumulators is None:
                rows.append(tuple(fn(ctx) for fn in reference.select_fns))
                stats.rows_returned += 1
                continue
            for accumulator, (_function, operand_fn) in zip(
                    accumulators, reference.aggregates):
                if operand_fn is None:
                    accumulator.n += 1  # bare `count`: count the row
                else:
                    accumulator.add(operand_fn(ctx))
        except SkipRow:
            stats.rows_skipped += 1
    if accumulators is not None:
        stats.rows_returned = 1
        return [tuple(a.result() for a in accumulators)]
    return rows


def reference_execute(compiled: CompiledQuery, store,
                      on_unsafe: str = "skip"
                      ) -> Tuple[List[tuple], ExecutionStats]:
    """The guarded full scan of ``store.extent(source)``."""
    stats = ExecutionStats()
    rows = run_rows(reference_compile(compiled, on_unsafe), store,
                    store.extent(compiled.source_class), stats)
    return rows, stats


def reference_execute_plan(plan, store, on_unsafe: str = "skip"
                           ) -> Tuple[List[tuple], ExecutionStats]:
    """Prune through ``plan.pushdowns`` when that wins, else scan."""
    compiled = plan.compiled
    reference = reference_compile(compiled, on_unsafe)
    stats = ExecutionStats()
    manager = store.indexes
    pushdowns = plan.pushdowns
    extent = store.extent_surrogates(compiled.source_class)
    usable = bool(pushdowns) and bool(extent) and all(
        p.attribute in manager for p in pushdowns if p.kind == "eq")
    if usable and not any(p.kind == "not-member" for p in pushdowns):
        # No pushdown can prune: the algebra is not even attempted.
        usable = min(
            manager.selectivity(p.attribute, p.value)
            + len(manager.inapplicable(p.attribute)) if p.kind == "eq"
            else store.count(p.class_name)
            for p in pushdowns) < len(extent)
    if usable:
        cand = set(extent)
        skips: set = set()
        exact = True
        for p in pushdowns:
            if p.kind == "eq":
                # Rule 1: rows the scan would skip are visited.
                skips |= set(manager.inapplicable(p.attribute)) & cand
                matched = set(manager.lookup(p.attribute, p.value)) & cand
                residue = set(manager.residue(p.attribute)) & cand
                if residue:
                    matched |= residue
                    exact = False
                cand = matched
            elif p.kind == "member":
                cand &= set(store.extent_surrogates(p.class_name))
            else:
                cand -= set(store.extent_surrogates(p.class_name))
        stats.index_lookups = len(pushdowns)
        visit = cand | skips
        pruned = len(extent) - len(visit)
        if pruned > 0:
            stats.rows_pruned = pruned
            proven = (not plan.residual and compiled.aggregates is None
                      and exact and not skips)
            objects = [store.get(s) for s in sorted(visit)]
            return run_rows(reference, store, objects, stats,
                            where=not proven), stats
    return run_rows(reference, store,
                    store.extent(compiled.source_class), stats), stats


# ----------------------------------------------------------------------
# Every tree the grammar can express, over a given vocabulary
# ----------------------------------------------------------------------

def expr_trees(names, attributes, classes, consts, max_leaves: int = 10):
    """Expression trees over ``names`` (variables), ``attributes``,
    ``classes`` and the ``consts`` value strategy."""
    attribute = st.sampled_from(attributes)
    class_name = st.sampled_from(classes)
    paths = st.builds(
        lambda var, attrs: functools.reduce(Path, attrs, Var(var)),
        st.sampled_from(names), st.lists(attribute, max_size=3))

    def compound(children):
        return st.one_of(
            st.builds(Compare,
                      st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
                      children, children),
            st.builds(InClass, children, class_name),
            st.builds(NotInClass, children, class_name),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Not, children),
            st.builds(When, children, children, children),
            st.builds(Path, children, attribute),
        )

    return st.recursive(st.one_of(consts.map(Const), paths), compound,
                        max_leaves=max_leaves)


def query_trees(names, classes, attributes, consts):
    """Whole queries, aggregates and per-row select items mixed freely
    (the parser accepts the mix; the compiler rejects it)."""
    exprs = expr_trees(names, attributes, classes, consts)
    select_items = st.one_of(
        exprs,
        st.just(Aggregate("count")),
        st.builds(Aggregate,
                  st.sampled_from(("count", "min", "max", "avg", "total")),
                  exprs),
    )
    return st.builds(
        Query, st.sampled_from(names), st.sampled_from(classes),
        st.none() | exprs,
        st.lists(select_items, min_size=1, max_size=3).map(tuple))
