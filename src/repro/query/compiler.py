"""Typing-directed query compilation with run-time check elimination.

Section 5.4: "If 'type-unsafe' queries are allowed to run, the compiler
can avoid the introduction of run-time safety tests in those cases where
it has determined that no type error can occur, and thereby considerably
increase the efficiency of the code generated."

One typing pass decides every attribute access in its control-flow
context (``TypeReport.decisions``: the same expression inside a ``when
p in Alcoholic`` branch and outside it is decided twice); the compiler
walks the query in the same order, reads each access's decision and
emits one Python *expression* per node.  A proven access is a bare
fetch; a checked one counts itself, tests for INAPPLICABLE/ill-typed
values at run time and (by default) skips the offending row.
``eliminate_checks=False`` guards *every* access -- the "no type
inference" baseline benchmark E3 measures against.

The expressions are spliced into one generated function per query: the
row loop of :meth:`CompiledQuery.loop_source`, behind the planner's
pushdown algebra.  The row variable never exists as an object there --
its attributes are read off the row's value dict, its memberships tested
against a frozen subclass set -- so a row source hands the loop
``(ref, memberships, values)`` and an entity is materialised
(``store.get(ref)``) only where the variable itself escapes into a
value (a wire row names it by ``ref.id``).  Names and constants the
user chose are bound through the function's namespace, never spelled
in the source: queries that differ only in those share one code object
(:func:`instantiate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro import codec
from repro.errors import QueryRuntimeError, QueryTypeError
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
    split_conjuncts,
)
from repro.query.analysis import analyze
from repro.query.parser import parse_expr, parse_query
from repro.query.typing import (
    AccessDecision, FlowFacts, QueryTyper, TypeReport)
from repro.schema.schema import Schema
from repro.typesys.values import INAPPLICABLE, RecordValue, is_entity


class _Skip(Exception):
    """Internal: a guarded access failed; the current row is skipped."""


def _skip():
    raise _Skip()


def _raise(message: str):
    raise QueryRuntimeError(message)


def _no_attributes(base, _counted) -> bool:
    """Whether a guarded fetch must fail on its base.  The second
    argument is the access counting itself: an argument, so that it
    happens after the base was evaluated and before the test."""
    return not (is_entity(base) or isinstance(base, RecordValue))


#: What generated code may call, bound into every function's namespace.
_RUNTIME: Dict[str, object] = {
    "INAP": INAPPLICABLE,
    "_Skip": _Skip,
    "_skip": _skip,
    "_raise": _raise,
    "_no_attributes": _no_attributes,
    "_is_entity": is_entity,
    "QueryRuntimeError": QueryRuntimeError,
    # A wire row's values (:mod:`repro.codec`).
    "_PLAIN": frozenset({int, str, float, bool, type(None)}),
    "_encode": codec.encode_value,
    "_ref": codec.ref,
}

#: The failure policies of a guarded access.
ON_UNSAFE = ("skip", "null", "raise")


@lru_cache(maxsize=512)
def _code_object(source: str):
    return compile(source, "<generated-query>", "exec")


def instantiate(name: str, source: str, namespace: Dict[str, object],
                qstats=None) -> Callable:
    """The function ``name`` that ``source`` defines, closed over
    ``namespace``.

    The code object is memoised on the source text (bounded LRU): names
    and constants live in the namespace, so every query of one *shape*
    pays ``compile`` once per process and each further plan only the
    ``exec`` of a ``def``.  ``qstats.sources_compiled`` counts the
    misses.
    """
    misses = _code_object.cache_info().misses
    code = _code_object(source)
    if qstats is not None:
        qstats.sources_compiled += _code_object.cache_info().misses - misses
    env = {**_RUNTIME, **namespace}
    exec(code, env)
    function = env[name]
    # Introspectable (explain, tests).
    function._source, function._bindings = source, namespace
    return function


class _Code(NamedTuple):
    """One emitted expression and what is statically known of it."""

    src: str
    inap: bool      # may evaluate to INAPPLICABLE
    boolean: bool   # always evaluates to a bool


class _Emitter:
    """Emits expressions over one bound variable.

    ``fused=True`` is the query row loop: the variable is the current
    row, present only as the locals ``ref``/``memberships``/``values``.
    ``fused=False`` is a predicate over an arbitrary entity held in the
    local ``obj``, read through the entity protocol.  Each access reads
    the next of the typer's ``decisions`` (they are in emission order).
    """

    def __init__(self, schema: Schema, var: str, fused: bool,
                 decisions: List[AccessDecision],
                 on_unsafe: str) -> None:
        if on_unsafe not in ON_UNSAFE:
            raise ValueError(f"bad on_unsafe policy {on_unsafe!r}")
        self.schema = schema
        self.var = var
        self.fused = fused
        self.decisions = iter(decisions)
        self.on_unsafe = on_unsafe
        #: Bound values, by generated name.
        self.namespace: Dict[str, object] = {}
        #: ``store`` methods the expressions call through a local.
        self.store_locals: Dict[str, str] = {}
        #: An ordering comparison was emitted (it can raise TypeError).
        self.ordering = False
        self._names: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def _name(self, prefix: str = "_t") -> str:
        """The next unused generated name (``_t``: a walrus temporary)."""
        self._names[prefix] = self._names.get(prefix, -1) + 1
        return f"{prefix}{self._names[prefix]}"

    def _bind(self, prefix: str, value) -> str:
        name = self._name(prefix)
        self.namespace[name] = value
        return name

    def _fail(self, *message, null: str = "INAP") -> str:
        """What a failed guard evaluates to under the policy (the
        message parts are only rendered for ``"raise"``)."""
        if self.on_unsafe == "skip":
            return "_skip()"
        if self.on_unsafe == "null":
            return null
        return f"_raise({self._bind('_m', ''.join(map(str, message)))})"

    def guarded(self, lines: List[str]) -> List[str]:
        """``lines`` evaluating emitted expressions: where one of them
        orders its operands, unorderable values surface as
        :class:`QueryRuntimeError`."""
        if not self.ordering:
            return lines
        return ["try:"] + indent(lines) + [
            "except TypeError as exc:",
            "    raise QueryRuntimeError("
            "f'{_text}: unorderable values ({exc})') from None"]

    def function(self, name: str, args: str, body: List[str],
                 bindings: Dict[str, object], qstats=None) -> Callable:
        """Instantiate ``def name(args)`` around the emitted expressions
        in ``body``: the store methods they call are bound to locals
        first, ``bindings`` join the namespace."""
        binds = [f"{local} = store.{method}"
                 for local, method in sorted(self.store_locals.items())]
        return instantiate(name, "\n".join(
            [f"def {name}({args}):"] + indent(binds + body)),
            {**self.namespace, **bindings}, qstats)

    # ------------------------------------------------------------------

    def emit(self, expr: Expr) -> _Code:
        if isinstance(expr, Var):
            if expr.name != self.var:
                raise QueryTypeError(f"unbound variable {expr.name!r}")
            if not self.fused:
                return _Code("obj", False, False)
            self.store_locals["_entity"] = "get"
            return _Code("_entity(ref)", False, False)

        if isinstance(expr, Const):
            return _Code(self._bind("_k", expr.value), False,
                         isinstance(expr.value, bool))

        if isinstance(expr, Path):
            return self._emit_path(expr)

        if isinstance(expr, (InClass, NotInClass)):
            negated = "not " if isinstance(expr, NotInClass) else ""
            if self.fused and expr.expr == Var(self.var):
                # Frozen per plan: plan keys carry schema.version.
                name = expr.class_name
                subclasses = self._bind("_s", (
                    self.schema.descendants(name)
                    if self.schema.has_class(name) else frozenset({name})))
                test = f"{subclasses}.isdisjoint(memberships)"
                return _Code(f"({'' if negated else 'not '}{test})",
                             False, True)
            inner = self.emit(expr.expr).src
            self.store_locals["_member"] = "is_member"
            temp = self._name()
            name = self._bind("_g", expr.class_name)
            return _Code(
                f"({negated}(_is_entity({temp} := {inner}) "
                f"and _member({temp}, {name})))", False, True)

        if isinstance(expr, Not):
            inner = self.emit(expr.operand).src
            return _Code(f"(not {inner})", False, True)

        if isinstance(expr, (And, Or)):
            holds = isinstance(expr, And)
            left, right = self.emit(expr.left), self.emit(expr.right)
            operands = [c.src if c.boolean else f"bool({c.src})"
                        for c in (left, right)]
            return _Code(f"({operands[0]} {'and' if holds else 'or'} "
                         f"{operands[1]})", False, True)

        if isinstance(expr, Compare):
            return self._emit_compare(expr)

        if isinstance(expr, When):
            cond = self.emit(expr.condition).src
            then, other = self.emit(expr.then), self.emit(expr.otherwise)
            return _Code(f"({then.src} if {cond} else {other.src})",
                         then.inap or other.inap,
                         then.boolean and other.boolean)

        raise QueryTypeError(f"cannot compile expression {expr!r}")

    def emit_encoded(self, expr: Expr) -> str:
        """``expr`` as a wire row carries it (:mod:`repro.codec`): the
        row itself by its sid, never a wrapper; a primitive as it is;
        anything else through ``encode_value``."""
        if expr == Var(self.var):
            return "_ref(ref.id)"
        temp = self._name()
        return (f"({temp} if ({temp} := {self.emit(expr).src})"
                f".__class__ in _PLAIN else _encode({temp}))")

    def _checked(self, expr: Path) -> bool:
        """The typer's decision on ``expr``: the next one, which must be
        this very node's (a node that occurs twice was decided twice)."""
        node, checked, _reason = next(self.decisions)
        assert node is expr, f"decision for {node} read at {expr}"
        return checked

    def _emit_path(self, expr: Path) -> _Code:
        on_row = self.fused and expr.base == Var(self.var)
        base = None if on_row else self.emit(expr.base).src
        checked = self._checked(expr)
        attribute = self._bind("_f", expr.attribute)

        if not checked:
            if on_row:
                return _Code(f"values.get({attribute}, INAP)", True, False)
            return _Code(f"{base}.get_value({attribute})", True, False)

        description = str(expr)
        inap = self.on_unsafe == "null"
        value = self._name()
        missing = self._fail(description, ": attribute ",
                             repr(expr.attribute), " is inapplicable here")
        if on_row:
            # The row is an entity: only the value can be missing.
            return _Code(
                f"({missing} if (checks := checks + 1) and "
                f"({value} := values.get({attribute}, INAP)) is INAP "
                f"else {value})", inap, False)
        holder = self._name()
        no_attributes = self._fail(
            description, ": base value has no attributes")
        return _Code(
            f"({no_attributes} if _no_attributes({holder} := {base}, "
            f"checks := checks + 1) else ({missing} if ({value} := "
            f"{holder}.get_value({attribute})) is INAP else {value}))",
            inap, False)

    def _emit_compare(self, expr: Compare) -> _Code:
        left, right = self.emit(expr.left), self.emit(expr.right)
        if expr.op not in ("=", "!=", "<", "<=", ">", ">="):
            raise QueryTypeError(f"unknown operator {expr.op!r}")
        if expr.op not in ("=", "!="):
            self.ordering = True
        op = "==" if expr.op == "=" else expr.op
        if not (left.inap or right.inap):
            return _Code(f"({left.src} {op} {right.src})", False, True)
        # Both operands are evaluated (in order) before either is
        # tested, hence ``|``; a constant needs neither.
        tests, operands = [], []
        for code, node in ((left, expr.left), (right, expr.right)):
            if isinstance(node, Const):
                operands.append(code.src)
                continue
            temp = self._name()
            tests.append(f"(({temp} := {code.src}) is INAP)")
            operands.append(temp)
        failed = self._fail(expr, ": INAPPLICABLE operand", null="False")
        return _Code(f"({failed} if {' | '.join(tests)} else "
                     f"{operands[0]} {op} {operands[1]})", False, True)


def indent(lines: List[str], levels: int = 1) -> List[str]:
    return ["    " * levels + line for line in lines]


@dataclass
class CompiledQuery:
    """Emitted expressions plus the analysis artifacts."""

    query: Query
    report: TypeReport
    source_class: str
    checks_inserted: int
    accesses_total: int
    #: (access text, checked?, reason) per access, in emission order.
    decisions: List[Tuple[str, bool, str]]
    emitter: _Emitter = field(repr=False)
    #: Sources: the where clause, then one per select item (per-row
    #: queries) or ``(function, operand or None)`` per item (aggregates).
    where: Optional[str]
    select: Tuple[str, ...] = ()
    aggregates: Optional[Tuple[Tuple[str, Optional[str]], ...]] = None
    #: Per-row results leave as wire rows ``[sid, [encoded...]]``.
    wire: bool = False

    @property
    def checks_eliminated(self) -> int:
        return self.accesses_total - self.checks_inserted

    def explain(self) -> str:
        """A human-readable plan: every attribute access in compile order
        with its check decision and the analysis reason."""
        lines = [f"query: {self.query}",
                 f"source: extent({self.source_class}) as {self.query.var}"]
        if self.source_class != self.query.source_class:
            lines.append(
                f"  (narrowed from extent({self.query.source_class}) by "
                "a where-clause membership conjunct)")
        lines.append(f"checks: {self.checks_inserted} inserted / "
                     f"{self.accesses_total} accesses")
        for text, checked, reason in self.decisions:
            marker = "CHECKED  " if checked else "unchecked"
            lines.append(f"  [{marker}] {text}  -- {reason}")
        return "\n".join(lines)

    # ------------------------------------------------------------------

    def loop_source(self, where: bool = True) -> List[str]:
        """Body lines of the row loop: consume the local ``state`` -- a
        sized sequence of ``(ref, memberships, values)`` -- fill
        ``stats`` (``rows_scanned``/``rows_skipped`` add to what a proven
        run counted) and return the result rows.  ``where=False`` is the
        same template minus the where block, for visit sets already
        proven to satisfy it."""
        emitter = self.emitter
        row: List[str] = []
        if where and self.where is not None:
            row += [f"if not {self.where}:", "    continue"]
        if self.aggregates is None:
            before = ["out = []", "append = out.append"]
            items = ", ".join(self.select)
            row = emitter.guarded(row + [
                f"append([ref.id, [{items}]])" if self.wire
                else f"append(({items},))"])
            returned, result = "len(out)", "out"
        else:
            before, results = [], []
            row = emitter.guarded(row) if row else row
            for i, (function, operand) in enumerate(self.aggregates):
                init, fold, result = _FOLDS[function]
                before.append(init.format(i=i))
                results.append(result.format(i=i))
                if operand is None:
                    row.append(f"n{i} += 1")    # bare `count`: the row
                    continue
                # The fold is outside the guard: its TypeError is the
                # aggregate's own (``total`` over a string).
                row += emitter.guarded([f"a{i} = {operand}"])
                row += [f"if a{i} is not INAP:", f"    n{i} += 1"]
                row += indent([line.format(i=i) for line in fold])
            returned, result = "1", f"[({', '.join(results)},)]"
        # ``_skip()`` is all that raises _Skip, and only _fail emits it.
        if any("_skip()" in line for line in row):
            row = (["try:"] + indent(row)
                   + ["except _Skip:", "    skipped += 1"])
        return before + [
            "checks = skipped = 0",
            "for ref, memberships, values in state:",
            *indent(row),
            "stats.rows_scanned += len(state)",
            f"stats.rows_returned = {returned}",
            "stats.rows_skipped += skipped",
            "stats.checks_executed = checks",
            f"return {result}",
        ]

    @cached_property
    def scan(self) -> Callable:
        """``scan(store, stats) -> rows``: the guarded full scan of the
        source extent, for stores with no index manager to plan
        against."""
        return self.emitter.function(
            "_scan", "store, stats",
            ["state = store.scan_rows(_source)"] + self.loop_source(), {})


#: function -> (initialisation, fold lines over ``a{i}``, result
#: expression); values of INAPPLICABLE are not folded, min/max/avg of
#: nothing is INAPPLICABLE.
_FOLDS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "count": ("n{i} = 0", (), "n{i}"),
    "total": ("n{i} = t{i} = 0", ("t{i} += a{i}",), "t{i}"),
    "avg": ("n{i} = t{i} = 0", ("t{i} += a{i}",),
            "(t{i} / n{i} if n{i} else INAP)"),
    "min": ("n{i} = 0; b{i} = None",
            ("if b{i} is None or a{i} < b{i}:", "    b{i} = a{i}"),
            "(b{i} if n{i} else INAP)"),
    "max": ("n{i} = 0; b{i} = None",
            ("if b{i} is None or a{i} > b{i}:", "    b{i} = a{i}"),
            "(b{i} if n{i} else INAP)"),
}


def _narrowed_source(query: Query, schema: Schema) -> str:
    """Source-extent narrowing: membership conjuncts in the ``where``
    clause that name a *subclass* of the source let the plan iterate the
    subclass's extent directly -- extent inclusion (Section 3c)
    guarantees it contains exactly the qualifying objects.  The residual
    membership test still runs (it is cheap and keeps the plan obviously
    equivalent)."""
    source = query.source_class
    for c in split_conjuncts(query.where):
        if (isinstance(c, InClass) and isinstance(c.expr, Var)
                and c.expr.name == query.var
                and schema.has_class(c.class_name)
                and schema.is_subclass(c.class_name, source)):
            source = c.class_name
    return source


def _all_checked(decisions: List[AccessDecision]) -> List[AccessDecision]:
    return [d._replace(checked=True, reason="check elimination disabled")
            for d in decisions]


def compile_query(query: Union[str, Query], schema: Schema,
                  eliminate_checks: bool = True,
                  assume_unshared: bool = True,
                  on_unsafe: str = "skip",
                  raise_on_error: bool = True, *,
                  wire: bool = False) -> CompiledQuery:
    """Compile a query into an executable plan.

    ``eliminate_checks=True`` (default) inserts run-time safety checks
    only at accesses the analysis could not prove safe; ``False`` guards
    every access (the paper's no-type-inference baseline).  ``on_unsafe``
    picks the failure policy of guarded accesses: ``"skip"`` the row,
    return ``"null"`` (INAPPLICABLE), or ``"raise"``.  ``wire=True``
    emits per-row results as the ``query`` op replies with them
    (:meth:`_Emitter.emit_encoded`).
    """
    if isinstance(query, str):
        query = parse_query(query)
    report = analyze(query, schema, assume_unshared=assume_unshared,
                     raise_on_error=raise_on_error)
    decisions = (report.decisions if eliminate_checks
                 else _all_checked(report.decisions))
    emitter = _Emitter(schema, query.var, True, decisions, on_unsafe)
    scan_class = _narrowed_source(query, schema)

    where = None
    if query.where is not None:
        where = emitter.emit(query.where).src

    aggregates = None
    select: Tuple[str, ...] = ()
    if any(isinstance(e, Aggregate) for e in query.select):
        if not all(isinstance(e, Aggregate) for e in query.select):
            raise QueryTypeError(
                "aggregate and per-row select items cannot be mixed")
        aggregates = tuple(
            (e.function, emitter.emit(e.operand).src
             if e.operand is not None else None)
            for e in query.select)
    else:
        select = tuple(emitter.emit_encoded(e) if wire
                       else emitter.emit(e).src for e in query.select)
    assert next(emitter.decisions, None) is None, "an access went unread"
    emitter.namespace["_source"] = scan_class
    if emitter.ordering:    # the one message the loop itself formats
        emitter.namespace["_text"] = str(query)
    return CompiledQuery(
        query=query,
        report=report,
        source_class=scan_class,
        checks_inserted=sum(d.checked for d in decisions),
        accesses_total=len(decisions),
        decisions=[(str(d.expr), d.checked, d.reason) for d in decisions],
        emitter=emitter,
        where=where,
        select=select,
        aggregates=aggregates,
        wire=wire,
    )


def compile_predicate(schema: Schema, class_name: str,
                      text: str) -> Callable:
    """``predicate(store, obj) -> True | False | None`` for a boolean
    expression over ``self``, type-checked against ``class_name``
    (:class:`QueryTypeError` when ill-typed).

    Predicates run over possibly part-populated objects, so every access
    is guarded: ``None`` means indeterminate -- a value the expression
    touched was missing.
    """
    expr = parse_expr(text)
    typer = QueryTyper(schema)
    typer.infer(expr, {"self": class_name},
                FlowFacts().assume("self", class_name, True))
    errors = [f for f in typer.findings if f.severity == "error"]
    if errors:
        raise QueryTypeError("; ".join(str(e) for e in errors))
    emitter = _Emitter(schema, "self", False,
                       _all_checked(typer.decisions), on_unsafe="skip")
    src = emitter.emit(expr).src
    return emitter.function("_predicate", "store, obj", [
        "checks = 0",
        "try:",
        *indent(emitter.guarded([f"return bool({src})"])),
        "except _Skip:",
        "    return None"], {"_text": text})
