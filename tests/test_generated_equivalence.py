"""Generated plan functions == the closure-tree reference.

One property: for every query tree the grammar can express over the
hospital vocabulary (the strategy behind ``parse_query(str(q)) == q``,
plus sargable conjuncts so the planner has something to push down), on a
random population with unset values, excuse-branch members and
virtual-class members, the generated function and
``tests/reference_query.py`` agree on rows, order, all six
``ExecutionStats`` fields and the *type* of any error raised -- for every
``on_unsafe`` policy, with and without check elimination, over the live
store, a snapshot, and a snapshot taken after a write, run twice: the
second run on one snapshot takes the plan's memo (set algebra skipped),
so a hit must be indistinguishable from a cold run.

Range conjuncts (``<``, ``<=``, ``>``, ``>=``, the constant on either
side) meet populations whose ages come from a small pool, so the bucket
walk pays, and whose ``Estimated_Age_Patient`` members hold the excuse
branch's string age, so some buckets do not order against the constant.
Wheres that push down whole meet the same populations: those runs may
prove their rows and count their skip rows instead of visiting them.
Every plan also agrees with the guarded scan on rows and skips.

Eight seeded mutants of the generated side must each be killed within a
bounded, derandomized run; one that survives is a generator bug.
"""

from __future__ import annotations

import functools
import re

import pytest
from hypothesis import Phase, Verbosity, given, settings, strategies as st

from repro.columnar import CHUNK_BITS, SurrogateSet
from repro.errors import QueryError
from repro.lang.loader import load_schema
from repro.objects import CheckMode
from repro.query import (
    analyze,
    compile_query,
    compiler,
    execute,
    execute_plan,
    indexes,
    planner,
)
from repro.query.ast import (
    Aggregate,
    And,
    Compare,
    Const,
    InClass,
    NotInClass,
    Path,
    Query,
    Var,
    When,
)
from repro.query.compiler import QueryRuntimeError, _Emitter
from repro.query.typing import QueryTyper
from repro.scenarios import populate_hospital
from repro.scenarios.hospital import HOSPITAL_CDL
from repro.typesys import EnumSymbol
from tests.reference_query import (
    expr_trees,
    reference_execute,
    reference_execute_plan,
)

#: The hospital plus the paper's conditional type on an indexed
#: attribute: ``[age : 1..120 + String/Estimated_Age_Patient]``.
SCHEMA = load_schema(HOSPITAL_CDL + """
class Estimated_Age_Patient is-a Patient with
  age: String excuses age on Person;
end
""")

CLASSES = ("Patient", "Person", "Alcoholic", "Tubercular_Patient",
           "Ambulatory_Patient", "Physician", "Psychologist", "Hospital$1",
           "Estimated_Age_Patient")
ATTRIBUTES = ("age", "name", "ward", "floor", "treatedBy", "treatedAt",
              "location", "state", "accreditation", "bloodPressure",
              "therapyStyle", "affiliatedWith")
INDEXABLE = ("age", "ward", "bloodPressure", "name")
UNSETTABLE = ("age", "ward", "bloodPressure", "treatedAt", "name")
_ORDERING = ("<", "<=", ">", ">=")

_consts = st.one_of(
    st.sampled_from((3, 30, 40, 78)), st.booleans(),
    st.sampled_from(("Patient1", "Patient3", "W1")),
    st.sampled_from(("Normal_BP", "NJ", "CBT")).map(EnumSymbol))
_exprs = expr_trees(("p",), ATTRIBUTES, CLASSES, _consts, max_leaves=6)
_p = Var("p")
_range_consts = st.sampled_from((30, 35, 40, 78, -1, 39.5, "Patient3"))
_ranges = st.one_of(
    st.builds(lambda op, a, k: Compare(op, Path(_p, a), Const(k)),
              st.sampled_from(_ORDERING),
              st.sampled_from(("age", "age", "name", "ward")),
              _range_consts),
    st.builds(lambda op, k: Compare(op, Const(k), Path(_p, "age")),
              st.sampled_from(_ORDERING), _range_consts),
)
#: Conjuncts the planner can push down (or must block).
_sargable = st.one_of(
    st.builds(lambda a: Compare("=", Path(_p, "age"), Const(a)),
              st.sampled_from((30, 40, 200))),
    st.just(Compare("=", Const(40), Path(_p, "age"))),
    st.just(Compare("=", Path(_p, "bloodPressure"),
                    Const(EnumSymbol("Normal_BP")))),
    st.just(Compare("=", Path(_p, "ward"), Const(3))),
    st.builds(InClass, st.just(_p), st.sampled_from(CLASSES)),
    st.builds(NotInClass, st.just(_p), st.sampled_from(CLASSES)),
    _ranges,
)
def _conjoin(conjuncts):
    return functools.reduce(And, conjuncts) if conjuncts else None


_where = st.lists(st.one_of(_sargable, _sargable, _exprs),
                  max_size=3).map(_conjoin)
#: A range conjunct first: nothing before it can block its pushdown.
_range_where = st.tuples(
    _ranges, st.lists(st.one_of(_sargable, _exprs), max_size=2)).map(
    lambda t: _conjoin([t[0], *t[1]]))
_aggregates = st.one_of(
    st.just(Aggregate("count")),
    st.builds(Aggregate,
              st.sampled_from(("count", "min", "max", "avg", "total")),
              st.one_of(st.just(Path(_p, "age")), _exprs)))
_select = st.one_of(
    st.lists(st.one_of(st.just(_p), _exprs), min_size=1, max_size=2),
    st.lists(_aggregates, min_size=1, max_size=3),
).map(tuple)
_options = st.fixed_dictionaries({
    "on_unsafe": st.sampled_from(("skip", "null", "raise")),
    "eliminate_checks": st.booleans(),
})
#: Every Person's age from a small pool, so few keys serve many rows.
_age_pools = st.lists(st.sampled_from((30, 40, 78)), min_size=1,
                      max_size=2)


def _queries_over(where):
    return st.builds(
        Query, st.just("p"), st.sampled_from(
            ("Patient", "Patient", "Person", "Alcoholic", "Hospital")),
        where, _select)


def _cases_over(where, n, ages, indexed, unsettable=UNSETTABLE,
                queries=None):
    if queries is None:
        queries = _queries_over(where)
    return st.fixed_dictionaries({
        "seed": st.integers(0, 10 ** 6),
        "n": st.integers(*n),
        "ages": ages,
        "estimated": st.lists(st.integers(0, n[1] - 1), max_size=2),
        "indexed": indexed,
        "unsets": st.lists(st.tuples(st.integers(0, n[1] - 1),
                                     st.sampled_from(unsettable)),
                           max_size=6),
        "queries": st.lists(st.tuples(queries, _options), min_size=1,
                            max_size=3),
    })


_cases = _cases_over(_where, (6, 16), st.none() | _age_pools,
                     st.sets(st.sampled_from(INDEXABLE), max_size=3))
#: Populations the range walk pays on (an indexed ``age``, at most four
#: keys over 16+ rows, some ages unset), queries that lead with a range
#: conjunct.
_range_cases = _cases_over(
    _range_where, (16, 28), _age_pools,
    st.sets(st.sampled_from(INDEXABLE), max_size=2).map(
        lambda s: s | {"age"}), ("age",) + UNSETTABLE)
#: The same populations under wheres that push down whole: the runs
#: that may prove their rows.
_proven_cases = _cases_over(
    st.lists(_sargable, min_size=1, max_size=3).map(_conjoin), (16, 28),
    _age_pools, st.sets(st.sampled_from(INDEXABLE), max_size=2).map(
        lambda s: s | {"age"}), ("age",) + UNSETTABLE)
#: Accesses that only a membership guard proves safe, with the guard.
_GUARDED = (
    (InClass(_p, "Alcoholic"), Path(Path(_p, "treatedBy"), "therapyStyle")),
    (NotInClass(_p, "Tubercular_Patient"),
     Path(Path(Path(_p, "treatedAt"), "location"), "state")),
    (NotInClass(_p, "Ambulatory_Patient"), Path(Path(_p, "ward"), "floor")),
)
#: Each guard as the where clause or as a ``when`` around its access.
_guarded_cases = _cases_over(
    None, (6, 16), st.none(), st.sets(st.sampled_from(INDEXABLE),
                                      max_size=2),
    queries=st.builds(
        lambda pair, when: Query(
            "p", "Patient", None, (When(*pair, Const(0)),)) if when
        else Query("p", "Patient", pair[0], (pair[1],)),
        st.sampled_from(_GUARDED), st.booleans()))


def _world(case):
    pop = populate_hospital(
        schema=SCHEMA, n_patients=case["n"], seed=case["seed"],
        alcoholic_fraction=0.25, tubercular_fraction=0.2,
        ambulatory_fraction=0.2)
    store = pop.store
    pool = case["ages"]
    for i, person in enumerate(list(store.extent("Person")) if pool
                               else ()):
        store.set_value(person, "age", pool[i % len(pool)],
                        check=CheckMode.NONE)
    for index in case["estimated"]:
        patient = pop.patients[index % len(pop.patients)]
        store.classify(patient, "Estimated_Age_Patient",
                       check=CheckMode.NONE)
        store.set_value(patient, "age", "about 40", check=CheckMode.NONE)
    for index, attribute in case["unsets"]:
        store.unset_value(pop.patients[index % len(pop.patients)],
                          attribute, check=CheckMode.NONE)
    for attribute in sorted(case["indexed"]):
        store.create_index(attribute)
    return pop, store


def _outcome(run):
    """``(rows, stats)`` or the type of what ``run`` raised."""
    try:
        return run()
    except Exception as exc:     # the property compares the type
        return type(exc)


def _observed(outcome):
    """What the scan and any plan must agree on: rows and skips, or the
    error type."""
    return outcome if isinstance(outcome, type) else (
        outcome[0], outcome[1].rows_skipped)


def check_case(case, compile=compile_query) -> None:
    pop, store = _world(case)
    before = store.snapshot()
    compiled = []
    for query, options in case["queries"]:
        try:
            compiled.append((compile(query, SCHEMA, raise_on_error=False,
                                     **options), options["on_unsafe"]))
        except QueryError:
            continue    # e.g. aggregates mixed with per-row items
    sources = [store, before]
    # A committed write, then a snapshot that has to rebuild its rows;
    # its second run takes the plan's memo, which must not show.
    store.set_value(pop.patients[0], "age", 41, check=CheckMode.NONE)
    sources += [store.snapshot()] * 2
    for c, on_unsafe in compiled:
        plan = planner.build_plan(c, SCHEMA, store.indexes)
        for source in sources:
            where = f"{c.query} [{type(source).__name__}]"
            scan = _outcome(lambda: execute(c, source))
            assert scan == _outcome(
                lambda: reference_execute(c, source, on_unsafe)), where
            got = _outcome(lambda: execute_plan(plan, source))
            assert got == _outcome(
                lambda: reference_execute_plan(plan, source, on_unsafe)
            ), where
            assert _observed(got) == _observed(scan), where


@settings(max_examples=120, deadline=None)
@given(case=_cases)
def test_generated_equals_reference(case):
    check_case(case)


@settings(max_examples=80, deadline=None)
@given(case=_range_cases)
def test_generated_equals_reference_over_ranges(case):
    check_case(case)


@settings(max_examples=30, deadline=None)
@given(case=_guarded_cases)
def test_generated_equals_reference_under_guards(case):
    check_case(case)


@settings(max_examples=60, deadline=None)
@given(case=_proven_cases)
def test_generated_equals_reference_over_proven_runs(case):
    check_case(case)


@settings(max_examples=150, deadline=None)
@given(query=_queries_over(_where))
def test_report_and_guards_agree(query):
    """Every access ``analyze()`` reports an unsafe finding for is
    CHECKED in the plan, and every CHECKED reason is a finding's reason
    on that access or the INAPPLICABLE-fetch reason."""
    try:
        compiled = compile_query(query, SCHEMA, raise_on_error=False)
        guard_all = compile_query(query, SCHEMA, raise_on_error=False,
                                  eliminate_checks=False)
    except QueryError:
        return      # e.g. aggregates mixed with per-row items
    report = analyze(query, SCHEMA)
    assert compiled.report.findings == report.findings
    checked = {text for text, check, _ in compiled.decisions if check}
    accessed = {text for text, _, _ in compiled.decisions}
    for finding in report.unsafe:
        if finding.expr in accessed:
            assert finding.expr in checked, finding
    reasons = {(f.expr, f.reason) for f in report.findings}
    for text, check, reason in compiled.decisions:
        assert not check or (text, reason) in reasons or reason.startswith(
            "value may be INAPPLICABLE "), (text, reason)
    assert guard_all.decisions == [
        (text, True, "check elimination disabled")
        for text, _, _ in compiled.decisions]


@pytest.mark.slow
def test_ranges_over_three_bitset_chunks():
    """Range walks whose bucket unions span three bitset chunks (8,192+
    sids): generated == reference, and both == the guarded scan, on a
    snapshot, the live store, and a snapshot after a write gives the
    last patient a string age (a key no constant orders against)."""
    pop = populate_hospital(schema=SCHEMA, n_patients=8_400, seed=3)
    store = pop.store
    assert pop.patients[-1].surrogate.id >= 2 * CHUNK_BITS
    for patient in pop.patients[::701]:
        store.unset_value(patient, "age", check=CheckMode.NONE)
    store.create_index("age")
    sources = [store.snapshot(), store]
    last = pop.patients[-1]
    store.classify(last, "Estimated_Age_Patient", check=CheckMode.NONE)
    store.set_value(last, "age", "about 40", check=CheckMode.NONE)
    sources.append(store.snapshot())
    # The last: nobody is 100, so pruning by it must not drop the row
    # whose string age raises first.
    for text in ("p.age > 78", "78 < p.age",
                 "p.age <= 3 and p not in Alcoholic",
                 "30 >= p.age and p.age > 25", "p.age > 78 and p.age = 100"):
        query = f"for p in Patient where {text} select p.name"
        for on_unsafe in compiler.ON_UNSAFE:
            for eliminate in (True, False):
                c = compile_query(query, SCHEMA, on_unsafe=on_unsafe,
                                  eliminate_checks=eliminate)
                plan = planner.build_plan(c, SCHEMA, store.indexes)
                for source in sources:
                    where = f"{query} {on_unsafe} [{type(source).__name__}]"
                    got = _outcome(lambda: execute_plan(plan, source))
                    assert got == _outcome(lambda: reference_execute_plan(
                        plan, source, on_unsafe)), where
                    assert _observed(got) == _observed(
                        _outcome(lambda: execute(c, source))), where
                    if source is sources[0] and on_unsafe != "raise":
                        assert got[1].rows_pruned > 0, where


class _Counting:
    """A row source that records how many rows each ``visit_rows`` call
    hands the row loop."""

    def __init__(self, store):
        self.store, self.handed = store, []

    def __getattr__(self, name):
        return getattr(self.store, name)

    def visit_rows(self, surrogates):
        rows = self.store.visit_rows(surrogates)
        self.handed.append(len(rows))
        return rows


def _handed(source, text, on_unsafe):
    """``(outcome, rows handed to the loop, plan)`` of one planned run,
    the outcome checked against the reference and the scan."""
    query = f"for p in Patient where {text} select p.name"
    c = compile_query(query, SCHEMA, on_unsafe=on_unsafe)
    plan = planner.build_plan(c, SCHEMA, source.indexes)
    counting = _Counting(source)
    got = _outcome(lambda: execute_plan(plan, counting))
    assert got == _outcome(
        lambda: reference_execute_plan(plan, source, on_unsafe)), query
    assert _observed(got) == _observed(_outcome(lambda: execute(c, source)))
    assert len(counting.handed) == 1, query     # pruned, not scanned
    return got, counting.handed[0], plan


def test_a_proven_run_hands_the_loop_only_its_answer_rows():
    """Under "skip", an exact eq or range run loops over its answer rows
    and counts the INAPPLICABLE ones; under "null"/"raise", or once an
    unorderable key exists, the loop gets the whole visit set."""
    pop = populate_hospital(schema=SCHEMA, n_patients=300, seed=5)
    store = pop.store
    for i, person in enumerate(list(store.extent("Person"))):
        store.set_value(person, "age", (30, 40, 78)[i % 3],
                        check=CheckMode.NONE)
    unset = pop.patients[::29]
    for patient in unset:
        store.unset_value(patient, "age", check=CheckMode.NONE)
    store.create_index("age")
    for source in (store, store.snapshot()):
        for text in ("p.age = 40", "p.age > 35", "35 < p.age"):
            (rows, stats), handed, plan = _handed(source, text, "skip")
            assert handed == stats.rows_returned == len(rows) > 0
            assert stats.rows_skipped == len(unset)
            assert stats.rows_scanned == handed + len(unset)
            assert "loop: proves its rows; skip rows counted" in (
                plan.explain(source))
            (_rows, stats), visited, _plan = _handed(source, text, "null")
            assert visited == handed + len(unset) == stats.rows_scanned
            error, handed, plan = _handed(source, text, "raise")
            assert (error, handed) == (QueryRuntimeError, visited)
            assert "on_unsafe='raise' must see them" in plan.explain(source)
    # A string age: its bucket does not order against 35, so the range
    # run is inexact and the loop raises on it as the scan does.
    estimated = next(p for p in pop.patients if p.get_value("age") == 30)
    store.classify(estimated, "Estimated_Age_Patient", check=CheckMode.NONE)
    store.set_value(estimated, "age", "about 40", check=CheckMode.NONE)
    (_rows, stats), handed, _plan = _handed(store, "p.age = 40", "skip")
    assert handed == stats.rows_returned
    error, handed, plan = _handed(store, "p.age > 35", "skip")
    assert (error, handed) == (QueryRuntimeError, visited + 1)
    assert "visits skip rows: 1 residue or unorderable rows" in (
        plan.explain(store))


@pytest.mark.slow
def test_proven_runs_over_three_bitset_chunks():
    """Proven eq, range and membership runs whose INAPPLICABLE rows lie
    in every bitset chunk: generated == reference == the scan, and under
    "skip" the loop is handed the answer rows only."""
    pop = populate_hospital(schema=SCHEMA, n_patients=8_400, seed=3)
    store = pop.store
    unset = pop.patients[::97]
    assert {p.surrogate.id // CHUNK_BITS for p in unset} == {0, 1, 2}
    for patient in unset:
        store.unset_value(patient, "age", check=CheckMode.NONE)
    store.create_index("age")
    for source in (store.snapshot(), store):
        for text in ("p.age > 78", "p.age = 40", "78 <= p.age",
                     "p.age <= 3 and p not in Alcoholic",
                     "30 >= p.age and p.age > 25"):
            for on_unsafe in compiler.ON_UNSAFE:
                got, handed, _plan = _handed(source, text, on_unsafe)
                if on_unsafe == "skip":
                    assert handed == got[1].rows_returned, text
                    assert got[1].rows_skipped >= len(unset) // 2, text
                elif on_unsafe == "null":
                    assert handed == got[1].rows_scanned, text


# ----------------------------------------------------------------------
# Seeded mutants
# ----------------------------------------------------------------------

def _killed(check, cases=_cases) -> bool:
    # Quiet: printing a falsifying case costs more than finding it.
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None, phases=(Phase.generate,),
              verbosity=Verbosity.quiet)
    @given(case=cases)
    def run(case):
        check(case)

    try:
        run()
    except AssertionError:
        return True
    return False


def _honest_report(owner, name, hook):
    """``compile`` whose generated code runs with ``owner.name`` replaced
    by ``hook`` while the plan reports the honest decisions (what the
    reference guards by)."""
    def compile(query, schema, **options):
        honest = compile_query(query, schema, **options)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, hook)
            mutant = compile_query(query, schema, **options)
        mutant.decisions = honest.decisions
        return mutant

    return compile


def _ignores_the_typers_decision(emitter, expr):
    """The emitter ignores the typer's decision: it reads it (so the
    order still lines up) and emits a bare fetch."""
    next(emitter.decisions)
    return False


def _before_the_condition(typer, condition, facts, truth):
    """The typer records a decision under the facts before the
    condition: a guard teaches it nothing."""
    return facts


def test_mutant_guard_omitted_on_a_checked_path_is_killed():
    compile = _honest_report(_Emitter, "_checked",
                             _ignores_the_typers_decision)
    assert _killed(lambda case: check_case(case, compile))


def test_mutant_decision_under_the_facts_before_the_condition_is_killed():
    compile = _honest_report(QueryTyper, "_apply_condition",
                             _before_the_condition)
    assert _killed(lambda case: check_case(case, compile), _guarded_cases)


def _mutate_source(monkeypatch, *edits):
    """Every generated function with each ``(pattern, replacement)``
    regex edit applied; the returned list collects how many applied."""
    real = compiler.instantiate
    applied = []

    def instantiate(name, source, namespace, qstats=None):
        for pattern, replacement in edits:
            source, n = re.subn(pattern, replacement, source)
            applied.append(n)
        return real(name, source, namespace, qstats)

    monkeypatch.setattr(compiler, "instantiate", instantiate)
    return applied


def test_mutant_skip_rows_pruned_instead_of_visited_is_killed(monkeypatch):
    """Skip rows neither visited nor counted: dropped from the visit set
    of a guarded run, and from the count of a proven one."""
    applied = _mutate_source(
        monkeypatch, (r"visit = cand\.or_\(skips, bitset\)", "visit = cand"),
        (r"unvisited = len\(skips\)", "unvisited = 0"))
    assert _killed(check_case, _range_cases)
    assert sum(applied)


def _patch_range_walk(monkeypatch, walk):
    """Both index faces call the one walk: mutating it mutates both."""
    real = indexes.range_buckets
    monkeypatch.setattr(indexes, "range_buckets",
                        lambda *args: walk(real, *args))


def test_mutant_unorderable_bucket_pruned_is_killed(monkeypatch):
    _patch_range_walk(monkeypatch, lambda real, *args: (
        real(*args)[0], SurrogateSet()))
    assert _killed(check_case, _range_cases)


def test_mutant_constant_left_operator_not_mirrored_is_killed(monkeypatch):
    _patch_range_walk(monkeypatch, lambda real, buckets, value, op, _left,
                      *sink: real(buckets, value, op, False, *sink))
    assert _killed(check_case, _range_cases)


def test_mutant_range_skip_rows_not_visited_is_killed(monkeypatch):
    """A range step drops its INAPPLICABLE posting."""
    applied = _mutate_source(monkeypatch, (
        r"(manager\.range\([^\n]*\n\s*)"
        r"inap = cand\.and_\(manager\.inapplicable\(_a\d+\), bitset\)",
        r"\1inap = cand.and_(unordered, bitset)"))
    assert _killed(check_case, _range_cases)
    assert sum(applied)


def test_mutant_proof_ignores_residue_or_unordered_bucket_is_killed(
        monkeypatch):
    """A run stays exact when a residue row or an unorderable bucket
    met the candidates: they are counted as skipped, not visited."""
    applied = _mutate_source(monkeypatch, (r"exact = False", "pass"))
    assert _killed(check_case, _proven_cases)
    assert sum(applied)


def test_mutant_skip_rows_counted_under_null_or_raise_is_killed(
        monkeypatch):
    """The planner emits the "skip" proof for every policy."""
    real = planner._prelude
    monkeypatch.setattr(planner, "_prelude", lambda kinds, no_where, _policy:
                        real(kinds, no_where, "skip"))
    assert _killed(check_case, _proven_cases)


def test_mutant_membership_test_ignores_subclasses_is_killed():
    def compile(query, schema, **options):
        mutant = compile_query(query, schema, **options)
        namespace = mutant.emitter.namespace
        for name, value in namespace.items():
            if isinstance(value, frozenset):
                root = next(c for c in value if all(
                    c in schema.ancestors(m) for m in value))
                namespace[name] = frozenset({root})
        return mutant

    assert _killed(lambda case: check_case(case, compile))
