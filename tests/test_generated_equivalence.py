"""Generated plan functions == the closure-tree reference.

One property: for every query tree the grammar can express over the
hospital vocabulary (the strategy behind ``parse_query(str(q)) == q``,
plus sargable conjuncts so the planner has something to push down), on a
random population with unset values, excuse-branch members and
virtual-class members, the generated function and
``tests/reference_query.py`` agree on rows, order, all six
``ExecutionStats`` fields and the *type* of any error raised -- for every
``on_unsafe`` policy, with and without check elimination, over the live
store, a snapshot, and a snapshot taken after a write.

Three seeded mutants of the generated side must each be killed within a
bounded, derandomized run; one that survives is a generator bug.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.errors import QueryError
from repro.objects import CheckMode
from repro.query import (
    compile_query,
    compiler,
    execute,
    execute_plan,
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
)
from repro.query.compiler import _Emitter
from repro.scenarios import build_hospital_schema, populate_hospital
from repro.typesys import EnumSymbol
from tests.reference_query import (
    expr_trees,
    reference_execute,
    reference_execute_plan,
)

SCHEMA = build_hospital_schema()

CLASSES = ("Patient", "Person", "Alcoholic", "Tubercular_Patient",
           "Ambulatory_Patient", "Physician", "Psychologist", "Hospital$1")
ATTRIBUTES = ("age", "name", "ward", "floor", "treatedBy", "treatedAt",
              "location", "state", "accreditation", "bloodPressure",
              "therapyStyle", "affiliatedWith")
INDEXABLE = ("age", "ward", "bloodPressure", "name")
UNSETTABLE = ("age", "ward", "bloodPressure", "treatedAt", "name")

_consts = st.one_of(
    st.sampled_from((3, 30, 40, 78)), st.booleans(),
    st.sampled_from(("Patient1", "Patient3", "W1")),
    st.sampled_from(("Normal_BP", "NJ", "CBT")).map(EnumSymbol))
_exprs = expr_trees(("p",), ATTRIBUTES, CLASSES, _consts, max_leaves=6)
_p = Var("p")
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
)
_where = st.lists(st.one_of(_sargable, _sargable, _exprs), max_size=3).map(
    lambda cs: None if not cs else
    cs[0] if len(cs) == 1 else And(cs[0], cs[1]) if len(cs) == 2
    else And(And(cs[0], cs[1]), cs[2]))
_aggregates = st.one_of(
    st.just(Aggregate("count")),
    st.builds(Aggregate,
              st.sampled_from(("count", "min", "max", "avg", "total")),
              st.one_of(st.just(Path(_p, "age")), _exprs)))
_select = st.one_of(
    st.lists(st.one_of(st.just(_p), _exprs), min_size=1, max_size=2),
    st.lists(_aggregates, min_size=1, max_size=3),
).map(tuple)
_queries = st.builds(
    Query, st.just("p"), st.sampled_from(("Patient", "Patient", "Person",
                                          "Alcoholic", "Hospital")),
    _where, _select)
_options = st.fixed_dictionaries({
    "on_unsafe": st.sampled_from(("skip", "null", "raise")),
    "eliminate_checks": st.booleans(),
})
_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 10 ** 6),
    "n": st.integers(6, 16),
    "indexed": st.sets(st.sampled_from(INDEXABLE), max_size=3),
    "unsets": st.lists(st.tuples(st.integers(0, 15),
                                 st.sampled_from(UNSETTABLE)), max_size=6),
    "queries": st.lists(st.tuples(_queries, _options), min_size=1,
                        max_size=3),
})


def _world(case):
    pop = populate_hospital(
        schema=SCHEMA, n_patients=case["n"], seed=case["seed"],
        alcoholic_fraction=0.25, tubercular_fraction=0.2,
        ambulatory_fraction=0.2)
    store = pop.store
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
    # A committed write, then a snapshot that has to rebuild its rows.
    store.set_value(pop.patients[0], "age", 41, check=CheckMode.NONE)
    sources.append(store.snapshot())
    for c, on_unsafe in compiled:
        plan = planner.build_plan(c, SCHEMA, store.indexes)
        for source in sources:
            where = f"{c.query} [{type(source).__name__}]"
            assert _outcome(lambda: execute(c, source)) == _outcome(
                lambda: reference_execute(c, source, on_unsafe)), where
            assert _outcome(lambda: execute_plan(plan, source)) == _outcome(
                lambda: reference_execute_plan(plan, source, on_unsafe)
            ), where


@settings(max_examples=120, deadline=None)
@given(case=_cases)
def test_generated_equals_reference(case):
    check_case(case)


# ----------------------------------------------------------------------
# Seeded mutants
# ----------------------------------------------------------------------

def _killed(check) -> bool:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None, phases=(Phase.generate,))
    @given(case=_cases)
    def run(case):
        check(case)

    try:
        run()
    except AssertionError:
        return True
    return False


def test_mutant_guard_omitted_on_a_checked_path_is_killed():
    """The emitted code ignores a CHECKED verdict the plan reports."""
    def compile(query, schema, **options):
        honest = compile_query(query, schema, **options)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Emitter, "_check_decision",
                          lambda self, *args: (False, "mutant"))
            mutant = compile_query(query, schema, **options)
        mutant.decisions = honest.decisions
        return mutant

    assert _killed(lambda case: check_case(case, compile))


def test_mutant_skip_rows_pruned_instead_of_visited_is_killed(monkeypatch):
    real = compiler.instantiate

    def instantiate(name, source, namespace, qstats=None):
        assert "visit = cand | skips" in source or "skips" not in source
        return real(name, source.replace("visit = cand | skips",
                                         "visit = cand"), namespace, qstats)

    monkeypatch.setattr(compiler, "instantiate", instantiate)
    assert _killed(check_case)


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
