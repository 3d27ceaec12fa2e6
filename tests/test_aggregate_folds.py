"""An aggregate folds in one place: the compiled plan, the reference
evaluator and a two-shard router answer every aggregate select alike.

Each aggregate keeps a fold state ``[n, acc]`` per item
(``repro.query.compiler``); a shard ships its states and the router
merges and finishes them.  The property draws aggregate selects from the
shared query trees over a population whose patients span both shards
(the alcoholics on one, every other patient on the other) and holds the
three to the same rows, skip and return counts, or error type, under
every ``on_unsafe`` policy.  The select reversed answers the row
reversed: a row one item skips is folded by none of them.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import codec
from repro.objects.store import ObjectStore
from repro.query.ast import Aggregate, Query
from repro.query.parser import parse_query
from repro.query.compiler import ON_UNSAFE
from repro.query.planner import execute_planned, plan_query
from repro.scenarios import build_hospital_schema
from repro.sharding.router import ShardedStore
from repro.typesys import EnumSymbol

from tests.reference_query import query_trees, reference_execute_plan

SCHEMA = build_hospital_schema()
CLASSES = ("Patient", "Person", "Alcoholic", "Hemorrhaging_Patient",
           "Physician")
ATTRIBUTES = ("age", "name", "treatedBy", "bloodPressure", "specialty")
_consts = st.one_of(
    st.sampled_from((30, 41, 78, 2.5)), st.sampled_from(("p1", "doc")),
    st.sampled_from(("Low_BP", "General")).map(EnumSymbol))

#: Query trees whose per-row select items are folded by a drawn
#: function; half of them drop their where clause (most are ill-typed).
_aggregate_queries = st.builds(
    lambda query, functions, where: Query(
        query.var, query.source_class, query.where if where else None,
        tuple(item if isinstance(item, Aggregate)
              else Aggregate(function, item)
              for item, function in zip(query.select, functions))),
    query_trees(("p",), CLASSES, ATTRIBUTES, _consts),
    st.lists(st.sampled_from(("count", "total", "avg", "min", "max")),
             min_size=3, max_size=3),
    st.booleans())


def _populate(store) -> None:
    """Two reference entities and twelve patients: plain, hemorrhaging,
    alcoholic (the excuse branch) and without an age."""
    kw = {"broadcast": True} if isinstance(store, ShardedStore) else {}
    store.create_index("age")
    doc = store.create("Physician", name="doc", age=50,
                       specialty=EnumSymbol("General"), **kw)
    psy = store.create("Psychologist", name="psy", age=60,
                       therapyStyle=EnumSymbol("CBT"), **kw)
    rows = []
    for i in range(12):
        values = {"name": f"p{i}", "age": (30, 41, 78)[i % 3],
                  "treatedBy": doc}
        if i % 4 == 1:
            rows.append((("Patient", "Hemorrhaging_Patient"), dict(
                values, bloodPressure=EnumSymbol("Low_BP"))))
        elif i % 4 == 2:
            rows.append((("Alcoholic",), dict(values, treatedBy=psy)))
        else:
            if i % 4 == 3:
                del values["age"]
            rows.append((("Patient",), values))
    store.bulk_load(rows, check="eager")


@pytest.fixture(scope="module")
def stores():
    single = ObjectStore(SCHEMA)
    router = ShardedStore(SCHEMA, 2, processes=False)
    for store in (single, router):
        _populate(store)
    spread = router.execute({"op": "query", "options": {},
                             "text": "for p in Patient select p"})["sids"]
    assert {router._owner_of(sid) for sid in spread} == {0, 1}
    yield single, router
    router.close()


def _answer(run):
    """Rows with the skip and return counts, or the wire's error type."""
    try:
        rows, stats = run()
    except Exception as exc:
        return codec.encode_error(exc)["type"]
    return rows, stats.rows_skipped, stats.rows_returned


def _reversed(answer):
    if isinstance(answer, str):
        return answer
    rows, skipped, returned = answer
    return [row[::-1] for row in rows], skipped, returned


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(query=_aggregate_queries, on_unsafe=st.sampled_from(ON_UNSAFE))
@example(query=parse_query("for p in Patient select count p.name, "
                           "total p.name, count"), on_unsafe="skip")
@example(query=parse_query("for p in Patient select min when p in "
                           "Alcoholic then p.name else p.age end"),
         on_unsafe="null")
def test_plan_reference_and_router_fold_alike(stores, query, on_unsafe):
    single, router = stores
    text = str(query)
    compiled = _answer(lambda: execute_planned(text, single,
                                               on_unsafe=on_unsafe))
    backwards = str(Query(query.var, query.source_class, query.where,
                          query.select[::-1]))
    assert _reversed(_answer(lambda: execute_planned(
        backwards, single, on_unsafe=on_unsafe))) == compiled, \
        (text, on_unsafe)
    assert _answer(lambda: reference_execute_plan(
        plan_query(text, single, on_unsafe=on_unsafe), single,
        on_unsafe)) == compiled, (text, on_unsafe)
    assert _answer(lambda: router.query(text, on_unsafe=on_unsafe)) \
        == compiled, (text, on_unsafe)
