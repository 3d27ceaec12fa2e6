"""Indexed plans are indistinguishable from the guarded full scan.

The planner's whole claim is that pushing conjuncts into index probes is
invisible: identical rows, in the same order, with the *same*
``rows_skipped`` count -- the excuse semantics make skipped rows part of
a query's observable behaviour, so an index that silently pruned an
INAPPLICABLE row would be wrong even though it returns the same rows.

Randomized over: which attributes carry indexes, a mutation sequence
(checked writes, unsets, classify/declassify, removal, and aborted
transactions), and a batch of queries mixing sargable equalities and
ranges (on excused and unexcused attributes, the constant on either
side, entity keys that do not order), membership conjuncts, residual
comparisons, disjunctions, and aggregates.  The full scan over the same
compiled query is the oracle.  Two worlds are exercised: the hospital
schema (entity-valued excused attributes, rich query mix) and seeded
*random schemas with excuses* from the E5/E6 hierarchy generator
(conditional enum types from excused contradictions, random IS-A DAGs).
"""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from repro.errors import ConformanceError, ObjectError
from repro.objects import ObjectStore
from repro.objects.transactions import transaction
from repro.query import execute, execute_planned
from repro.query.compiler import QueryRuntimeError
from repro.scenarios import build_hospital_schema
from repro.scenarios.generators import (
    RandomHierarchyConfig,
    generate_random_hierarchy,
)
from repro.typesys import EnumSymbol

SCHEMA = build_hospital_schema()

N_PATIENTS = 4
#: Patients no op touches: with them the extent outgrows the age keys
#: enough (``RANGE_KEY_ROWS``) for a range walk to run.
N_FILLER = 10

INDEXABLE = ("age", "ward", "bloodPressure", "name")

EXTRA_CLASSES = (
    "Alcoholic", "Ambulatory_Patient", "Tubercular_Patient",
    "Hemorrhaging_Patient",
)

SET_CHOICES = (
    ("age", 30), ("age", 40), ("age", 200),          # 200 violates 1..120
    ("bloodPressure", "Normal_BP"),
    ("bloodPressure", "High_BP"),
    ("ward", "ward"),
)

UNSET_CHOICES = ("ward", "bloodPressure", "age")

#: Sargable, residual, and deliberately hostile conjuncts.
CONJUNCTS = (
    "p.age = 30", "p.age = 40", "30 = p.age",
    "p.ward = 3",                        # entity-valued: skips, no match
    "p.bloodPressure = 'Normal_BP",
    "p in Alcoholic", "p not in Alcoholic",
    "p in Ambulatory_Patient", "p not in Hemorrhaging_Patient",
    "p.age < 40", "35 < p.age", "p.age >= 40", "p.name <= \"p2\"",
    "p.ward > 3",                        # Ward keys: none orders, raises
    "p.treatedBy.age < 50",              # residual: blocks later pushes
    "p.age = 30 or p.age = 40",          # disjunction: never pushed
)

SELECTS = ("p.name", "p.age", "count", "p.name, p.age")


def _build_world():
    store = ObjectStore(SCHEMA)
    us_addr = store.create("Address", street="1 Main", city="Trenton",
                           state=EnumSymbol("NJ"))
    us = store.create("Hospital", location=us_addr,
                      accreditation=EnumSymbol("Federal"))
    ward = store.create("Ward", floor=3, name="W1")
    physician = store.create("Physician", name="Dr. F", age=40,
                             affiliatedWith=us,
                             specialty=EnumSymbol("General"))
    psychologist = store.create("Psychologist", name="Dr. P", age=30,
                                therapyStyle=EnumSymbol("CBT"))
    patients = [
        store.create("Patient", name=f"p{i}", age=40, treatedBy=physician)
        for i in range(N_PATIENTS + N_FILLER)
    ][:N_PATIENTS]
    entities = {"ward": ward, "physician": physician,
                "psychologist": psychologist}
    return store, patients, entities


def _value(entities, key):
    if isinstance(key, int):
        return key
    entity = entities.get(key)
    return entity if entity is not None else EnumSymbol(key)


def _apply(store, patients, entities, op):
    kind, idx = op[0], op[1]
    patient = patients[idx]
    try:
        if kind == "set":
            store.set_value(patient, op[2], _value(entities, op[3]))
        elif kind == "unset":
            store.unset_value(patient, op[2])
        elif kind == "classify":
            store.classify(patient, op[2])
        elif kind == "declassify":
            store.declassify(patient, op[2])
        elif kind == "remove":
            store.remove(patient)
            return "removed"
        elif kind == "txn":
            # A write that lands and is then rolled back: the indexes
            # and extent caches must come back exactly.
            try:
                with transaction(store):
                    store.set_value(patient, op[2],
                                    _value(entities, op[3]))
                    raise _Abort()
            except _Abort:
                pass
    except ConformanceError:
        pass
    return None


class _Abort(Exception):
    pass


_set_op = st.tuples(
    st.just("set"), st.integers(0, N_PATIENTS - 1),
    st.sampled_from(SET_CHOICES),
).map(lambda t: (t[0], t[1], t[2][0], t[2][1]))

_txn_op = st.tuples(
    st.just("txn"), st.integers(0, N_PATIENTS - 1),
    st.sampled_from(SET_CHOICES),
).map(lambda t: (t[0], t[1], t[2][0], t[2][1]))

_ops = st.lists(
    st.one_of(
        _set_op,
        _txn_op,
        st.tuples(st.just("unset"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(UNSET_CHOICES)),
        st.tuples(st.just("classify"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(EXTRA_CLASSES)),
        st.tuples(st.just("declassify"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(EXTRA_CLASSES)),
        st.tuples(st.just("remove"), st.integers(0, N_PATIENTS - 1)),
    ),
    min_size=0, max_size=12,
)

_queries = st.lists(
    st.tuples(
        st.lists(st.sampled_from(CONJUNCTS), min_size=0, max_size=3),
        st.sampled_from(SELECTS),
    ),
    min_size=1, max_size=4,
)


def _observed(run, query, store):
    """Rows and ``rows_skipped``, or the type of the error raised."""
    try:
        rows, stats = run(query, store)
    except QueryRuntimeError as exc:
        return type(exc)
    return rows, stats.rows_skipped


def _render(conjuncts, select):
    where = f" where {' and '.join(conjuncts)}" if conjuncts else ""
    return f"for p in Patient{where} select {select}"


@settings(max_examples=80, deadline=None)
@given(indexed=st.sets(st.sampled_from(INDEXABLE), max_size=4),
       ops=_ops, queries=_queries)
def test_indexed_plans_equal_full_scan(indexed, ops, queries):
    store, patients, entities = _build_world()
    for attribute in sorted(indexed):
        store.create_index(attribute)

    removed = set()
    for op in ops:
        if op[1] in removed:
            continue
        if _apply(store, patients, entities, op) == "removed":
            removed.add(op[1])

    for conjuncts, select in queries:
        query = _render(conjuncts, select)
        # An unorderable ward raises in the scan: the plan must too.
        assert _observed(execute, query, store) == _observed(
            execute_planned, query, store), query

    # The maintained indexes agree with a from-scratch rebuild.
    from repro.query.indexes import StoreIndex
    for attribute in sorted(indexed):
        maintained = store.indexes.get(attribute)
        rebuilt = StoreIndex(attribute)
        for obj in store.instances():
            rebuilt.add(obj.surrogate, obj.get_value(attribute))
        assert maintained._buckets == rebuilt._buckets, attribute
        assert maintained.inapplicable == rebuilt.inapplicable, attribute


# --------------------------------------------------------------------------
# The same claim over *random schemas with excuses*: seeded hierarchies from
# the E5/E6 generator, whose subclasses contradict inherited enum ranges
# under excuse clauses, so indexed attributes mix conditional types,
# INAPPLICABLE (all objects start unset), and excuse-admitted deviant values.


@functools.lru_cache(maxsize=32)
def _generated(seed):
    return generate_random_hierarchy(RandomHierarchyConfig(
        n_classes=12, n_attributes=4, extra_parent_prob=0.3,
        contradiction_prob=0.5, excuse_intent_prob=1.0, seed=seed))


_GEN_SYMBOLS = tuple(f"n{i}" for i in range(4)) + tuple(f"d{i}" for i in range(4))


def _gen_conjunct(data, attributes, class_names):
    kind = data.draw(st.sampled_from(("eq", "member", "not-member", "or")),
                     label="conjunct kind")
    if kind == "eq":
        attr = data.draw(st.sampled_from(attributes))
        sym = data.draw(st.sampled_from(_GEN_SYMBOLS))
        return f"x.{attr} = '{sym}"
    if kind == "member":
        return f"x in {data.draw(st.sampled_from(class_names))}"
    if kind == "not-member":
        return f"x not in {data.draw(st.sampled_from(class_names))}"
    # A disjunction contains paths but is never sargable: it stays
    # residual and must block any pushdown drawn after it.
    attr = data.draw(st.sampled_from(attributes))
    return f"x.{attr} = 'n0 or x.{attr} = 'd0"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_schemas_with_excuses_equal_full_scan(data):
    gh = _generated(data.draw(st.integers(0, 19), label="schema seed"))
    schema = gh.excuses_schema
    class_names = tuple(c.name for c in schema.classes())
    attributes = gh.attributes

    store = ObjectStore(schema)
    objects = [
        store.create(data.draw(st.sampled_from(class_names)))
        for _ in range(data.draw(st.integers(3, 8), label="population"))
    ]
    for attribute in sorted(data.draw(
            st.sets(st.sampled_from(attributes), max_size=4),
            label="indexed")):
        store.create_index(attribute)

    removed = set()
    n_ops = data.draw(st.integers(0, 12), label="ops")
    for _ in range(n_ops):
        idx = data.draw(st.integers(0, len(objects) - 1))
        if idx in removed:
            continue
        obj = objects[idx]
        kind = data.draw(st.sampled_from(
            ("set", "set", "unset", "classify", "declassify",
             "remove", "txn")))
        try:
            if kind in ("set", "txn"):
                attr = data.draw(st.sampled_from(attributes))
                value = EnumSymbol(data.draw(st.sampled_from(_GEN_SYMBOLS)))
                if kind == "set":
                    store.set_value(obj, attr, value)
                else:
                    try:
                        with transaction(store):
                            store.set_value(obj, attr, value)
                            raise _Abort()
                    except _Abort:
                        pass
            elif kind == "unset":
                store.unset_value(obj, data.draw(st.sampled_from(attributes)))
            elif kind == "classify":
                store.classify(obj, data.draw(st.sampled_from(class_names)))
            elif kind == "declassify":
                store.declassify(obj, data.draw(st.sampled_from(class_names)))
            elif kind == "remove":
                store.remove(obj)
                removed.add(idx)
        except ObjectError:
            pass

    for _ in range(data.draw(st.integers(1, 3), label="queries")):
        source = data.draw(st.sampled_from(class_names))
        conjuncts = [
            _gen_conjunct(data, attributes, class_names)
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        select = data.draw(st.sampled_from(
            ("x.attr0", "x.attr1", "count", "x.attr0, x.attr2")))
        where = f" where {' and '.join(conjuncts)}" if conjuncts else ""
        query = f"for x in {source}{where} select {select}"

        scan_rows, scan_stats = execute(query, store)
        idx_rows, idx_stats = execute_planned(query, store)
        assert idx_rows == scan_rows, query
        assert idx_stats.rows_skipped == scan_stats.rows_skipped, query

    from repro.query.indexes import StoreIndex
    for attribute in store.indexes.attributes():
        maintained = store.indexes.get(attribute)
        rebuilt = StoreIndex(attribute)
        for obj in store.instances():
            rebuilt.add(obj.surrogate, obj.get_value(attribute))
        assert maintained._buckets == rebuilt._buckets, attribute
        assert maintained.inapplicable == rebuilt.inapplicable, attribute
