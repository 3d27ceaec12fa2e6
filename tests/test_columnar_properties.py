"""Columnar read-path properties: bitsets as sets, compiled == scan.

Part 1 checks :class:`repro.columnar.SurrogateSet` against a plain
Python set as the model, under random op sequences that cross chunk
boundaries and mix in overflow (non-``Surrogate``) members, and under
the set algebra the query path leans on (``&``/``|``/``-``, the
reflected forms against plain sets, in-place union, COW copies).

Part 2 is the execution-equivalence claim the compiled closures must
uphold: for every plan, the compiled executor and the guarded full
scan (:func:`repro.query.interpreter.execute`, the oracle) return
identical rows AND identical ``rows_skipped``, and every extent row is
either visited or counted in ``rows_pruned`` -- across random schemas
with excuses, mutation sequences including aborted transactions, and
snapshots pinned across an online alter.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from repro.columnar import CHUNK_BITS, SurrogateSet
from repro.errors import ConformanceError, ObjectError
from repro.objects import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.objects.transactions import transaction
from repro.query import execute
from repro.query.planner import execute_plan, plan_query
from repro.scenarios import build_hospital_schema
from repro.scenarios.generators import (
    RandomHierarchyConfig,
    generate_random_hierarchy,
)
from repro.typesys import EnumSymbol

# --------------------------------------------------------------------------
# Part 1: SurrogateSet vs. the Python set model
# --------------------------------------------------------------------------

#: Ids straddle several chunks plus the low/high bits of each.
_ids = st.one_of(
    st.integers(0, 3 * CHUNK_BITS + 7),
    st.sampled_from([0, CHUNK_BITS - 1, CHUNK_BITS, 2 * CHUNK_BITS - 1]),
)

_overflow = st.sampled_from(["alpha", "beta", ("tup", 1)])

_member = st.one_of(_ids.map(Surrogate), _overflow)

_mutations = st.lists(
    st.tuples(st.sampled_from(["add", "discard"]), _member),
    max_size=60,
)


def _replay(ops):
    sset, model = SurrogateSet(), set()
    for op, member in ops:
        if op == "add":
            sset.add(member)
            model.add(member)
        else:
            sset.discard(member)
            model.discard(member)
    return sset, model


@settings(max_examples=120, deadline=None)
@given(ops=_mutations)
def test_surrogate_set_tracks_model(ops):
    sset, model = _replay(ops)
    assert len(sset) == len(model)
    assert set(sset) == model
    assert sset == model
    for _op, member in ops:
        assert (member in sset) == (member in model)
    # Bitmap members come out in ascending id order, before overflow.
    surrogates = [m for m in sset if isinstance(m, Surrogate)]
    assert surrogates == sorted(surrogates)
    assert list(sset.ids()) == [s.id for s in surrogates]


@settings(max_examples=120, deadline=None)
@given(a=st.lists(_member, max_size=40), b=st.lists(_member, max_size=40))
def test_surrogate_set_algebra_matches_set_algebra(a, b):
    sa, sb = SurrogateSet(a), SurrogateSet(b)
    ma, mb = set(a), set(b)
    assert set(sa & sb) == ma & mb
    assert set(sa | sb) == ma | mb
    assert set(sa - sb) == ma - mb
    # Reflected forms: a plain set on the left must defer to the bitset.
    assert set(ma & sb) == ma & mb
    assert set(ma | sb) == ma | mb
    assert set(ma - sb) == ma - mb
    # In-place union mutates the left operand only.
    acc = sa.copy()
    acc |= sb
    assert set(acc) == ma | mb
    assert set(sa) == ma
    # Operator results are fresh sets; mutating them leaves inputs alone.
    out = sa | sb
    out.add(Surrogate(10 * CHUNK_BITS))
    assert set(sa) == ma and set(sb) == mb


@settings(max_examples=80, deadline=None)
@given(a=st.lists(_member, max_size=40), extra=_ids)
def test_copy_is_independent(a, extra):
    original = SurrogateSet(a)
    clone = original.copy()
    assert clone == original
    clone.add(Surrogate(extra))
    clone.discard(Surrogate(extra))
    for member in list(original):
        clone.discard(member)
    assert len(clone) == 0
    assert set(original) == set(a)


# --------------------------------------------------------------------------
# Part 2: compiled closure == guarded scan
# --------------------------------------------------------------------------

SCHEMA = build_hospital_schema()

N_PATIENTS = 4

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

CONJUNCTS = (
    "p.age = 30", "p.age = 40", "30 = p.age",
    "p.ward = 3",
    "p.bloodPressure = 'Normal_BP",
    "p in Alcoholic", "p not in Alcoholic",
    "p in Ambulatory_Patient", "p not in Hemorrhaging_Patient",
    "p.age < 50",
    "p.age = 30 or p.age = 40",
)

SELECTS = ("p.name", "p.age", "count", "p.name, p.age")


class _Abort(Exception):
    pass


def _build_world():
    store = ObjectStore(SCHEMA)
    us_addr = store.create("Address", street="1 Main", city="Trenton",
                           state=EnumSymbol("NJ"))
    us = store.create("Hospital", location=us_addr,
                      accreditation=EnumSymbol("Federal"))
    ward = store.create("Ward", floor=3, name="W1")
    physician = store.create("Physician", name="Dr. F", age=50,
                             affiliatedWith=us,
                             specialty=EnumSymbol("General"))
    patients = [
        store.create("Patient", name=f"p{i}", age=40, treatedBy=physician)
        for i in range(N_PATIENTS)
    ]
    entities = {"ward": ward, "physician": physician}
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
    min_size=0, max_size=10,
)

_queries = st.lists(
    st.tuples(
        st.lists(st.sampled_from(CONJUNCTS), min_size=0, max_size=3),
        st.sampled_from(SELECTS),
    ),
    min_size=1, max_size=3,
)


def _render(conjuncts, select):
    where = f" where {' and '.join(conjuncts)}" if conjuncts else ""
    return f"for p in Patient{where} select {select}"


def _compiled_equals_scan(store, query):
    """Run the plan's compiled closure and the plain guarded scan over
    ``store`` and assert they agree; returns the (rows, rows_skipped)
    pair both produced."""
    scan_rows, scan_stats = execute(query, store)
    compiled_rows, compiled_stats = execute_plan(
        plan_query(query, store), store)
    assert compiled_rows == scan_rows, query
    assert compiled_stats.rows_skipped == scan_stats.rows_skipped, query
    # Pruning accounts for exactly the rows the closure did not visit.
    assert (compiled_stats.rows_scanned + compiled_stats.rows_pruned
            == scan_stats.rows_scanned), query
    return scan_rows, scan_stats.rows_skipped


@settings(max_examples=60, deadline=None)
@given(indexed=st.sets(st.sampled_from(INDEXABLE), max_size=4),
       ops=_ops, queries=_queries,
       alter=st.sampled_from(("add-excuse", "add-then-retract")))
def test_three_way_equivalence_and_pinned_snapshots(indexed, ops, queries,
                                                    alter):
    store, patients, entities = _build_world()
    for attribute in sorted(indexed):
        store.create_index(attribute)

    removed = set()
    for op in ops:
        if op[1] in removed:
            continue
        if _apply(store, patients, entities, op) == "removed":
            removed.add(op[1])

    baseline = {}
    for conjuncts, select in queries:
        query = _render(conjuncts, select)
        baseline[query] = _compiled_equals_scan(store, query)

    # Pin an epoch, then alter the schema out from under it.  The
    # snapshot must keep answering against its epoch; the live store's
    # two legs must re-agree against the new one.
    pinned = store.snapshot()
    store.add_excuse("Alcoholic", "age", (1, 100), ["Person"])
    if alter == "add-then-retract":
        store.retract_excuse("Alcoholic", "age", drop_attribute=True)

    for query, (rows, skipped) in baseline.items():
        snap_rows, snap_stats = pinned.run_query(query)
        assert snap_rows == rows, query
        assert snap_stats.rows_skipped == skipped, query
        _compiled_equals_scan(store, query)


# --------------------------------------------------------------------------
# Random schemas with excuses: conditional enum ranges, INAPPLICABLE
# everywhere, excuse-admitted deviants.  Same compiled == scan claim.
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _generated(seed):
    return generate_random_hierarchy(RandomHierarchyConfig(
        n_classes=12, n_attributes=4, extra_parent_prob=0.3,
        contradiction_prob=0.5, excuse_intent_prob=1.0, seed=seed))


_GEN_SYMBOLS = tuple(f"n{i}" for i in range(4)) + tuple(
    f"d{i}" for i in range(4))


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
    attr = data.draw(st.sampled_from(attributes))
    return f"x.{attr} = 'n0 or x.{attr} = 'd0"


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_schemas_three_way(data):
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
    n_ops = data.draw(st.integers(0, 10), label="ops")
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
                store.unset_value(
                    obj, data.draw(st.sampled_from(attributes)))
            elif kind == "classify":
                store.classify(obj, data.draw(st.sampled_from(class_names)))
            elif kind == "declassify":
                store.declassify(
                    obj, data.draw(st.sampled_from(class_names)))
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

        _compiled_equals_scan(store, query)
