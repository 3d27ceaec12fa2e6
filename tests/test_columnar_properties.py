"""Columnar read-path properties: bitsets as sets, compiled == scan.

Part 1 checks :class:`repro.columnar.SurrogateSet` against a plain
Python set as the model, under random op sequences that cross chunk
boundaries, and under the set algebra the query path leans on
(``&``/``|``/``-``, in-place ``update``, COW copies), the
batch constructor ``from_ids`` against per-member ``add``, and the id
decoder on both sides of its popcount branch and of its sparse memo's
bound (three seeded mutants must be killed).

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
import inspect
import sys
import textwrap
import threading

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro import columnar
from repro.columnar import (
    _SPARSE_SHIFT,
    CHUNK_BITS,
    ObjectColumns,
    SurrogateSet,
)
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

_member = _ids.map(Surrogate)

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
    assert sset == SurrogateSet(model)
    for _op, member in ops:
        assert (member in sset) == (member in model)
    # Members come out in ascending id order.
    assert list(sset) == sorted(model)
    assert list(sset.ids()) == [s.id for s in sorted(model)]


@settings(max_examples=120, deadline=None)
@given(a=st.lists(_member, max_size=40), b=st.lists(_member, max_size=40))
def test_surrogate_set_algebra_matches_set_algebra(a, b):
    sa, sb = SurrogateSet(a), SurrogateSet(b)
    ma, mb = set(a), set(b)
    assert set(sa & sb) == ma & mb
    assert set(sa | sb) == ma | mb
    assert set(sa - sb) == ma - mb
    # In-place union mutates the left operand only.
    acc = sa.copy()
    acc.update(sb)
    assert set(acc) == ma | mb
    assert set(sa) == ma
    # Operator results are fresh sets; mutating them leaves inputs alone.
    out = sa | sb
    out.add(Surrogate(10 * CHUNK_BITS))
    assert set(sa) == ma and set(sb) == mb


# The decoder, on both sides of its popcount branch: whole ranges make
# dense chunks, exact popcounts sit at the sparse/dense threshold, and
# each chunk's bits 0 and CHUNK_BITS - 1 (the last chunk's included) are
# drawn on purpose.

_N_CHUNKS = 3
_SPAN = _N_CHUNKS * CHUNK_BITS
#: The sparse/dense popcount of a chunk whose top bit is set.
_SPARSE = CHUNK_BITS >> _SPARSE_SHIFT

_ranges = st.tuples(st.integers(0, _SPAN - 1), st.integers(1, CHUNK_BITS)).map(
    lambda t: range(t[0], min(t[0] + t[1], _SPAN)))

_at_threshold = st.tuples(
    st.integers(0, _N_CHUNKS - 1),
    st.sampled_from((_SPARSE - 1, _SPARSE, _SPARSE + 1)),
).flatmap(lambda kc: st.sets(st.integers(0, CHUNK_BITS - 2),
                             min_size=kc[1] - 1, max_size=kc[1] - 1).map(
    lambda bits: {kc[0] * CHUNK_BITS + bit
                  for bit in bits | {CHUNK_BITS - 1}}))

_chunk_edges = st.sets(st.sampled_from([
    key * CHUNK_BITS + bit for key in range(_N_CHUNKS)
    for bit in (0, CHUNK_BITS - 1)]))

_decoder_ids = st.tuples(
    st.lists(_ranges, max_size=3), st.lists(_at_threshold, max_size=2),
    _chunk_edges, st.sets(st.integers(0, _SPAN - 1), max_size=20),
).map(lambda t: set().union(*t[0], *t[1], t[2], t[3]))


def check_decoder(ids) -> None:
    model = sorted(ids)
    sset = SurrogateSet(map(Surrogate, model))
    assert sset.ids() == model
    assert list(sset) == [Surrogate(sid) for sid in model]
    columns = ObjectColumns(columnar.BitsetStats())
    for sid in model:
        columns.put(Surrogate(sid), frozenset(), {}, stamp=0)
    frozen = columns.capture()
    stats = columnar.BitsetStats()
    assert [row[0].id for row in frozen.gather(sset, stats)] == model
    # The range form, over every column chunk (a cold scan gathers each
    # segment through it) and a range across chunks.
    for key in {sid >> 8 for sid in model}:
        segment = [sid for sid in model if sid >> 8 == key]
        assert sset.ids(key << 8, (key + 1) << 8) == segment
    assert [row[0].id for row in frozen.scan(sset, None, stats)[1]] == model
    lo, hi = CHUNK_BITS - 300, 2 * CHUNK_BITS + 5
    assert sset.ids(lo, hi) == [sid for sid in model if lo <= sid < hi]


@settings(max_examples=100, deadline=None)
@given(ids=_decoder_ids)
def test_decoder_on_both_branches(ids):
    check_decoder(ids)


def _word_keyed(function):
    """A memo that forgets the chunk base: the first base a word was
    decoded at answers for every base."""
    memo = {}

    @functools.wraps(function)
    def decode(base, word):
        if word not in memo:
            memo[word] = function(base, word)
        return memo[word]
    decode.cache_clear = memo.clear
    return decode


def _decoder_mutant(old: str, new: str, target=SurrogateSet.ids):
    """``target`` (``SurrogateSet.ids`` or the memoised sparse decode
    ``columnar._sparse_ids``) with one source edit."""
    source = textwrap.dedent(inspect.getsource(target))
    assert source.count(old) == 1
    namespace = dict(vars(columnar), _word_keyed=_word_keyed)
    exec(source.replace(old, new), namespace)
    return namespace[target.__name__]


def _killed_decoder(mutant) -> bool:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None, phases=(Phase.explicit, Phase.generate))
    @given(ids=_decoder_ids)
    @example(ids={5, 77, CHUNK_BITS + 5, CHUNK_BITS + 77})
    def run(ids):
        check_decoder(ids)

    owner = SurrogateSet if mutant.__name__ == "ids" else columnar
    # A correct decode left in a memo would mask the mutant.
    memos = [columnar._sparse_ids, mutant]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, mutant.__name__, mutant)
        try:
            for memo in memos:
                getattr(memo, "cache_clear", lambda: None)()
            run()
        except AssertionError:
            return True
        finally:
            for memo in memos:
                getattr(memo, "cache_clear", lambda: None)()
    return False


def test_mutant_sparse_decode_drops_bit_0_is_killed():
    assert _killed_decoder(_decoder_mutant(
        'at = digits.rfind("1")', 'at = digits.rfind("1", 0, len(digits) - 1)',
        columnar._sparse_ids))


def test_mutant_sparse_memo_key_drops_chunk_base_is_killed():
    """Chunks 0 and 1 of the ``@example`` hold equal words."""
    assert _killed_decoder(_decoder_mutant(
        "@lru_cache(maxsize=256)", "@_word_keyed", columnar._sparse_ids))


def test_mutant_dense_byte_offset_off_by_one_is_killed():
    assert _killed_decoder(_decoder_mutant(
        "offset = base + (byte_index << 3)",
        "offset = base + (byte_index << 3) + 1"))


# The sparse decode's memo: keyed on (chunk base, chunk word), so a
# fresh set with an unchanged word decodes from it; dense chunks never
# enter it, and at its bound every answer still equals a cold decode.

def _cold(sset) -> list:
    columnar._sparse_ids.cache_clear()
    return sset.ids()


def test_a_fresh_snapshot_after_a_write_decodes_its_visit_set_from_memo():
    store = ObjectStore(SCHEMA)
    store.create_index("age")
    store.bulk_load([{"class": "Person", "name": f"n{i}",
                      "age": 40 if i % 64 == 0 else 41}
                     for i in range(640)])
    other = next(p for p in store.extent("Person")
                 if p.get_value("age") == 41)
    query = "for p in Person where p.age = 40 select p.name"
    columnar._sparse_ids.cache_clear()
    rows, _stats = store.snapshot().run_query(query)
    before = columnar._sparse_ids.cache_info()
    assert len(rows) == 10 and before.misses == 1
    store.set_value(other, "age", 42)
    assert store.snapshot().run_query(query)[0] == rows
    after = columnar._sparse_ids.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_a_dense_chunk_adds_no_memo_entry():
    columnar._sparse_ids.cache_clear()
    dense = SurrogateSet.from_ids(range(0, CHUNK_BITS, 2))
    assert dense.ids() == list(range(0, CHUNK_BITS, 2))
    assert dense.ids(256, 512) == list(range(256, 512, 2))
    assert columnar._sparse_ids.cache_info().currsize == 0


def test_the_memo_holds_256_words_and_still_decodes_each_one():
    sets = [SurrogateSet.from_ids({i, 3000 + i}) for i in range(300)]
    columnar._sparse_ids.cache_clear()
    warm = [sset.ids() for sset in sets] + [sset.ids() for sset in sets]
    assert columnar._sparse_ids.cache_info().currsize == 256
    cold = [_cold(sset) for sset in sets]
    assert warm == cold + cold
    assert cold == [[i, 3000 + i] for i in range(300)]
    # Every caller gets a fresh list.
    sets[0].ids().append(-1)
    assert sets[0].ids() == [0, 3000]


@pytest.mark.concurrent
def test_threads_decode_through_the_shared_memo():
    shared = [SurrogateSet.from_ids({7 + k, 4100 + k, 9000}) for k in range(8)]
    own = [[SurrogateSet.from_ids({t * 97 + k, 2 * CHUNK_BITS + k})
            for k in range(60)] for t in range(6)]
    want = {id(sset): _cold(sset)
            for sset in shared + [s for sets in own for s in sets]}
    errors, start = [], threading.Barrier(6)

    def decode(mine):
        try:
            start.wait()
            for _round in range(20):
                for sset in shared + mine:
                    assert sset.ids() == want[id(sset)]
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=decode, args=(mine,)) for mine in own]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(ids=_decoder_ids, fillers=st.integers(0, 300))
def test_decoder_over_three_chunks_across_memo_eviction(ids, fillers):
    """A three-chunk set decodes the same before and after ``fillers``
    distinct sparse words push its own words out of the memo."""
    check_decoder(ids)
    for i in range(fillers):
        assert SurrogateSet.from_ids({i, _SPAN - 1 - i}).ids() \
            == [i, _SPAN - 1 - i]
    check_decoder(ids)


#: Ids at both edges of chunks 0 and 1, and the first of chunk 2.
_EDGES = [0, CHUNK_BITS - 1, CHUNK_BITS, 2 * CHUNK_BITS - 1, 2 * CHUNK_BITS]


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.one_of(_ids, st.sampled_from(_EDGES)), max_size=80))
@example(ids=_EDGES[::-1] + _EDGES)
def test_from_ids_equals_adding_members_one_by_one(ids):
    """The batch constructor (any order, repeats) builds the set that
    per-member ``add`` builds, chunk for chunk; the constructor from
    ``Surrogate`` members, which routes through it, agrees."""
    built = SurrogateSet.from_ids(ids)
    added = SurrogateSet()
    for sid in ids:
        added.add(Surrogate(sid))
    for other in (added, SurrogateSet(map(Surrogate, ids))):
        assert len(built) == len(other) == len(set(ids))
        assert built._chunks == other._chunks
        assert built.ids() == other.ids() == sorted(set(ids))


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


# --------------------------------------------------------------------------
# Part 3: the column table holds the chunks of live objects only
# --------------------------------------------------------------------------

def _live_chunk_keys(store):
    return {obj.surrogate.id >> columnar._COL_SHIFT
            for obj in store.instances()}


def test_emptied_column_chunks_leave_the_table():
    """Ids are never reused, so bulk/remove cycles must not grow the
    table the first write after each capture copies."""
    store = ObjectStore(build_hospital_schema())
    survivors = []
    for cycle in range(6):
        store.bulk_load([{"class": "Person", "name": f"b{cycle}.{i}"}
                         for i in range(300)])
        batch = [obj for obj in store.extent("Person")
                 if obj not in survivors]
        survivors.append(batch[-1])
        for obj in batch[:-1]:
            store.remove(obj)
        assert set(store._columns._chunks) == _live_chunk_keys(store)
    # An open snapshot still reads the rows the table dropped.
    last = survivors[-1]
    snap = store.snapshot()
    store.remove(last)
    assert set(store._columns._chunks) == _live_chunk_keys(store)
    assert snap.get(last.surrogate).get_value("name") == "b5.299"
    assert len(snap) == len(survivors)
    # A rolled-back scope restores the chunks it emptied.
    table = dict(store._columns._chunks)
    with pytest.raises(_Abort):
        with transaction(store):
            for obj in survivors[:-1]:
                store.remove(obj)
            assert not store._columns._chunks
            raise _Abort
    assert store._columns._chunks == table
    assert [store.get(obj.surrogate) for obj in survivors[:-1]] \
        == survivors[:-1]
    # Emptied and refilled within one generation: the writer's own chunk.
    snap = store.snapshot()
    store.remove(store.create("Person", name="x"))
    fresh = store.create("Person", name="y")
    assert set(store._columns._chunks) == _live_chunk_keys(store)
    assert fresh.surrogate not in snap
    assert len(snap) == len(survivors) - 1
