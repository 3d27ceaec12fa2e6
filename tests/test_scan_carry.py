"""A snapshot's scan row list is carried forward by segment.

``StoreSnapshot.scan_rows(C)`` copies each segment (one column chunk's
part of the extent, 256 ids) of the replaced snapshot's row list when
the chunk is the same object and the extent's bits over it are equal,
and gathers the rest (:meth:`repro.columnar.FrozenColumns.scan`).  The
claims:

* **Carry-forward equals a cold gather.**  Over random traces on the
  paper's hospital schema -- create, remove, set/unset, classify/
  declassify, values entering and leaving virtual classes, eager and
  deferred bulk, aborted transactions, ``alter_class`` re-parenting a
  populated class, add/retract excuse, and snapshots nobody scans --
  after every step each class's ``scan_rows`` on a fresh snapshot is the
  same list of the same tuple objects as :func:`reference_scan_rows`.
  Populations are shifted so the cast straddles sids 255/256 and
  4095/4096; segments empty.  Three seeded mutants of the builder are
  killed in bounded, derandomized runs.
* **The counters are exact.**  ``bitset.rows_gathered`` /
  ``bitset.rows_carried`` deltas on a 10,000-patient store; two stores
  in one process, also each read by its own thread (``concurrent``),
  count only their own work.
* **Threads** (``concurrent``): readers scan snapshot *k* while the
  writer commits and other readers build *k+1* from *k*'s table.
* **Three bitset chunks** (``slow``): the same trace over 8,200+
  objects, so unchanged and changed chunk words both occur.

A pushdown plan memoises its access path per read-only view
(:func:`repro.query.planner._compile_executor`): one slot, keyed on the
view's ``memo_ref`` (a weak reference to the view itself), holding the
pushdown outcome and the visit rows.  Runs of one plan on one snapshot
do the set algebra and gather once; a committed write, another store,
a masked view of the same snapshot or the live store compute again --
each with exact counter deltas, against ``tests/reference_query.py``.
A live scan counts the rows it gathers.  Three mutants, installed over
named hooks, are killed; threads share one cached plan while a writer
commits, and take turns on its slot from two snapshots
(``concurrent``); a shard worker keeps one masked view per snapshot
and foreign set, also over worker processes (``sharded``); two visit
sets that differ only in their third bitset chunk are told apart
(``slow``).
"""

from __future__ import annotations

import inspect
import random
import sys
import textwrap
import threading
import time
import weakref

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro import columnar
from repro.columnar import FrozenColumns, SurrogateSet
from repro.errors import ObjectError, SchemaError
from repro.objects import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.query import compiler
from repro.query.planner import execute_plan, execute_planned, plan_query
from repro.scenarios.hospital import HOSPITAL_CDL
from repro.schema.classdef import ClassDef
from repro.sharding import ShardedStore, wire
from repro.sharding.worker import MaskedSnapshot, ShardServer
from tests.reference_query import reference_execute_plan
from tests.test_rollback_properties import (
    BULK_ROWS, SCHEMA, _ScopedWorld, _base, _bulk, _flat, _nested,
)


def reference_scan_rows(snap, class_name: str) -> list:
    """The naive reading: each extent member's captured row, looked up
    one by one."""
    columns = snap._objects
    return [columns.get(s.id) for s in snap.extent_surrogates(class_name)]


def assert_scans_match(store) -> None:
    snap = store.snapshot()
    for name in snap.schema.class_names():
        rows, want = snap.scan_rows(name), reference_scan_rows(snap, name)
        assert len(rows) == len(want), name
        assert all(a is b for a, b in zip(rows, want)), name


def _fill(store, n: int, classes=("Person",)) -> None:
    if n:
        store.bulk_load([(classes, {"name": "f", "age": 30})
                         for _ in range(n)], check="eager")


class _CarryWorld(_ScopedWorld):
    """The rollback suite's cast plus a populated ``Frail`` class each
    ``alter`` re-parents (Patient <-> Person): a schema swap that moves
    extents without touching a column chunk."""

    def __init__(self, store) -> None:
        super().__init__(store)
        self.frail_parent = "Patient"
        store.alter_class(ClassDef("Frail", (self.frail_parent,), ()))
        self.patients.append(store.create("Frail", name="fr", age=40))

    def run(self, op) -> None:
        store, kind = self.store, op[0]
        try:
            if kind == "deferred":
                store.bulk_load([(BULK_ROWS[key][0], {
                    a: self.value(v) if a.startswith("treated") else v
                    for a, v in BULK_ROWS[key][1].items()})
                    for key in op[1]], check="deferred")
            elif kind == "frail":
                self.patients.append(store.create("Frail", name="fr"))
            elif kind == "alter":
                parent = ("Person" if self.frail_parent == "Patient"
                          else "Patient")
                store.alter_class(ClassDef("Frail", (parent,), ()))
                self.frail_parent = parent
            elif kind == "excuse" and op[1]:
                store.add_excuse("Alcoholic", "age", (1, 200), ["Person"])
            elif kind == "excuse":
                store.retract_excuse("Alcoholic", "age", drop_attribute=True)
            elif kind == "quiet":
                # Snapshots built and never scanned: the next scan
                # carries from the last one that was.
                for inner in op[1]:
                    self.run(inner)
                    store.snapshot()
            else:
                super().run(op)
        except (ObjectError, SchemaError):
            pass


_step = st.one_of(
    _base, _bulk, _nested,
    st.tuples(st.just("deferred"),
              st.lists(st.sampled_from(sorted(BULK_ROWS)), min_size=1,
                       max_size=4)),
    st.tuples(st.just("frail")),
    st.tuples(st.just("alter")),
    st.tuples(st.just("excuse"), st.booleans()),
    st.tuples(st.just("quiet"), st.lists(_flat, max_size=3)),
)
#: Person rows loaded before the cast: 248 puts the cast on sids
#: 249..260 (across 255/256), 4088 on 4089..4100 (across 4095/4096).
_FILLERS = (0, 248, 4088)


def check_trace(filler: int, ops) -> None:
    store = ObjectStore(SCHEMA)
    _fill(store, filler)
    world = _CarryWorld(store)
    assert_scans_match(store)
    # Every trace ends in a schema swap: bits move, chunks do not.
    for op in list(ops) + [("alter",)]:
        world.run(op)
        assert_scans_match(store)


#: Every member of the cast's segment removed or declassified.
_EMPTIES = [("declassify", 0, "Alcoholic"), ("unset", 1, "treatedAt"),
            ("remove", 0), ("remove", 1), ("remove", 2), ("remove", 3)]


@settings(max_examples=60, deadline=None)
@given(filler=st.sampled_from(_FILLERS), ops=st.lists(_step, max_size=10))
@example(filler=248, ops=_EMPTIES)
@example(filler=4088, ops=[("alter",), ("frail",), ("alter",),
                           ("set", 2, "age", 55)])
def test_carried_scan_rows_equal_a_cold_gather(filler, ops):
    check_trace(filler, ops)


def test_boundary_sids_and_an_emptying_segment():
    """Writes at sids 255, 256, 4095 and 4096 (each a segment's edge,
    the last two a bitset chunk's), then a class whose one segment
    empties and refills."""
    store = ObjectStore(SCHEMA)
    _fill(store, 4100, ("Patient",))
    for sid in (255, 256, 4095, 4096):
        obj = store.get(Surrogate(sid))
        store.set_value(obj, "age", 41)
        assert_scans_match(store)
        store.classify(obj, "Ambulatory_Patient")
        assert_scans_match(store)
    for sid in (255, 256):
        store.declassify(store.get(Surrogate(sid)),
                         "Ambulatory_Patient")
        assert_scans_match(store)
    store.remove(store.get(Surrogate(4096)))
    assert_scans_match(store)
    assert store.snapshot().scan_rows("Ambulatory_Patient")[0][0].id == 4095
    store.create("Ambulatory_Patient", name="a", age=3)
    assert_scans_match(store)


# ----------------------------------------------------------------------
# Seeded mutants of the builder
# ----------------------------------------------------------------------

def _scan_mutant(old: str, new: str):
    """``FrozenColumns.scan`` with one source edit."""
    source = textwrap.dedent(inspect.getsource(FrozenColumns.scan))
    assert source.count(old) == 1
    namespace = dict(vars(columnar))
    exec(source.replace(old, new), namespace)
    return namespace["scan"]


def _killed(mutant) -> bool:
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None, phases=(Phase.generate,))
    @given(filler=st.sampled_from(_FILLERS),
           ops=st.lists(_step, max_size=10))
    def run(filler, ops):
        check_trace(filler, ops)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FrozenColumns, "scan", mutant)
        try:
            run()
        except AssertionError:
            return True
    return False


def test_mutant_reuse_when_only_the_chunk_matches_is_killed():
    assert _killed(_scan_mutant("entry = None", "pass"))


def test_mutant_reuse_when_only_the_bits_match_is_killed():
    assert _killed(_scan_mutant(
        "if entry is not None and entry[0] is chunk:",
        "if entry is not None:"))


def test_mutant_segment_offset_off_by_one_is_killed():
    assert _killed(_scan_mutant(
        "table[key] = (chunk, lo, len(rows))",
        "table[key] = (chunk, lo + 1, len(rows))"))


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------

def test_carried_and_gathered_counter_deltas():
    store = ObjectStore(SCHEMA)
    _fill(store, 10_000, ("Patient",))
    _fill(store, 239)          # the next sid, 10,240, opens column chunk 40

    def scan_delta():
        before = store.stats()
        rows = store.snapshot().scan_rows("Patient")
        after = store.stats()
        return rows, tuple(after[f"bitset.{name}"] - before[f"bitset.{name}"]
                           for name in ("rows_gathered", "rows_carried"))

    rows, delta = scan_delta()
    assert (len(rows), delta) == (10_000, (10_000, 0))      # cold
    store.set_value(store.get(Surrogate(5_000)), "age", 41)
    assert scan_delta()[1] == (256, 10_000 - 256)          # one segment
    again, delta = scan_delta()
    assert delta == (0, 0)                                 # reused snapshot
    assert again is store.snapshot().scan_rows("Patient")
    created = store.create("Patient", name="new", age=3)
    assert created.surrogate.id == 10_240
    assert scan_delta()[1] == (1, 10_000)                  # its segment only


def _bitset(store) -> dict:
    return {k: v for k, v in store.stats().items() if k.startswith("bitset.")}


def _bitset_work(store) -> dict:
    """Writes between snapshots, then pruned and full reads: work that
    ticks every bitset counter.  Returns the deltas of ``store``'s own
    counters."""
    before = _bitset(store)
    store.create_index("age")
    handles = list(store.extent("Patient"))[:3]
    for i, obj in enumerate(handles):
        store.snapshot()
        store.set_value(obj, "age", 41 + i)
        store.classify(obj, "Ambulatory_Patient")
        snap = store.snapshot()
        snap.run_query("for p in Patient where p.age = 41 select p.name")
        snap.run_query(
            "for p in Patient where p not in Ambulatory_Patient select p.name")
        snap.scan_rows("Patient")
    return {k: v - before[k] for k, v in _bitset(store).items()}


def test_two_stores_in_one_process_report_disjoint_counts():
    busy, idle = ObjectStore(SCHEMA), ObjectStore(SCHEMA)
    for store in (busy, idle):
        _fill(store, 300, ("Patient",))
    resting = _bitset(idle)
    work = _bitset_work(busy)
    assert _bitset(idle) == resting
    assert all(work.values()), work
    # The same work on the other store counts the same, on that store.
    assert _bitset_work(idle) == work


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------

@pytest.mark.concurrent
def test_readers_carry_forward_while_the_writer_commits():
    store = ObjectStore(SCHEMA)
    _fill(store, 5_000, ("Patient",))
    handles = list(store.extent("Patient"))
    stop, errors, epochs = threading.Event(), [], set()

    def reader():
        try:
            while not stop.is_set():
                snap = store.snapshot(wait=False)
                for name in ("Patient", "Person", "Ambulatory_Patient"):
                    rows = snap.scan_rows(name)
                    want = reference_scan_rows(snap, name)
                    assert len(rows) == len(want)
                    assert all(a is b for a, b in zip(rows, want))
                epochs.add(snap.epoch)
        except Exception as exc:
            errors.append(exc)

    def writer():
        rng = random.Random(28)
        try:
            for i in range(200):
                obj = rng.choice(handles)
                if i % 4 == 0:
                    handles.append(store.create("Patient", name="n", age=5))
                elif i % 4 == 1:
                    handles.remove(obj)
                    store.remove(obj)
                elif i % 4 == 2 and "Ambulatory_Patient" not in obj.memberships:
                    store.classify(obj, "Ambulatory_Patient")
                else:
                    store.set_value(obj, "age", i % 100 + 1)
                time.sleep(1e-4)       # a gap in which readers take k+1
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for t in readers:
            t.start()
        writing = threading.Thread(target=writer)
        writing.start()
        writing.join(timeout=60)
        assert not writing.is_alive()
        stop.set()
        for t in readers:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not errors, errors[0]
    assert len(epochs) > 1         # readers scanned while commits landed
    assert_scans_match(store)


@pytest.mark.concurrent
def test_stores_read_by_their_own_threads_report_disjoint_counts():
    stores = [ObjectStore(SCHEMA) for _ in range(3)]
    for store in stores:
        _fill(store, 300, ("Patient",))
    alone = _bitset_work(stores.pop())
    results, errors = {}, []

    def run(i, store):
        try:
            results[i] = _bitset_work(store)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=run, args=pair)
               for pair in enumerate(stores)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]
    assert results == {0: alone, 1: alone}


# ----------------------------------------------------------------------
# Three bitset chunks
# ----------------------------------------------------------------------

@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(filler=st.sampled_from((8_188, 8_200)),
       ops=st.lists(_step, max_size=10))
def test_carried_scan_rows_over_three_bitset_chunks(filler, ops):
    check_trace(filler, ops)


# ----------------------------------------------------------------------
# A plan's memo
# ----------------------------------------------------------------------

#: A proven equality: its visit set is exactly the answer rows.
SEL = "for p in Patient where p.age = 7 select p.name"
#: Patient ``i`` (sid ``i + 1``) is ``1 + i % 50`` years old.
AGED_7 = 7
_COUNTERS = ("rows_gathered", "rows_carried", "words_anded")


def _patients(n: int) -> ObjectStore:
    store = ObjectStore(SCHEMA)
    store.bulk_load([(("Patient",), {"name": f"p{i}", "age": 1 + i % 50})
                     for i in range(n)], check="eager")
    store.create_index("age")
    return store


def _counted(store, run):
    """``run()`` and its ``(rows_gathered, rows_carried, words_anded)``
    delta."""
    before = store.stats()
    out = run()
    after = store.stats()
    return out, tuple(after[f"bitset.{name}"] - before[f"bitset.{name}"]
                      for name in _COUNTERS)


def _aged_7(view) -> list:
    """The cold reading of ``SEL``'s visit rows: each extent member's
    captured row whose age is 7."""
    rows = (view._objects.get(s.id) for s in view.extent_surrogates("Patient"))
    return [row for row in rows if row[2].get("age") == 7]


def _run(plan, view, counted=None):
    """One run, which must equal the reference on ``view``; returns the
    rows, the counter delta on ``counted`` (default: ``view``) and the
    rows the plan's memo slot holds (None: an empty slot)."""
    got, delta = _counted(counted or view, lambda: execute_plan(plan, view))
    assert got == reference_execute_plan(plan, view)
    held = plan.executor._bindings["_memo"][0]
    return got[0], delta, held[-1] if held else None


#: SEL over 2,000 patients, cold: 40 rows gathered after one chunk AND
#: (the other two postings are empty); a hit carries them, ANDs nothing.
_COLD = (40, 0, columnar.WORDS_PER_CHUNK)
_HIT = (0, 40, 0)


def check_runs_on_one_snapshot_gather_once() -> None:
    store = _patients(2_000)
    snap = store.snapshot()
    plan = plan_query(SEL, snap)
    rows, delta, held = _run(plan, snap)
    assert (len(rows), delta) == (40, _COLD)
    for _ in range(4):
        again, delta, still = _run(plan, snap)
        # The access path is the memo's; the answer list is new.
        assert (again, delta) == (rows, _HIT) and again is not rows
        assert still is held


def check_a_committed_write_regathers() -> None:
    store = _patients(2_000)
    plan = plan_query(SEL, store.snapshot())
    _run(plan, store.snapshot())
    renamed = store.get(Surrogate(AGED_7))
    writes = [
        # The visit set stays equal: only the view tells.
        lambda: store.set_value(renamed, "name", "renamed"),
        lambda: store.set_value(store.get(Surrogate(AGED_7 + 50)), "age", 8),
        lambda: store.set_value(store.get(Surrogate(1)), "age", 7),
    ]
    for count, write in zip((40, 39, 40), writes):
        write()
        snap = store.snapshot()
        rows, delta, held = _run(plan, snap)
        assert delta[:2] == (count, 0) and delta[2] > 0
        cold = _aged_7(snap)
        assert len(held) == count and all(a is b for a, b in zip(held, cold))
        assert ("renamed",) in rows
        assert _run(plan, snap)[1] == (0, count, 0)


def check_the_live_store_reuses_nothing() -> None:
    store = _patients(2_000)
    store.snapshot()        # so the next write replaces the row's dicts
    plan = plan_query(SEL, store)
    rows, delta, held = _run(plan, store)
    assert (delta, held) == (_COLD, None)
    store.set_value(store.get(Surrogate(AGED_7)), "name", "renamed")
    again, delta, held = _run(plan, store)
    assert (delta, held) == (_COLD, None)
    assert again == [("renamed",)] + rows[1:]


def check_one_plan_on_two_stores_shares_no_rows() -> None:
    one, two = _patients(2_000), _patients(2_000)
    two.set_value(two.get(Surrogate(AGED_7)), "name", "only in two")
    plan = plan_query(SEL, one.snapshot())
    for store in (one, two, one, two):
        snap = store.snapshot()
        rows, delta, held = _run(plan, snap)
        assert delta == _COLD
        assert all(a is b for a, b in zip(held, _aged_7(snap)))
        assert (rows[0] == ("only in two",)) == (store is two)


def check_a_masked_view_and_its_snapshot_share_nothing() -> None:
    store = _patients(2_000)
    snap = store.snapshot()
    masked = MaskedSnapshot(snap, SurrogateSet.from_ids([AGED_7]))
    plan = plan_query(SEL, snap)
    for view, count in ((snap, 40), (masked, 39), (snap, 40), (masked, 39)):
        rows, delta, _held = _run(plan, view, store)
        assert len(rows) == count and delta[:2] == (count, 0)
        assert _run(plan, view, store)[1] == (0, count, 0)


_MEMO_CLAIMS = (
    check_runs_on_one_snapshot_gather_once,
    check_a_committed_write_regathers,
    check_the_live_store_reuses_nothing,
    check_one_plan_on_two_stores_shares_no_rows,
    check_a_masked_view_and_its_snapshot_share_nothing,
)


@pytest.mark.parametrize("claim", _MEMO_CLAIMS,
                         ids=lambda claim: claim.__name__[6:])
def test_visit_memo(claim):
    claim()


def test_a_live_scan_counts_its_gathered_rows():
    store = ObjectStore(SCHEMA)
    _fill(store, 50, ("Patient",))
    for _ in range(2):
        (rows, _stats), delta = _counted(store, lambda: execute_planned(
            "for p in Patient select p.name", store))
        assert (len(rows), delta) == (50, (50, 0, 0))


# Mutants of the memo, each installed over a named hook.

def _memo_mutant_killed(install) -> bool:
    with pytest.MonkeyPatch.context() as patch:
        install(patch)
        for claim in _MEMO_CLAIMS:
            try:
                claim()
            except AssertionError:
                return True
    return False


def _without_the_identity_check(patch) -> None:
    """Every plan generated from here on takes any filled slot."""
    real = compiler.instantiate

    def instantiate(name, source, namespace, qstats=None):
        old = "held[0] is view"
        if name == "_plan" and old in source:
            source = source.replace(old, "view is not None")
        return real(name, source, namespace, qstats)

    patch.setattr(compiler, "instantiate", instantiate)


def _keys(owner, key):
    """Install ``owner.memo_ref`` as ``key(view)``; the view's own
    assignment in ``__init__`` is ignored."""
    return lambda patch: patch.setattr(
        owner, "memo_ref", property(key, lambda self, value: None))


def test_mutant_memo_without_the_identity_check_is_killed():
    assert _memo_mutant_killed(_without_the_identity_check)


def test_mutant_memo_honoured_on_the_live_store_is_killed():
    assert _memo_mutant_killed(_keys(ObjectStore, weakref.ref))


def test_mutant_masked_view_served_its_snapshots_entry_is_killed():
    assert _memo_mutant_killed(_keys(
        MaskedSnapshot, lambda self: self._snap.memo_ref))


def _race(readers, writer=None) -> None:
    """Run the ``readers`` threads (and ``writer``) with a short switch
    interval until they return."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=run)
               for run in readers + ([writer] if writer else [])]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.concurrent
def test_readers_share_one_plan_while_the_writer_commits():
    store = _patients(2_000)
    shared = plan_query(SEL, store.snapshot())
    misses = store.indexes.qstats.plan_misses
    handles = list(store.extent("Patient"))
    stop, errors, epochs = threading.Event(), [], set()

    def reader():
        try:
            while not stop.is_set():
                snap = store.snapshot(wait=False)
                got = snap.run_query(SEL)
                plan = plan_query(SEL, snap)
                assert got == reference_execute_plan(plan, snap)
                epochs.add(snap.epoch)
        except Exception as exc:
            errors.append(exc)

    def writer():
        rng = random.Random(45)
        try:
            for i in range(200):
                obj = rng.choice(handles)
                if i % 4 == 0:
                    handles.append(store.create("Patient", name="n", age=7))
                elif i % 4 == 1:
                    handles.remove(obj)
                    store.remove(obj)
                elif i % 4 == 2:
                    store.set_value(obj, "name", f"w{i}")
                else:
                    store.set_value(obj, "age", rng.choice((7, 8)))
                time.sleep(1e-4)
        except Exception as exc:
            errors.append(exc)
        finally:
            stop.set()

    _race([reader] * 6, writer)
    assert not errors, errors[0]
    assert len(epochs) > 1
    # One plan served every run.
    assert store.indexes.qstats.plan_misses == misses
    assert plan_query(SEL, store.snapshot()) is shared


@pytest.mark.concurrent
def test_readers_on_two_snapshots_take_turns_on_one_slot():
    """Each run finds the slot holding its own view or the other one:
    either way its answer and stats are its own snapshot's."""
    store = _patients(2_000)
    first = store.snapshot()
    store.set_value(store.get(Surrogate(AGED_7)), "age", 8)
    second = store.snapshot()
    plan = plan_query(SEL, first)
    want = {view: reference_execute_plan(plan, view)
            for view in (first, second)}
    assert len(want[first][0]) == 40 and len(want[second][0]) == 39
    errors = []

    def reader(view):
        try:
            for _ in range(300):
                assert execute_plan(plan, view) == want[view]
        except Exception as exc:
            errors.append(exc)

    carried = store.stats()["bitset.rows_carried"]
    _race([lambda view=view: reader(view) for view in (first, second) * 3])
    assert not errors, errors[0]
    assert store.stats()["bitset.rows_carried"] > carried


def _on_shard(server, text: str):
    """``text``'s answer on one shard, and its counter delta there."""
    return _counted(server.store, lambda: server.handle(
        {"op": "query", "text": text}))


def test_a_worker_reuses_its_masked_view_until_a_foreign_create():
    server = ShardServer(0, 2, schema_text=HOSPITAL_CDL)

    def create(sid, cls, foreign=False, **values):
        server.handle({"op": "create", "cls": cls, "sid": sid,
                       "values": values, "foreign": foreign})

    create(1, "Physician", foreign=True, name="doc")
    for sid in range(2, 402):
        create(sid, "Patient", name=f"p{sid}", age=1 + sid % 50)
    server.handle({"op": "index", "attr": "age"})
    view = server._read_view()
    assert isinstance(view, MaskedSnapshot) and view.memo_ref() is view
    first, delta = _on_shard(server, SEL)
    assert len(first["sids"]) == len(first["cols"][0]) == delta[0] == 8
    assert delta[2] > 0
    for _ in range(3):
        assert _on_shard(server, SEL) == (first, (0, 8, 0))
        assert server._read_view() is view
    create(402, "Physician", foreign=True, name="doc2")
    assert server._read_view() is not view
    assert _on_shard(server, SEL)[1][:2] == (8, 0)
    # The same snapshot under a new foreign set: a new view.
    view = server._read_view()
    server.handle({"op": "set_foreign",
                   "sids": wire.encode_chunks(server.foreign)})
    assert server._read_view() is not view
    assert _on_shard(server, SEL)[1][:2] == (8, 0)
    # A scope reads the live store, through a masked view nobody keeps.
    server.handle({"op": "ping", "begin": True})
    inside = server._read_view()
    assert inside.memo_ref is None and server._read_view() is not inside
    assert _on_shard(server, SEL) == (first, (8, 0, delta[2]))
    server.handle({"op": "scope", "action": "abort"})
    server.close()


def test_a_masked_view_gathers_a_masked_class_once():
    """With a foreign replica present, a view's first scan of its class
    gathers the class's own rows; a second scan gathers nothing."""
    server = ShardServer(0, 2, schema_text=HOSPITAL_CDL)
    for sid in range(1, 5):
        server.handle({"op": "create", "cls": "Physician", "sid": sid,
                       "values": {"name": f"doc{sid}"}, "foreign": sid == 1})
    view = server._read_view()
    first, delta = _counted(server.store, lambda: view.scan_rows("Physician"))
    assert [row[0].id for row in first] == [2, 3, 4]
    assert delta == (3, 0, 0)
    again, delta = _counted(server.store, lambda: view.scan_rows("Physician"))
    assert delta == (0, 0, 0) and again is first
    server.close()


@pytest.mark.sharded
def test_shard_workers_skip_the_algebra_of_a_repeated_query():
    """Over two worker processes, one of them holding a foreign replica:
    a repeated query gathers and ANDs nothing on either shard until a
    foreign create."""
    sharded = ShardedStore(SCHEMA, 2)
    try:
        sharded.create("Physician", broadcast=True, name="doc")
        sharded.bulk_load([(("Patient",), {"name": f"p{i}", "age": 1 + i % 50})
                           for i in range(400)], check="eager")
        sharded.create_index("age")

        def per_shard(run):
            before = sharded.shard_stats()
            out = run()
            return out, [tuple(after[f"bitset.{name}"] - was[f"bitset.{name}"]
                               for name in _COUNTERS)
                         for was, after in zip(before, sharded.shard_stats())]

        assert any(shard["shard.foreign_replicas"]
                   for shard in sharded.shard_stats())
        (rows, _stats), cold = per_shard(lambda: sharded.query(SEL))
        assert len(rows) == sum(d[0] for d in cold) == 8
        assert sum(d[2] for d in cold) > 0
        for _ in range(2):
            again, hot = per_shard(lambda: sharded.query(SEL))
            assert again[0] == rows
            assert hot == [(0, d[0], 0) for d in cold]
        sharded.create("Physician", broadcast=True, name="doc2")
        _out, after = per_shard(lambda: sharded.query(SEL))
        assert [d[:2] for d in after] == [(d[0], 0) for d in cold]
    finally:
        sharded.close()


# ----------------------------------------------------------------------
# The memo over three bitset chunks
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_visit_memo_over_three_bitset_chunks():
    """Two foreign masks over one snapshot that differ only in the third
    bitset chunk give one plan two visit sets with equal first and
    second chunk words: each view's first run must gather its own rows,
    and a memo keyed on the column table (shared by both masks and the
    snapshot) instead of the view is caught."""
    store = _patients(9_000)
    snap = store.snapshot()
    plan = plan_query(SEL, snap)
    masks = [MaskedSnapshot(snap, SurrogateSet.from_ids([sid]))
             for sid in (8_207, 8_257)]        # both 7, both in chunk 2

    def claim():
        for view in masks + masks:
            got, delta = _counted(store, lambda: execute_plan(plan, view))
            assert got == reference_execute_plan(plan, view)
            assert delta[:2] == (179, 0)
        assert _counted(store, lambda: execute_plan(plan, masks[1]))[1] == (
            0, 179, 0)

    claim()
    with pytest.MonkeyPatch.context() as patch:
        _keys(MaskedSnapshot, lambda self: self._snap._objects)(patch)
        masks = [MaskedSnapshot(snap, mask._foreign) for mask in masks]
        with pytest.raises(AssertionError):
            claim()
