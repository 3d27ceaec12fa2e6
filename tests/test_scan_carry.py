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

A plan's index visit rows are memoised by the same rule
(:meth:`repro.columnar.FrozenColumns.visit`): its memo slot is reused
only for the same captured table (by weak reference) and equal visit
bits.  Runs of one plan on one snapshot gather once; a committed write,
another store, other bits or the live store gather again -- each with
exact counter deltas, against ``tests/reference_query.py``.  Three
mutants, installed over named hooks, are killed; six threads share one
cached plan while a writer commits (``concurrent``); two visit sets that
differ only in their third bitset chunk are told apart (``slow``).
"""

from __future__ import annotations

import inspect
import random
import sys
import textwrap
import threading
import time

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro import columnar
from repro.columnar import FrozenColumns, SurrogateSet
from repro.errors import ObjectError, SchemaError
from repro.objects import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.query.planner import execute_plan, plan_query
from repro.schema.classdef import ClassDef
from repro.sharding.worker import MaskedSnapshot
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
# A plan's visit memo
# ----------------------------------------------------------------------

#: A proven equality: its visit set is exactly the answer rows.
SEL = "for p in Patient where p.age = 7 select p.name"
#: Patient ``i`` (sid ``i + 1``) is ``1 + i % 50`` years old.
AGED_7 = 7


def _patients(n: int) -> ObjectStore:
    store = ObjectStore(SCHEMA)
    store.bulk_load([(("Patient",), {"name": f"p{i}", "age": 1 + i % 50})
                     for i in range(n)], check="eager")
    store.create_index("age")
    return store


def _counted(store, run):
    """``run()`` and its ``(rows_gathered, rows_carried)`` delta."""
    before = store.stats()
    out = run()
    after = store.stats()
    return out, tuple(after[f"bitset.{name}"] - before[f"bitset.{name}"]
                      for name in ("rows_gathered", "rows_carried"))


def _aged_7(view) -> list:
    """The cold reading of ``SEL``'s visit rows: each extent member's
    captured row whose age is 7."""
    rows = (view._objects.get(s.id) for s in view.extent_surrogates("Patient"))
    return [row for row in rows if row[2].get("age") == 7]


def _run(plan, view):
    """One run, which must equal the reference on ``view``; returns the
    rows, the counter delta and the rows the memo holds."""
    got, delta = _counted(view, lambda: execute_plan(plan, view))
    assert got == reference_execute_plan(plan, view)
    held = plan.executor._bindings["_memo"][0]
    return got[0], delta, held[2] if held else None


def check_runs_on_one_snapshot_gather_once() -> None:
    store = _patients(2_000)
    snap = store.snapshot()
    plan = plan_query(SEL, snap)
    rows, delta, held = _run(plan, snap)
    assert (len(rows), delta) == (40, (40, 0))
    for _ in range(4):
        again, delta, still = _run(plan, snap)
        assert (again, delta) == (rows, (0, 40)) and still is held


def check_a_committed_write_regathers() -> None:
    store = _patients(2_000)
    plan = plan_query(SEL, store.snapshot())
    _run(plan, store.snapshot())
    renamed = store.get(Surrogate(AGED_7))
    writes = [
        # The bits stay equal: only the table's identity tells.
        lambda: store.set_value(renamed, "name", "renamed"),
        lambda: store.set_value(store.get(Surrogate(AGED_7 + 50)), "age", 8),
        lambda: store.set_value(store.get(Surrogate(1)), "age", 7),
    ]
    for count, write in zip((40, 39, 40), writes):
        write()
        snap = store.snapshot()
        rows, delta, held = _run(plan, snap)
        assert delta == (count, 0)
        cold = _aged_7(snap)
        assert len(held) == count and all(a is b for a, b in zip(held, cold))
        assert ("renamed",) in rows
        assert _run(plan, snap)[1] == (0, count)


def check_the_live_store_reuses_nothing() -> None:
    store = _patients(2_000)
    store.snapshot()        # so the next write replaces the row's dicts
    plan = plan_query(SEL, store)
    rows, delta, held = _run(plan, store)
    assert (delta, held) == ((40, 0), None)
    store.set_value(store.get(Surrogate(AGED_7)), "name", "renamed")
    again, delta, held = _run(plan, store)
    assert (delta, held) == ((40, 0), None)
    assert again == [("renamed",)] + rows[1:]


def check_one_plan_on_two_stores_shares_no_rows() -> None:
    one, two = _patients(2_000), _patients(2_000)
    two.set_value(two.get(Surrogate(AGED_7)), "name", "only in two")
    plan = plan_query(SEL, one.snapshot())
    for store in (one, two, one, two):
        snap = store.snapshot()
        rows, delta, held = _run(plan, snap)
        assert delta == (40, 0)
        assert all(a is b for a, b in zip(held, _aged_7(snap)))
        assert (rows[0] == ("only in two",)) == (store is two)


def check_a_memo_follows_the_visit_bits() -> None:
    store = _patients(2_000)
    snap = store.snapshot()
    memo = [None]
    a = SurrogateSet.from_ids(range(1, 2_000, 7))
    b = SurrogateSet.from_ids([*range(1, 1_994, 7), 1_995])
    assert len(a) == len(b) and a != b
    # a again after b: the slot holds b's rows by then.
    for visit, reused in ((a, False), (b, False), (b, True), (a, False)):
        want = [snap._objects.get(sid) for sid in visit.ids()]
        rows, delta = _counted(store, lambda: snap.visit_rows(visit, memo))
        assert len(rows) == len(want) and all(
            x is y for x, y in zip(rows, want))
        assert delta == ((0, len(want)) if reused else (len(want), 0))


_MEMO_CLAIMS = (
    check_runs_on_one_snapshot_gather_once,
    check_a_committed_write_regathers,
    check_the_live_store_reuses_nothing,
    check_one_plan_on_two_stores_shares_no_rows,
    check_a_memo_follows_the_visit_bits,
)


@pytest.mark.parametrize("claim", _MEMO_CLAIMS,
                         ids=lambda claim: claim.__name__[6:])
def test_visit_memo(claim):
    claim()


# Mutants of the memo, each installed over a named hook.

def _without_identity(self, held, bits):
    return held[1] == bits


def _without_bits(self, held, bits):
    return held[0]() is self


def _live_memo(self, surrogates, memo=None):
    return self._columns.visit(surrogates, memo, self.bitset_stats)


def _memo_mutant_killed(owner, hook: str, mutant) -> bool:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, hook, mutant)
        for claim in _MEMO_CLAIMS:
            try:
                claim()
            except AssertionError:
                return True
    return False


def test_mutant_memo_without_the_identity_check_is_killed():
    assert _memo_mutant_killed(FrozenColumns, "_holds", _without_identity)


def test_mutant_memo_without_the_bits_check_is_killed():
    assert _memo_mutant_killed(FrozenColumns, "_holds", _without_bits)


def test_mutant_memo_honoured_on_the_live_store_is_killed():
    assert _memo_mutant_killed(ObjectStore, "visit_rows", _live_memo)


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

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader) for _ in range(6)]
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
    assert len(epochs) > 1
    # One plan served every run.
    assert store.indexes.qstats.plan_misses == misses
    assert plan_query(SEL, store.snapshot()) is shared


def _first_chunk_only(self, held, bits):
    return held[0]() is self and held[1].get(0) == bits.get(0)


@pytest.mark.slow
def test_visit_memo_over_three_bitset_chunks():
    """Two foreign masks over one snapshot that differ only in the third
    bitset chunk give one plan two visit sets with equal first and
    second chunk words: each run must gather its own rows, and a compare
    of the first chunk alone is caught."""
    store = _patients(9_000)
    snap = store.snapshot()
    plan = plan_query(SEL, snap)
    masks = [MaskedSnapshot(snap, SurrogateSet.from_ids([sid]))
             for sid in (8_207, 8_257)]        # both 7, both in chunk 2

    def claim():
        for view in masks + masks:
            (rows, _), delta = _counted(store, lambda: execute_plan(plan, view))
            assert (rows, _) == reference_execute_plan(plan, view)
            assert delta == (179, 0)
        assert _counted(store, lambda: execute_plan(plan, masks[1]))[1] == (
            0, 179)

    claim()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FrozenColumns, "_holds", _first_chunk_only)
        with pytest.raises(AssertionError):
            claim()
