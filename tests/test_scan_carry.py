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
  ``bitset.rows_carried`` deltas on a 10,000-patient store.
* **Threads** (``concurrent``): readers scan snapshot *k* while the
  writer commits and other readers build *k+1* from *k*'s table.
* **Three bitset chunks** (``slow``): the same trace over 8,200+
  objects, so unchanged and changed chunk words both occur.
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
from repro.columnar import FrozenColumns
from repro.errors import ObjectError, SchemaError
from repro.objects import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.schema.classdef import ClassDef
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


# ----------------------------------------------------------------------
# Three bitset chunks
# ----------------------------------------------------------------------

@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(filler=st.sampled_from((8_188, 8_200)),
       ops=st.lists(_step, max_size=10))
def test_carried_scan_rows_over_three_bitset_chunks(filler, ops):
    check_trace(filler, ops)
