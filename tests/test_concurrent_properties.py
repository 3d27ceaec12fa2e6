"""Concurrent serving properties: interleavings and torn-read freedom.

Two families of evidence that :class:`~repro.objects.concurrent.
ConcurrentStore` serves the same store semantics under threads:

* **Interleaving equivalence** (Hypothesis): a random command sequence
  applied directly to a plain single-threaded store and the same
  sequence applied through the facade -- while N reader threads hammer
  ``snapshot()`` the whole time -- accepts/rejects identically and
  leaves identical final state.
* **No torn reads**: every snapshot a reader ever obtains is internally
  consistent (extents closed under IS-A, every extent member resolvable)
  and transaction-atomic (a reader can never see one half of a
  two-write transaction).

Counters are deliberately outside every digest here: reader threads tick
shared monotone counters (snapshot builds, plan hits) without holding
the write lock, so they are racy by design; state is not.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConformanceError
from repro.objects import ConcurrentStore, ObjectStore
from repro.scenarios import build_hospital_schema
from repro.typesys import EnumSymbol
from repro.typesys.values import is_entity

pytestmark = pytest.mark.concurrent

SCHEMA = build_hospital_schema()

EXTRA_CLASSES = (
    "Alcoholic", "Ambulatory_Patient", "Renal_Failure_Patient",
    "Cancer_Patient",
)
SET_CHOICES = (
    ("age", 30), ("age", 55), ("age", 200),          # 200 violates 1..120
    ("bloodPressure", "Normal_BP"),
    ("bloodPressure", "High_BP"),
    ("ward", "ward"),
)
UNSET_CHOICES = ("ward", "bloodPressure", "age")
CHECKED_CLASSES = ("Person", "Patient", "Ward", "Physician")
N_PATIENTS = 3


class _World:
    """One populated store plus the op vocabulary (see
    tests/test_incremental_properties.py for the richer original)."""

    def __init__(self) -> None:
        self.store = ObjectStore(SCHEMA)
        store = self.store
        self.ward = store.create("Ward", floor=3, name="W1")
        self.physician = store.create("Physician", name="Dr. F", age=50,
                                      specialty=EnumSymbol("General"))
        self.patients = [
            store.create("Patient", name=f"p{i}", age=40,
                         treatedBy=self.physician)
            for i in range(N_PATIENTS)
        ]

    def value(self, key):
        if isinstance(key, int):
            return key
        if key == "ward":
            return self.ward
        return EnumSymbol(key)

    def apply(self, target, op) -> bool:
        """Run one op against ``target`` (store or facade); True=accepted."""
        kind, idx = op[0], op[1]
        patient = self.patients[idx]
        try:
            if kind == "set":
                target.set_value(patient, op[2], self.value(op[3]))
            elif kind == "unset":
                target.unset_value(patient, op[2])
            elif kind == "classify":
                target.classify(patient, op[2])
            elif kind == "declassify":
                target.declassify(patient, op[2])
            elif kind == "remove":
                target.remove(patient)
            return True
        except ConformanceError:
            return False

    def state(self):
        """Thread-independent digest: every live object's memberships and
        values (no counters -- see module docstring)."""
        out = {}
        for obj in self.store.instances():
            values = {}
            for name in obj.value_names():
                value = obj.get_value(name)
                values[name] = (
                    ("ref", value.surrogate) if is_entity(value) else value)
            out[obj.surrogate] = (obj.memberships, values)
        extents = {name: frozenset(members)
                   for name, members in self.store._extents.items()
                   if members}
        return out, extents


def _check_snapshot_consistency(snap):
    """A torn capture would violate one of these: every extent member
    resolves to a row whose memberships justify the extent."""
    for class_name in CHECKED_CLASSES:
        for row in snap.extent(class_name):
            assert snap.is_member(row, class_name), (
                class_name, row.surrogate)
        assert snap.count(class_name) == len(snap.extent(class_name))


def _reader(shared, stop, errors):
    try:
        while not stop.is_set():
            snap = shared.snapshot()
            _check_snapshot_consistency(snap)
    except BaseException as exc:          # surfaced by the main thread
        errors.append(exc)


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(SET_CHOICES)).map(
                      lambda t: ("set", t[1], t[2][0], t[2][1])),
        st.tuples(st.just("unset"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(UNSET_CHOICES)),
        st.tuples(st.just("classify"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(EXTRA_CLASSES)),
        st.tuples(st.just("declassify"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(EXTRA_CLASSES)),
        st.tuples(st.just("remove"), st.integers(0, N_PATIENTS - 1)),
    ),
    min_size=1, max_size=15,
)


@settings(max_examples=25, deadline=None)
@given(_ops)
def test_facade_with_readers_equals_single_thread(ops):
    solo = _World()
    threaded = _World()
    shared = ConcurrentStore(threaded.store)

    stop = threading.Event()
    errors: list = []
    readers = [threading.Thread(target=_reader, args=(shared, stop, errors))
               for _ in range(3)]
    for t in readers:
        t.start()
    try:
        removed = set()
        for op in ops:
            if op[1] in removed:
                continue
            verdict_solo = solo.apply(solo.store, op)
            verdict_threaded = threaded.apply(shared, op)
            assert verdict_solo == verdict_threaded, (op, verdict_solo)
            if op[0] == "remove" and verdict_solo:
                removed.add(op[1])
    finally:
        stop.set()
        for t in readers:
            t.join()
    assert not errors, errors[0]
    assert solo.state() == threaded.state()
    # The final snapshot converges on the final committed state.
    final = shared.snapshot(wait=True)
    assert final.epoch == threaded.store._epoch
    assert len(final) == len(threaded.store)


def test_no_torn_transaction_reads():
    """Readers never observe one half of a two-write transaction.

    The writer keeps (age, name) in lockstep -- name is always
    ``f"v{age}"`` -- inside transactions; any snapshot that sees the
    pair out of step proves a torn read.
    """
    world = _World()
    shared = ConcurrentStore(world.store)
    patient = world.patients[0]

    stop = threading.Event()
    errors: list = []

    def reader():
        try:
            while not stop.is_set():
                snap = shared.snapshot()
                row = snap.get(patient.surrogate)
                age = row.get_value("age")
                name = row.get_value("name")
                assert name == f"p0" or name == f"v{age}", (age, name)
                _check_snapshot_consistency(snap)
        except BaseException as exc:
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for t in readers:
        t.start()
    try:
        for i in range(200):
            age = 20 + (i % 80)
            with shared.transaction():
                shared.set_value(patient, "age", age)
                shared.set_value(patient, "name", f"v{age}")
    finally:
        stop.set()
        for t in readers:
            t.join()
    assert not errors, errors[0]
    final = shared.snapshot(wait=True).get(patient.surrogate)
    assert final.get_value("name") == f"v{final.get_value('age')}"


def test_interleaved_writers_serialize():
    """Two writer threads hammering the same facade serialize through the
    pipeline lock: every accepted create lands, state stays consistent."""
    world = _World()
    shared = ConcurrentStore(world.store)
    per_thread = 50
    errors: list = []

    def writer(tag):
        try:
            for i in range(per_thread):
                shared.create("Patient", name=f"{tag}{i}", age=30)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(tag,))
               for tag in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]
    snap = shared.snapshot(wait=True)
    assert snap.count("Patient") == N_PATIENTS + 2 * per_thread
    _check_snapshot_consistency(snap)


def test_readers_race_to_build_one_snapshots_row_lists():
    """A snapshot's lazily built query rows (``scan_rows``) and wrappers
    are shared by every reader thread: racing first queries against one
    fresh snapshot must all see the single-threaded answer, and end up
    holding the same row list and the same wrapper per object."""
    import sys

    from repro.scenarios import populate_hospital

    store = populate_hospital(schema=SCHEMA, n_patients=300, seed=9).store
    queries = ("for p in Patient where p.age > 40 select p, p.name",
               "for p in Person select count, max p.age",
               "for p in Patient where p in Alcoholic select p.treatedBy")
    expected = [store.snapshot().run_query(q)[0] for q in queries]
    results, errors = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_no in range(5):
            store.set_value(store.extent("Patient")[0], "age",
                            41 + round_no)
            expected[0] = None      # the write moved it; threads agree
            snap = store.snapshot()
            barrier = threading.Barrier(6)

            def reader():
                try:
                    barrier.wait(timeout=10)
                    results.append((snap, [snap.run_query(q)[0]
                                           for q in queries],
                                    snap.scan_rows("Patient")))
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]
    assert len(results) == 30
    first = {}
    for snap, rows, row_list in results:
        leader = first.setdefault(id(snap), (rows, row_list))
        assert rows == leader[0]
        assert rows[1:] == expected[1:]
        assert row_list is leader[1]
        # `select p` handed out the snapshot's one wrapper per object.
        assert all(a[0] is b[0] for a, b in zip(rows[0], leader[0][0]))
