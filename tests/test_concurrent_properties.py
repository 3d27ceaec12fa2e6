"""Concurrent serving properties: interleavings and torn-read freedom.

Two families of evidence that one :class:`~repro.objects.store.
ObjectStore` serves the same semantics under threads -- writes through
its pipeline lock, reads through ``snapshot(wait=False)``:

* **Interleaving equivalence** (Hypothesis): a random command sequence
  applied to a plain single-threaded store and the same sequence
  applied to a store while N reader threads hammer
  ``snapshot(wait=False)`` the whole time accepts/rejects identically
  and leaves identical final state.
* **No torn reads**: every snapshot a reader ever obtains is internally
  consistent (extents closed under IS-A, every extent member resolvable)
  and transaction-atomic (a reader can never see one half of a
  two-write transaction).

Counters are deliberately outside every digest here: reader threads tick
shared monotone counters (snapshot builds, plan hits) without holding
the write lock, so they are racy by design; state is not.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConformanceError
from repro.net.replication import LocalShipSource, Replica
from repro.objects import CheckMode, ObjectStore
from repro.objects.transactions import transaction
from repro.query import compile_query
from repro.scenarios import build_hospital_schema
from repro.storage.recovery import open_store
from repro.typesys import EnumSymbol
from repro.typesys.values import is_entity

from tests.faultfs import MemFS
from tests.reference_query import reference_execute

pytestmark = pytest.mark.concurrent

#: Seconds a call that must return at once may take before the test
#: fails (instead of hanging on a lock it should not have waited for).
TIMEOUT = 10.0

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
        """Run one op against ``target``; True=accepted."""
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


def _reader(store, stop, errors):
    try:
        while not stop.is_set():
            snap = store.snapshot(wait=False)
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
    store = threaded.store

    stop = threading.Event()
    errors: list = []
    readers = [threading.Thread(target=_reader, args=(store, stop, errors))
               for _ in range(3)]
    for t in readers:
        t.start()
    try:
        removed = set()
        for op in ops:
            if op[1] in removed:
                continue
            verdict_solo = solo.apply(solo.store, op)
            verdict_threaded = threaded.apply(store, op)
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
    final = store.snapshot()
    assert final.epoch == threaded.store._epoch
    assert len(final) == len(threaded.store)


def test_no_torn_transaction_reads():
    """Readers never observe one half of a two-write transaction.

    The writer keeps (age, name) in lockstep -- name is always
    ``f"v{age}"`` -- inside transactions; any snapshot that sees the
    pair out of step proves a torn read.
    """
    world = _World()
    store = world.store
    patient = world.patients[0]

    stop = threading.Event()
    errors: list = []

    def reader():
        try:
            while not stop.is_set():
                snap = store.snapshot(wait=False)
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
            with store.transaction():
                store.set_value(patient, "age", age)
                store.set_value(patient, "name", f"v{age}")
    finally:
        stop.set()
        for t in readers:
            t.join()
    assert not errors, errors[0]
    final = store.snapshot().get(patient.surrogate)
    assert final.get_value("name") == f"v{final.get_value('age')}"


def test_interleaved_writers_serialize():
    """Two writer threads hammering the same store serialize through the
    pipeline lock: every accepted create lands, state stays consistent."""
    world = _World()
    store = world.store
    per_thread = 50
    errors: list = []

    def writer(tag):
        try:
            for i in range(per_thread):
                store.create("Patient", name=f"{tag}{i}", age=30)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(tag,))
               for tag in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]
    snap = store.snapshot()
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


def test_stats_gauges_come_from_one_epoch():
    """Readers call ``stats()`` while a writer commits: every dict's
    gauges are one committed epoch's, and a reader's counters (read
    live) never go backwards."""
    store = ObjectStore(SCHEMA, check_mode=CheckMode.DEFERRED)
    address = store.create("Address", city="Zurich")
    store.set_value(address, "country", EnumSymbol("Switzerland"))
    swiss = store.create("Hospital", location=address)
    tb = store.create("Tubercular_Patient", name="t", age=40)
    gauges = ("objects", "extent_entries", "dirty_objects", "virtual_refs",
              "indexes")

    def gauges_of(stats):
        return tuple(stats[name] for name in gauges)

    committed = {gauges_of(store.stats())}
    stop = threading.Event()
    seen: list = []
    errors: list = []

    def reader():
        mine = []
        try:
            while not stop.is_set():
                mine.append(store.snapshot(wait=False).stats())
        except BaseException as exc:
            errors.append(exc)
        seen.append(mine)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for t in readers:
        t.start()
    try:
        person = None
        for i in range(150):
            step = i % 6
            if step == 0:
                person = store.create("Person", name=f"p{i}", age=30)
            elif step == 1:
                store.classify(person, "Patient")
            elif step == 2:
                if "age" in store.indexes:
                    store.drop_index("age")
                else:
                    store.create_index("age")
            elif step == 3:
                store.set_value(tb, "treatedAt", swiss)
            elif step == 4:
                store.unset_value(tb, "treatedAt")
            else:
                store.validate_dirty()
            committed.add(gauges_of(store.stats()))
    finally:
        stop.set()
        for t in readers:
            t.join()
    assert not errors, errors[0]
    assert len(committed) > 100
    for mine in seen:
        assert mine
        for stats in mine:
            assert gauges_of(stats) in committed, stats
        for name in ("writes", "classifies", "snapshots_built"):
            series = [stats[name] for stats in mine]
            assert series == sorted(series), name


# ----------------------------------------------------------------------
# snapshot(): a current cache is read without the lock; wait=False
# serves the previous epoch while another thread holds it
# ----------------------------------------------------------------------

def _call(fn):
    """Run ``fn`` on a daemon thread: ``(thread, result list)``."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    return thread, out


def _at_once(fn):
    thread, out = _call(fn)
    thread.join(TIMEOUT)
    assert not thread.is_alive(), "blocked on the write lock"
    return out[0]


def test_a_reader_is_served_while_another_thread_holds_the_lock():
    store = ObjectStore(SCHEMA)
    person = store.create("Person", name="a", age=30)
    first = store.snapshot()
    held, write, moved, release = (threading.Event() for _ in range(4))

    def writer():
        with store._write_lock:
            held.set()
            write.wait(TIMEOUT)
            store.set_value(person, "age", 44)
            moved.set()
            release.wait(TIMEOUT)

    holder = threading.Thread(target=writer, daemon=True)
    holder.start()
    try:
        assert held.wait(TIMEOUT)
        # Current cache: no lock taken, in either mode.
        assert _at_once(store.snapshot) is first
        assert _at_once(lambda: store.snapshot(wait=False)) is first
        write.set()
        assert moved.wait(TIMEOUT)
        # The epoch moved under the held lock: wait=False gets the
        # previous epoch at once, a waiting reader blocks until release.
        assert _at_once(lambda: store.snapshot(wait=False)) is first
        waiting, out = _call(store.snapshot)
        waiting.join(0.2)
        assert waiting.is_alive() and not out
    finally:
        write.set()
        release.set()
        holder.join(TIMEOUT)
    waiting.join(TIMEOUT)
    assert not waiting.is_alive()
    fresh = out[0]
    assert fresh.epoch == store._epoch > first.epoch
    assert fresh.get(person.surrogate).get_value("age") == 44
    assert first.get(person.surrogate).get_value("age") == 30


def test_replica_readers_never_see_part_of_a_shipped_transaction():
    """``Replica._apply_record`` replays a ``txn`` record as one step
    under the write lock; ``read_view`` readers (on the lock-free path
    whenever the cache is current) see it all or not at all."""
    primary = open_store("/primary", SCHEMA, durability="wal", fs=MemFS())
    patient = primary.create("Patient", name="p0", age=40)
    replica = Replica(LocalShipSource(primary))
    stop = threading.Event()
    errors: list = []
    views = [0]

    def reader():
        try:
            while not stop.is_set():
                snap, _seq = replica.read_view()
                row = snap.get(patient.surrogate)
                age, name = row.get_value("age"), row.get_value("name")
                assert name == "p0" or name == f"v{age}", (age, name)
                views[0] += 1
        except BaseException as exc:
            errors.append(exc)

    readers = [threading.Thread(target=reader, daemon=True)
               for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    for t in readers:
        t.start()
    try:
        for i in range(150):
            age = 20 + (i % 80)
            with transaction(primary):
                primary.set_value(patient, "age", age)
                primary.set_value(patient, "name", f"v{age}")
            replica.sync()
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        for t in readers:
            t.join(TIMEOUT)
    assert not errors, errors[0]
    assert not any(t.is_alive() for t in readers)
    assert views[0] > 0
    assert replica.store.get(patient.surrogate).get_value("name") == "v89"


@pytest.mark.parametrize("wait", [False, True])
def test_a_checkpoint_only_reopen_serves_its_population(tmp_path, wait):
    # A checkpoint install does not move the epoch: the reopened store
    # is at epoch 0 with objects in it, so no cache may read as current
    # before the first capture.
    directory = str(tmp_path / "db")
    store = ObjectStore.open(directory, SCHEMA)
    for i in range(5):
        store.create("Patient", name=f"p{i}", age=30 + i)
    store.checkpoint()
    store.close()
    again = ObjectStore.open(directory)
    assert again._epoch == 0 and len(again) == 5
    first = _at_once(lambda: again.snapshot(wait=wait))
    assert first.count("Patient") == 5
    assert _at_once(lambda: again.snapshot(wait=not wait)) is first
    again.close()


# ----------------------------------------------------------------------
# One cached plan across bulk batches: a batch changes postings, not the
# physical design
# ----------------------------------------------------------------------

def test_one_cached_plan_serves_readers_across_bulk_batches():
    """Readers re-run one text on their own snapshots while a writer
    bulk-loads and removes batches.  Every answer is the reference scan
    of the reader's snapshot, and the text is planned exactly once."""
    store = ObjectStore(SCHEMA)
    store.create_index("age")
    text = "for p in Patient where p.age = 30 select p.name"
    compiled = compile_query(text, SCHEMA)
    qstats = store.indexes.qstats
    misses = qstats.plan_misses
    design = store.indexes.version
    assert store.run_query(text)[0] == []
    stop = threading.Event()
    errors: list = []
    runs: list = []

    def reader():
        try:
            while not stop.is_set():
                snap = store.snapshot(wait=False)
                rows, _stats = snap.run_query(text)
                assert rows == reference_execute(compiled, snap)[0]
                runs.append(len(rows))
        except BaseException as exc:
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for t in readers:
        t.start()
    try:
        for i in range(40):
            report = store.bulk_load(
                [{"class": "Patient", "name": f"b{i}.{j}", "age": 30 + j % 3}
                 for j in range(8)], check="eager")
            with store.transaction():
                for obj in report.instances[::2]:
                    store.remove(obj)
    finally:
        stop.set()
        for t in readers:
            t.join()
    assert not errors, errors[0]
    assert runs and store.run_query(text)[0] == reference_execute(
        compiled, store.snapshot())[0]
    assert store.indexes.version == design
    assert qstats.plan_misses == misses + 1
