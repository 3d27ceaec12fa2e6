"""The bulk-ingestion pipeline: staging, profile compilation, deferred
maintenance, and all-or-nothing rollback.

The acceptance-critical invariant lives in ``TestAtomicity``: a batch
that fails mid-commit must leave *every* observable piece of store state
-- objects, extents, secondary-index postings, the dirty ledger, virtual
refcounts, the surrogate allocator and the stats counters -- identical
to the pre-batch state.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConformanceError, ReproError, UnknownClassError
from repro.objects import BulkSession, ConcurrentStore, ObjectStore
from repro.objects.store import CheckMode
from repro.typesys import EnumSymbol
from repro.typesys.values import is_entity


def _digest(store):
    """Every piece of store state a batch is allowed to change -- used to
    prove failed batches change none of it."""
    objects = {}
    for obj in store.instances():
        values = {}
        for name in obj.value_names():
            value = obj.get_value(name)
            values[name] = (("ref", value.surrogate) if is_entity(value)
                            else value)
        objects[obj.surrogate] = (obj.memberships, values)
    postings = {}
    for attribute in store.indexes.attributes():
        index = store.indexes.get(attribute)
        postings[attribute] = (
            {repr(value): frozenset(members)
             for value, members in index._buckets.items()},
            frozenset(index.inapplicable), frozenset(index.residue))
    return {
        "objects": objects,
        "extents": {name: frozenset(members)
                    for name, members in store._extents.items()
                    if members},
        "dirty": {surrogate: (None if attrs is None else frozenset(attrs))
                  for surrogate, attrs in store._dirty.items()},
        "virtual_refs": dict(store._virtual_refs),
        "allocator": store._allocator._next,
        "postings": postings,
        # The MVCC read-side counters tick on every stats()/snapshot()
        # call -- including this digest's own -- and the bitset.* counters
        # tick on the physical copy-on-write work a failed batch performs
        # and then rolls back, so both are observability of *work*, not
        # state a batch changes.
        "stats": {k: v for k, v in store.stats().items()
                  if k not in ("snapshots_built", "snapshot_reuses")
                  and not k.startswith("bitset.")},
    }


def _patient_rows(n, bad_at=None):
    rows = []
    for i in range(n):
        age = 500 if i == bad_at else 30 + (i % 40)
        rows.append({"class": "Patient", "name": f"p{i}", "age": age})
    return rows


class TestBasics:

    def test_deferred_bulk_load(self, hospital_store):
        report = hospital_store.bulk_load(_patient_rows(10))
        assert report.objects == 10
        assert report.fast_objects == 10
        assert report.fallback_objects == 0
        assert report.profiles == 1
        assert hospital_store.count("Patient") == 10
        assert hospital_store.count("Person") == 10  # IS-A closure
        # Deferred rows are dirty until validated.
        assert len(hospital_store._dirty) == 10
        assert hospital_store.validate_dirty() == []
        assert not hospital_store._dirty

    def test_eager_bulk_load_is_clean(self, hospital_store):
        hospital_store.bulk_load(_patient_rows(5), check="eager")
        assert hospital_store.count("Patient") == 5
        assert not hospital_store._dirty

    def test_rows_as_tuples_and_multi_class(self, hospital_store):
        report = hospital_store.bulk_load([
            (("Patient", "Alcoholic"), {"name": "al", "age": 40}),
            ("Ward", {"floor": 2, "name": "W2"}),
        ], check="eager")
        assert report.objects == 2
        patient = report.instances[0]
        assert hospital_store.is_member(patient, "Alcoholic")
        assert hospital_store.is_member(patient, "Patient")
        assert hospital_store.count("Ward") == 1

    def test_session_returns_instances_for_cross_references(
            self, hospital_store):
        with hospital_store.bulk_session(check="eager") as session:
            addr = session.add("Address", street="1 Main", city="Trenton",
                               state=EnumSymbol("NJ"))
            hospital = session.add(
                "Hospital", location=addr,
                accreditation=EnumSymbol("Federal"))
            doc = session.add("Physician", name="Dr. F", age=50,
                              affiliatedWith=hospital,
                              specialty=EnumSymbol("General"))
            session.add("Patient", name="p", age=30, treatedBy=doc)
        report = session.report
        assert report.objects == 4
        assert report.fallback_objects == 0
        patient = report.instances[3]
        assert hospital_store.get(patient.surrogate) is patient
        assert patient.get_value("treatedBy") is report.instances[2]

    def test_counters_and_report(self, hospital_store):
        stats = hospital_store.checker.stats
        hospital_store.bulk_load(_patient_rows(7), check="eager")
        assert stats.bulk_loads == 1
        assert stats.bulk_objects == 7
        assert stats.bulk_fallbacks == 0
        assert stats.profiles_compiled == 1
        assert stats.compiled_checks == 7
        # Mutation counters advance exactly as sequential writes would:
        # two values per patient row, no extra classifications.
        assert stats.writes == 14
        assert stats.classifies == 0

    def test_index_postings_and_single_version_bump(self, hospital_store):
        hospital_store.create_index("age")
        version = hospital_store.indexes.version
        hospital_store.bulk_load(_patient_rows(6), check="eager")
        assert hospital_store.indexes.version == version + 1
        index = hospital_store.indexes.get("age")
        assert len(index) == 6
        assert index.lookup(30)  # p0's age
        # An unset indexed attribute lands on the INAPPLICABLE posting,
        # exactly as the incremental hooks would leave it.
        hospital_store.bulk_load([("Ward", {"floor": 1, "name": "W"})])
        ward = hospital_store.extent("Ward")[0]
        assert ward.surrogate in index.inapplicable


class TestValidation:

    def test_eager_rejects_bad_value(self, hospital_store):
        with pytest.raises(ConformanceError):
            hospital_store.bulk_load(
                _patient_rows(10, bad_at=4), check="eager")
        assert len(hospital_store) == 0

    def test_eager_blames_earliest_staged_violator(self, hospital_store):
        rows = _patient_rows(20)
        rows[3]["age"] = 700
        rows[11]["age"] = 900
        with pytest.raises(ConformanceError) as excinfo:
            hospital_store.bulk_load(rows, check="eager")
        assert excinfo.value.attribute == "age"

    def test_eager_rejects_inapplicable_attribute(self, hospital_store):
        with pytest.raises(ConformanceError):
            hospital_store.bulk_load(
                [{"class": "Ward", "floor": 1, "name": "W",
                  "age": 9}],
                check="eager")

    def test_deferred_admits_then_surfaces_violation(self, hospital_store):
        hospital_store.bulk_load(_patient_rows(5, bad_at=2))
        assert hospital_store.count("Patient") == 5
        problems = hospital_store.validate_dirty()
        assert len(problems) == 1
        obj, violation = problems[0]
        assert obj.get_value("age") == 500
        assert violation.attribute == "age"

    def test_unknown_class_rejected_at_staging(self, hospital_store):
        with pytest.raises(UnknownClassError):
            with hospital_store.bulk_session() as session:
                session.add("Spaceship", name="x")
        assert len(hospital_store) == 0

    def test_interpreted_fallback_for_virtual_profiles(
            self, hospital_store):
        """A row whose values anchor a virtual class routes through the
        per-object path; virtual extents end up maintained as usual."""
        with hospital_store.bulk_session(check="eager") as session:
            addr = session.add("Address", street="Bergweg 1",
                               city="Zurich")
            session.add_row({"class": "Address", "street": "2 Main",
                             "city": "Trenton", "state": EnumSymbol("NJ")})
            swiss = session.add("Hospital", location=addr)
            session.add(("Patient", "Tubercular_Patient"),
                        name="tb", age=44, treatedAt=swiss)
        report = session.report
        # The tubercular row (treatedAt -> Hospital$1) and the rows it
        # pulls into nonconformance-without-anchor order take the
        # fallback; plain rows stay batched.
        assert report.fallback_objects >= 1
        assert report.fast_objects + report.fallback_objects == 4
        assert hospital_store.count("Hospital$1") == 1
        assert hospital_store.count("Address$1") == 1


class TestAtomicity:

    @pytest.fixture()
    def seeded(self, hospital_schema):
        store = ObjectStore(hospital_schema)
        store.create_index("age")
        store.create_index("name")
        store.create("Patient", name="existing", age=60)
        # A dirty object, so rollback must preserve ledger entries too.
        store.create("Ward", check=CheckMode.DEFERRED, floor=1, name="W")
        # Exercise the query side so its counters are nonzero.
        store.extent("Patient")
        return store

    def test_failed_eager_batch_restores_everything(self, seeded):
        before = _digest(seeded)
        with pytest.raises(ConformanceError):
            seeded.bulk_load(_patient_rows(30, bad_at=17), check="eager")
        assert _digest(seeded) == before

    def test_failed_fallback_row_restores_everything(self, seeded):
        """Failure *after* the fast merge (in a per-object fallback row)
        must still undo the already-merged fast rows."""
        before = _digest(seeded)
        rows = _patient_rows(5)
        rows.append((("Patient", "Tubercular_Patient"),
                     {"name": "tb", "age": 44,
                      "treatedAt": EnumSymbol("not_a_hospital")}))
        with pytest.raises(ReproError):
            seeded.bulk_load(rows, check="eager")
        assert _digest(seeded) == before

    def test_exception_in_body_aborts(self, seeded):
        before = _digest(seeded)
        with pytest.raises(RuntimeError):
            with seeded.bulk_session() as session:
                session.add("Patient", name="p", age=30)
                raise RuntimeError("body failed")
        assert _digest(seeded) == before

    def test_abort_releases_allocated_surrogates(self, seeded):
        before = _digest(seeded)
        session = seeded.bulk_session()
        session.add("Patient", name="p", age=30)
        session.abort()
        assert _digest(seeded) == before
        # The next object reuses the surrogate the aborted row held.
        obj = seeded.create("Patient", name="q", age=31)
        assert obj.surrogate.id == before["allocator"]


class TestSessionProtocol:

    def test_reuse_after_commit_raises(self, hospital_store):
        session = hospital_store.bulk_session()
        session.add("Ward", floor=1, name="W")
        session.commit()
        with pytest.raises(RuntimeError):
            session.add("Ward", floor=2, name="X")
        with pytest.raises(RuntimeError):
            session.commit()

    def test_reuse_after_abort_raises(self, hospital_store):
        session = hospital_store.bulk_session()
        session.abort()
        with pytest.raises(RuntimeError):
            session.add("Ward", floor=1, name="W")

    def test_add_row_key_validation(self, hospital_store):
        with hospital_store.bulk_session() as session:
            with pytest.raises(ValueError):
                session.add_row({"name": "no class key"})
            with pytest.raises(ValueError):
                session.add_row({"class": "Ward", "classes": ("Ward",),
                                 "floor": 1})
            session.add_row({"classes": ("Ward",), "floor": 1, "name": "W"})
        assert hospital_store.count("Ward") == 1

    def test_empty_class_list_rejected(self, hospital_store):
        session = hospital_store.bulk_session()
        with pytest.raises(ValueError):
            session.add(())
        session.abort()

    def test_mode_validation(self, hospital_store):
        with pytest.raises(ValueError):
            BulkSession(hospital_store, check=CheckMode.NONE)
        with pytest.raises(ValueError):
            hospital_store.bulk_load([], check="off")

    def test_bulk_load_rejects_malformed_row(self, hospital_store):
        with pytest.raises(TypeError):
            hospital_store.bulk_load([42])
        assert len(hospital_store) == 0

    def test_empty_batch_is_a_noop(self, hospital_store):
        before = _digest(hospital_store)
        report = hospital_store.bulk_load([])
        assert report.objects == 0
        after = _digest(hospital_store)
        # Stats may count the (empty) load; everything else is untouched.
        before["stats"].pop("bulk_loads", None)
        after["stats"].pop("bulk_loads", None)
        assert before == after


class TestDirtyLedgerRegression:
    """Unchecked writes must mark objects dirty so ``validate_dirty``
    never silently vouches for data nothing ever checked."""

    def test_unchecked_set_value_marks_dirty(self, hospital_store):
        patient = hospital_store.create("Patient", name="p", age=30)
        hospital_store.set_value(patient, "age", 999,
                                 check=CheckMode.NONE)
        assert patient.surrogate in hospital_store._dirty
        problems = hospital_store.validate_dirty()
        assert [(o.surrogate, v.attribute) for o, v in problems] == \
            [(patient.surrogate, "age")]

    def test_unchecked_unset_marks_dirty(self, hospital_store):
        patient = hospital_store.create("Patient", name="p", age=30)
        hospital_store.unset_value(patient, "age", check=CheckMode.NONE)
        assert patient.surrogate in hospital_store._dirty

    def test_unchecked_classify_marks_dirty(self, hospital_store):
        patient = hospital_store.create("Patient", name="p", age=30)
        hospital_store.classify(patient, "Alcoholic",
                                check=CheckMode.NONE)
        assert patient.surrogate in hospital_store._dirty

    def test_deferred_bulk_rows_are_dirty_until_validated(
            self, hospital_store):
        report = hospital_store.bulk_load(_patient_rows(3))
        for obj in report.instances:
            assert obj.surrogate in hospital_store._dirty
        hospital_store.validate_dirty()
        assert not hospital_store._dirty


class TestScopeOpensAtCommit:
    """A session's undo scope opens at commit, under the write lock:
    writes acknowledged while it was staging are never rolled out of
    memory (they are in the WAL; memory and reopen must agree)."""

    def test_failed_commit_keeps_acknowledged_writes(
            self, hospital_schema, tmp_path):
        store = ObjectStore.open(str(tmp_path), hospital_schema,
                                 durability="wal")
        session = store.bulk_session(check="eager")
        session.add("Person", name="ok", age=30)
        kept = store.create("Person", name="acknowledged", age=40)
        session.add("Person", name="bad", age=999)
        with pytest.raises(ConformanceError):
            session.commit()
        assert store.count("Person") == 1
        assert store.get(kept.surrogate) is kept
        # The staged ids straddle an acknowledged one: burned, not
        # handed out again.
        fresh = store.create("Person", name="next", age=41)
        assert fresh.surrogate.id > kept.surrogate.id + 1
        store.close()
        assert ObjectStore.open(str(tmp_path)).count("Person") == 2

    def test_abort_keeps_acknowledged_writes(self, hospital_schema,
                                             tmp_path):
        store = ObjectStore.open(str(tmp_path), hospital_schema,
                                 durability="wal")
        n = store._allocator._next
        session = store.bulk_session()
        session.add("Person", name="staged", age=30)
        session.add("Person", name="staged2", age=31)
        session.abort()
        assert store._allocator._next == n   # nothing else allocated
        session = store.bulk_session()
        session.add("Person", name="staged", age=30)
        store.create("Person", name="acknowledged", age=40)
        session.abort()
        assert store.count("Person") == 1
        store.close()
        assert ObjectStore.open(str(tmp_path)).count("Person") == 1

    def test_failed_commit_keeps_another_threads_write(
            self, hospital_schema):
        shared = ConcurrentStore(ObjectStore(hospital_schema))
        session = shared.bulk_session(check="eager")
        session.add("Person", name="ok", age=30)
        writer = threading.Thread(
            target=lambda: shared.create("Person", name="theirs", age=40))
        writer.start()
        writer.join()
        session.add("Person", name="bad", age=999)
        with pytest.raises(ConformanceError):
            session.commit()
        assert shared.snapshot(wait=True).count("Person") == 1
        assert [p.get_value("name")
                for p in shared.store.extent("Person")] == ["theirs"]
