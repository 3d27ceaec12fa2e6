"""The mutation pipeline and MVCC snapshot reads.

Covers the PR-5 acceptance criteria: a snapshot taken before a committed
mutation never observes it (for every one of the five mutation entry
paths), epochs move only on real state changes, ``stats()`` is safe
mid-transaction, and observers only ever see committed commands.
"""

import pytest

from repro.errors import ConformanceError, NoSuchObjectError
from repro.objects import ConcurrentStore, ObjectStore
from repro.objects.pipeline import CheckMode
from repro.objects.transactions import transaction
from repro.query.planner import execute_planned


@pytest.fixture()
def store(hospital_schema):
    return ObjectStore(hospital_schema)


# ---------------------------------------------------------------------------
# Snapshot isolation, one assertion per mutation entry path
# ---------------------------------------------------------------------------

class TestSnapshotIsolation:
    def test_create_not_observed(self, store):
        store.create("Person", name="a", age=30)
        snap = store.snapshot()
        p = store.create("Person", name="b", age=40)
        assert len(snap) == 1
        assert store.count("Person") == 2
        assert snap.count("Person") == 1
        with pytest.raises(NoSuchObjectError):
            snap.get(p.surrogate)

    def test_remove_not_observed(self, store):
        p = store.create("Person", name="a", age=30)
        snap = store.snapshot()
        store.remove(p)
        assert snap.count("Person") == 1
        row = snap.get(p.surrogate)
        assert row.get_value("age") == 30
        with pytest.raises(NoSuchObjectError):
            store.get(p.surrogate)

    def test_set_value_not_observed(self, store):
        p = store.create("Person", name="a", age=30)
        snap = store.snapshot()
        store.set_value(p, "age", 44)
        assert snap.get(p.surrogate).get_value("age") == 30
        assert p.get_value("age") == 44

    def test_unset_value_not_observed(self, store):
        p = store.create("Person", name="a", age=30)
        snap = store.snapshot()
        store.unset_value(p, "age")
        assert snap.get(p.surrogate).get_value("age") == 30

    def test_classify_not_observed(self, store):
        p = store.create("Person", name="a", age=30)
        snap = store.snapshot()
        store.classify(p, "Patient")
        assert snap.count("Patient") == 0
        assert not snap.is_member(p, "Patient")
        assert "Patient" not in snap.get(p.surrogate).memberships
        assert store.is_member(p, "Patient")

    def test_declassify_not_observed(self, store):
        p = store.create("Patient", name="a", age=30)
        snap = store.snapshot()
        store.declassify(p, "Patient")
        assert snap.count("Patient") == 1
        assert snap.is_member(p, "Patient")

    def test_transaction_not_observed_until_commit(self, store):
        p = store.create("Person", name="a", age=30)
        snap = store.snapshot()
        with transaction(store):
            store.set_value(p, "age", 44)
            store.create("Person", name="b", age=50)
            # A snapshot requested inside the scope serves the
            # pre-transaction committed epoch.
            inner = store.snapshot()
            assert inner.get(p.surrogate).get_value("age") == 30
            assert len(inner) == 1
        assert snap.get(p.surrogate).get_value("age") == 30
        assert len(snap) == 1
        assert store.snapshot().get(p.surrogate).get_value("age") == 44

    def test_rolled_back_transaction_never_observed(self, store):
        p = store.create("Person", name="a", age=30)
        snap = store.snapshot()
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.set_value(p, "age", 44)
                raise RuntimeError("abort")
        assert snap.get(p.surrogate).get_value("age") == 30
        assert store.snapshot().get(p.surrogate).get_value("age") == 30

    def test_bulk_batch_not_observed(self, store):
        store.create("Person", name="a", age=30)
        snap = store.snapshot()
        store.bulk_load(
            [{"class": "Patient", "name": f"p{i}", "age": 30 + i}
             for i in range(10)])
        assert len(snap) == 1
        assert snap.count("Patient") == 0
        assert store.count("Patient") == 10
        assert store.snapshot().count("Patient") == 10

    def test_snapshot_extents_frozen_across_many_epochs(self, store):
        p = store.create("Patient", name="a", age=30)
        snap = store.snapshot()
        rows = snap.extent("Person")
        for i in range(5):
            store.create("Patient", name=f"x{i}", age=20 + i)
        store.remove(p)
        assert snap.extent("Person") == rows
        assert [r.surrogate for r in rows] == [p.surrogate]

    def test_snapshot_query_runs_against_epoch(self, store):
        for i in range(4):
            store.create("Person", name=f"p{i}", age=30 + i)
        snap = store.snapshot()
        store.create("Person", name="late", age=90)
        rows, _stats = snap.run_query(
            "for p in Person select p.name")
        assert len(rows) == 4
        live_rows, _ = store.run_query("for p in Person select p.name")
        assert len(live_rows) == 5

    def test_indexed_snapshot_query_isolated(self, store):
        for i in range(6):
            store.create("Person", name=f"p{i}", age=30 + (i % 2))
        store.create_index("age")
        snap = store.snapshot()
        store.create("Person", name="late", age=30)
        rows, stats = snap.run_query(
            "for p in Person where p.age = 30 select p.name")
        assert len(rows) == 3
        assert stats.index_lookups >= 1   # indexed plan, not a scan
        live_rows, _ = store.run_query(
            "for p in Person where p.age = 30 select p.name")
        assert len(live_rows) == 4


# ---------------------------------------------------------------------------
# Epochs: bump on real changes only
# ---------------------------------------------------------------------------

class TestEpochs:
    def test_committed_command_bumps_epoch(self, store):
        e0 = store._epoch
        p = store.create("Person", name="a", age=30)
        assert store._epoch == e0 + 1
        store.set_value(p, "age", 31)
        assert store._epoch == e0 + 2

    def test_noop_classify_declassify_do_not_bump(self, store):
        p = store.create("Patient", name="a", age=30)
        snap = store.snapshot()
        e0 = store._epoch
        store.classify(p, "Patient")        # already a member
        store.declassify(p, "Person")       # not a direct membership
        assert store._epoch == e0
        # ... so the cached snapshot survives (satellite: no needless
        # invalidation on membership-unchanged operations).
        assert store.snapshot() is snap

    def test_rejected_mutation_does_not_bump(self, store):
        p = store.create("Person", name="a", age=30)
        snap = store.snapshot()
        e0 = store._epoch
        with pytest.raises(ConformanceError):
            store.set_value(p, "age", 999)
        assert store._epoch == e0
        assert store.snapshot() is snap

    def test_rollback_bumps_epoch(self, store):
        p = store.create("Person", name="a", age=30)
        e0 = store._epoch
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.set_value(p, "age", 44)
                raise RuntimeError("abort")
        # The restore is itself a state transition: cached snapshots of
        # the aborted interval must not be trusted.
        assert store._epoch > e0

    def test_index_admin_bumps_epoch(self, store):
        store.create("Person", name="a", age=30)
        snap = store.snapshot()
        e0 = store._epoch
        store.create_index("age")
        assert store._epoch == e0 + 1
        assert store.snapshot() is not snap
        store.drop_index("age")
        assert store._epoch == e0 + 2

    def test_snapshot_reused_while_epoch_stands(self, store):
        store.create("Person", name="a", age=30)
        s1 = store.snapshot()
        s2 = store.snapshot()
        assert s1 is s2
        stats = store.stats()
        assert stats["snapshot_reuses"] >= 1
        assert stats["snapshots_built"] >= 1


# ---------------------------------------------------------------------------
# Membership-unchanged operations keep cached extents (satellite fix)
# ---------------------------------------------------------------------------

class TestExtentCacheDelta:
    def test_noop_membership_ops_keep_sorted_extent_cache(self, store):
        p = store.create("Patient", name="a", age=30)
        _ = store.extent("Person")
        assert "Person" in store._extent_cache
        store.classify(p, "Patient")
        store.declassify(p, "Person")
        assert "Person" in store._extent_cache

    def test_value_write_keeps_extent_cache(self, store):
        p = store.create("Person", name="a", age=30)
        _ = store.extent("Person")
        store.set_value(p, "age", 31)
        assert "Person" in store._extent_cache

    def test_unrelated_class_cache_survives_classify(self, hospital_schema):
        store = ObjectStore(hospital_schema)
        store.create("Hospital")
        p = store.create("Person", name="a", age=30)
        _ = store.extent("Hospital")
        store.classify(p, "Patient")
        # Patient's ancestors changed; Hospital's extent did not.
        assert "Hospital" in store._extent_cache


# ---------------------------------------------------------------------------
# stats() mid-transaction (satellite fix)
# ---------------------------------------------------------------------------

class TestStatsMidTransaction:
    def test_stats_inside_scope_reports_committed_gauges(self, store):
        store.create("Person", name="a", age=30)
        committed = store.stats()
        with transaction(store):
            store.create("Person", name="b", age=40)
            store.create("Patient", name="c", age=50)
            mid = store.stats()
            assert mid["objects"] == committed["objects"] == 1
            assert mid["extent_entries"] == committed["extent_entries"]
        assert store.stats()["objects"] == 3

    def test_stats_keys_unchanged_by_snapshot_layer(self, store):
        store.create("Person", name="a", age=30)
        keys = set(store.stats())
        assert {"objects", "extent_entries", "virtual_refs",
                "dirty_objects", "indexes", "plans_in_cache"} <= keys
        assert {"snapshots_built", "snapshot_reuses"} <= keys


# ---------------------------------------------------------------------------
# Observers: committed commands only, in order
# ---------------------------------------------------------------------------

class TestObservers:
    def test_observer_sees_committed_commands(self, store):
        seen = []
        store.observers.append(lambda cmd: seen.append(cmd.op))
        p = store.create("Person", name="a", age=30)
        store.set_value(p, "age", 31)
        store.classify(p, "Patient")
        assert seen == ["create", "set", "classify"]

    def test_noops_and_rejections_unseen(self, store):
        p = store.create("Person", name="a", age=30)
        seen = []
        store.observers.append(lambda cmd: seen.append(cmd.op))
        store.classify(p, "Person")        # no-op
        with pytest.raises(ConformanceError):
            store.set_value(p, "age", 999)
        assert seen == []

    def test_transaction_defers_and_drops(self, store):
        p = store.create("Person", name="a", age=30)
        seen = []
        store.observers.append(lambda cmd: seen.append(cmd.op))
        with transaction(store):
            store.set_value(p, "age", 31)
            assert seen == []          # deferred until commit
        assert seen == ["set"]
        seen.clear()
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.set_value(p, "age", 32)
                raise RuntimeError("abort")
        assert seen == []              # dropped on rollback


# ---------------------------------------------------------------------------
# Snapshot rows are read-only views
# ---------------------------------------------------------------------------

class TestSnapshotRows:
    def test_rows_have_no_mutators_and_store_refuses_them(self, store):
        p = store.create("Person", name="a", age=30)
        row = store.snapshot().get(p.surrogate)
        assert not hasattr(row, "_set_value")
        with pytest.raises(NoSuchObjectError):
            store.set_value(row, "age", 44)

    def test_entity_values_keep_identity(self, hospital_schema):
        store = ObjectStore(hospital_schema)
        h = store.create("Hospital")
        p = store.create("Patient", name="a", age=30, treatedAt=h)
        snap = store.snapshot()
        assert snap.get(p.surrogate).get_value("treatedAt") is h

    def test_wrappers_canonical_within_snapshot(self, store):
        p = store.create("Person", name="a", age=30)
        snap = store.snapshot()
        assert snap.get(p.surrogate) is snap.get(p.surrogate)
        assert snap.extent("Person")[0] is snap.get(p.surrogate)

    def test_membership_isolated_for_nested_entities(self, hospital_schema):
        store = ObjectStore(hospital_schema)
        h = store.create("Hospital")
        tb = store.create("Tubercular_Patient", name="t", age=40)
        snap = store.snapshot()
        assert not snap.is_member(h, "Hospital$1")
        store.set_value(tb, "treatedAt", h)
        # Live state gained the virtual membership; the snapshot did not.
        assert store.is_member(h, "Hospital$1")
        assert not snap.is_member(h, "Hospital$1")


# ---------------------------------------------------------------------------
# ConcurrentStore facade basics (single-threaded behavior)
# ---------------------------------------------------------------------------

class TestConcurrentFacade:
    def test_reads_follow_commits(self, hospital_schema):
        shared = ConcurrentStore(ObjectStore(hospital_schema))
        p = shared.create("Person", name="a", age=30)
        assert shared.count("Person") == 1
        assert shared.get(p.surrogate).get_value("age") == 30
        shared.set_value(p, "age", 44)
        assert shared.get(p.surrogate).get_value("age") == 44
        assert len(shared) == 1

    def test_transaction_scope_through_facade(self, hospital_schema):
        shared = ConcurrentStore(ObjectStore(hospital_schema))
        with pytest.raises(RuntimeError):
            with shared.transaction():
                shared.create("Person", name="a", age=30)
                raise RuntimeError("abort")
        assert shared.count("Person") == 0

    def test_stats_and_queries(self, hospital_schema):
        shared = ConcurrentStore(ObjectStore(hospital_schema))
        for i in range(5):
            shared.create("Person", name=f"p{i}", age=30 + i)
        rows, _ = shared.query("for p in Person select p.name")
        assert len(rows) == 5
        with shared.store._write_lock:
            rows_locked, _ = execute_planned(
                "for p in Person select p.name", shared.store)
        assert [tuple(r) for r in rows] == [tuple(r) for r in rows_locked]
        assert shared.stats()["objects"] == 5


# ---------------------------------------------------------------------------
# Durable stores route through the same pipeline
# ---------------------------------------------------------------------------

class TestDurablePipeline:
    def test_snapshot_isolation_on_durable_store(self, hospital_schema,
                                                 tmp_path):
        with ObjectStore.open(str(tmp_path / "db"),
                              schema=hospital_schema) as store:
            p = store.create("Person", name="a", age=30)
            snap = store.snapshot()
            store.set_value(p, "age", 44)
            assert snap.get(p.surrogate).get_value("age") == 30
        with ObjectStore.open(str(tmp_path / "db")) as store2:
            obj = next(iter(store2.instances()))
            assert obj.get_value("age") == 44

    def test_unchecked_mode_still_journals(self, hospital_schema,
                                           tmp_path):
        with ObjectStore.open(str(tmp_path / "db"), schema=hospital_schema,
                              check_mode=CheckMode.DEFERRED) as store:
            store.create("Person", name="a", age=30)
        with ObjectStore.open(str(tmp_path / "db")) as store2:
            assert len(store2) == 1
