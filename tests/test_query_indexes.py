"""Secondary attribute indexes: postings, maintenance, snapshots.

The index layer's contract is exactness: for every live object, either
its value sits in the bucket keyed by that value, or the object sits in
the INAPPLICABLE posting (no value) or the residue posting (unhashable
value).  These tests pin the contract through every mutation path the
store exposes -- create, checked writes, classify/declassify, removal,
and transaction rollback.
"""

import pytest

from repro.errors import ConformanceError
from repro.objects import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.objects.transactions import transaction
from repro.query.indexes import PlanCache, StoreIndex
from repro.scenarios import populate_hospital
from repro.typesys import INAPPLICABLE

S1, S2, S3 = map(Surrogate, (1, 2, 3))


@pytest.fixture()
def store(hospital_schema):
    return ObjectStore(hospital_schema)


class TestStoreIndex:
    def test_add_and_lookup(self):
        index = StoreIndex("age")
        index.add(S1, 30)
        index.add(S2, 30)
        index.add(S3, 40)
        assert set(index.lookup(30)) == {S1, S2}
        assert set(index.lookup(40)) == {S3}
        assert set(index.lookup(99)) == set()
        assert index.selectivity(30) == 2
        assert len(index) == 3
        assert index.distinct_values() == 2

    def test_inapplicable_posting(self):
        index = StoreIndex("ward")
        index.add(S1, INAPPLICABLE)
        index.add(S2, 3)
        assert set(index.inapplicable) == {S1}
        assert set(index.lookup(INAPPLICABLE)) == set()
        assert len(index) == 2

    def test_update_moves_between_postings(self):
        index = StoreIndex("age")
        index.add(S1, 30)
        index.update(S1, 30, 31)
        assert set(index.lookup(30)) == set()
        assert set(index.lookup(31)) == {S1}
        assert index.distinct_values() == 1     # emptied bucket dropped
        index.update(S1, 31, INAPPLICABLE)
        assert set(index.lookup(31)) == set()
        assert set(index.inapplicable) == {S1}
        index.update(S1, INAPPLICABLE, 32)
        assert set(index.inapplicable) == set()
        assert set(index.lookup(32)) == {S1}

    def test_discard_forgets_everywhere(self):
        index = StoreIndex("age")
        index.add(S1, 30)
        index.add(S2, INAPPLICABLE)
        index.discard(S1, 30)
        index.discard(S2, INAPPLICABLE)
        assert len(index) == 0
        assert set(index.lookup(30)) == set()

    def test_unhashable_values_go_to_residue(self):
        index = StoreIndex("blob")
        index.add(S1, [1, 2])          # unhashable
        assert set(index.residue) == {S1}
        assert set(index.lookup([1, 2])) == set()  # probe can't hash
        index.discard(S1, [1, 2])
        assert set(index.residue) == set()

    def test_python_equality_semantics(self):
        # 1 == True == 1.0 must share a bucket, matching scan `=`.
        index = StoreIndex("flag")
        index.add(S1, 1)
        index.add(S2, True)
        index.add(S3, 1.0)
        assert set(index.lookup(1)) == {S1, S2, S3}
        index.discard(S2, True)       # found under its equal key
        assert set(index.lookup(1.0)) == {S1, S3}


class TestIndexManagerLifecycle:
    def test_create_builds_from_live_population(self, store):
        a = store.create("Person", name="a", age=30)
        b = store.create("Person", name="b", age=30)
        index = store.create_index("age")
        assert set(index.lookup(30)) == {a.surrogate, b.surrogate}

    def test_create_is_idempotent(self, store):
        first = store.create_index("age")
        version = store.indexes.version
        assert store.create_index("age") is first
        assert store.indexes.version == version

    def test_create_and_drop_bump_version(self, store):
        v0 = store.indexes.version
        store.create_index("age")
        v1 = store.indexes.version
        assert v1 > v0
        store.drop_index("age")
        assert store.indexes.version > v1
        assert "age" not in store.indexes

    def test_new_object_lands_in_index(self, store):
        store.create_index("age")
        a = store.create("Person", name="a", age=30)
        assert set(store.indexes.get("age").lookup(30)) == {a.surrogate}

    def test_unset_attribute_is_inapplicable(self, store):
        store.create_index("salary")
        a = store.create("Person", name="a", age=30)  # no salary
        assert a.surrogate in store.indexes.get("salary").inapplicable

    def test_checked_write_moves_posting(self, store):
        store.create_index("age")
        a = store.create("Person", name="a", age=30)
        store.set_value(a, "age", 31)
        index = store.indexes.get("age")
        assert set(index.lookup(30)) == set()
        assert set(index.lookup(31)) == {a.surrogate}

    def test_rejected_write_leaves_index_consistent(self, store):
        store.create_index("age")
        a = store.create("Person", name="a", age=30)
        with pytest.raises(Exception):
            store.set_value(a, "age", 999)   # out of range
        assert set(store.indexes.get("age").lookup(30)) == {a.surrogate}
        assert set(store.indexes.get("age").lookup(999)) == set()

    def test_remove_unindexes(self, store):
        store.create_index("age")
        a = store.create("Person", name="a", age=30)
        store.remove(a)
        assert len(store.indexes.get("age")) == 0

    def test_lookup_unknown_attribute_raises(self, store):
        with pytest.raises(KeyError):
            store.indexes.lookup("age", 30)


class TestTransactionRollback:
    def test_rollback_restores_postings(self, store):
        store.create_index("age")
        a = store.create("Person", name="a", age=30)
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.set_value(a, "age", 31)
                store.create("Person", name="b", age=30)
                store.remove(a)
                raise RuntimeError("abort")
        index = store.indexes.get("age")
        assert set(index.lookup(30)) == {a.surrogate}
        assert set(index.lookup(31)) == set()
        assert len(index) == 1

    def test_version_never_rolls_back(self, store):
        snap_version = store.indexes.version
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.create_index("age")
                raise RuntimeError("abort")
        # The index created inside the scope is gone, but the design
        # counter moved forward: cached plan keys cannot collide.
        assert "age" not in store.indexes
        assert store.indexes.version > snap_version

    def test_index_handle_survives_rollback(self, store):
        """A rollback restores containers *into* the index object: the
        handle ``create_index`` returned stays the store's index and
        keeps seeing later writes (after a rolled-back transaction and
        after a rejected bulk batch alike)."""
        handle = store.create_index("age")
        a = store.create("Person", name="a", age=30)
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.set_value(a, "age", 31)
                raise RuntimeError("abort")
        assert store.indexes.get("age") is handle
        with pytest.raises(ConformanceError):
            store.bulk_load([("Person", {"name": "x", "age": 40}),
                             ("Person", {"name": "y", "age": 999})],
                            check="eager")
        assert store.indexes.get("age") is handle
        assert set(handle.lookup(30)) == {a.surrogate}
        b = store.create("Person", name="b", age=31)
        assert set(handle.lookup(31)) == {b.surrogate}

    def test_dropped_index_returns_with_its_identity(self, store):
        handle = store.create_index("age")
        a = store.create("Person", name="a", age=30)
        version = store.indexes.version
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.drop_index("age")
                store.set_value(a, "age", 31)    # not indexed in here
                raise RuntimeError("abort")
        assert store.indexes.get("age") is handle
        assert set(handle.lookup(30)) == {a.surrogate}
        assert store.indexes.version > version


class TestExtentCache:
    def test_extent_is_cached_until_mutation(self, store):
        store.create("Person", name="a", age=30)
        first = store.extent("Person")
        store.create("Person", name="b", age=31)
        # Read from the extent bitset per call: the create shows at once.
        second = store.extent("Person")
        assert second[0] is first[0]
        assert len(second) == 2

    def test_remove_invalidates(self, store):
        a = store.create("Person", name="a", age=30)
        store.extent("Person")
        store.remove(a)
        assert store.extent("Person") == ()

    def test_classify_and_declassify_invalidate(self, hospital_schema):
        pop = populate_hospital(schema=hospital_schema, n_patients=20,
                                seed=5)
        store = pop.store
        member = next(iter(store.extent("Alcoholic")))
        store.declassify(member, "Alcoholic")
        assert member not in store.extent("Alcoholic")
        # An ex-alcoholic still has a Psychologist, so it re-classifies.
        store.classify(member, "Alcoholic")
        assert member in store.extent("Alcoholic")

    def test_rollback_invalidates(self, store):
        store.create("Person", name="a", age=30)
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.create("Person", name="b", age=31)
                store.extent("Person")       # cache inside the scope
                raise RuntimeError("abort")
        assert len(store.extent("Person")) == 1

    def test_extent_surrogates_matches_extent(self, hospital_schema):
        pop = populate_hospital(schema=hospital_schema, n_patients=30,
                                seed=6)
        store = pop.store
        for cls in ("Patient", "Alcoholic", "Physician"):
            assert set(store.extent_surrogates(cls)) == {
                obj.surrogate for obj in store.extent(cls)
            }


class TestPlanCache:
    def test_hit_and_miss_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", "plan")
        assert cache.get("k") == "plan"
        assert cache.stats.plan_misses == 1
        assert cache.stats.plan_hits == 1
        assert cache.stats.plans_cached == 1

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")            # refresh a
        cache.put("c", 3)         # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2


class TestStats:
    def test_store_stats_include_query_counters(self, store):
        store.create_index("age")
        snap = store.stats()
        assert snap["indexes"] == 1
        assert "query.index_updates" in snap
        assert "plans_in_cache" in snap


class TestPhysicalDesignVersioning:
    """Regression: every change to the set of indexes -- create, drop,
    and drop-then-recreate -- must land on a version number no cached
    plan has ever been keyed against."""

    def test_drop_then_recreate_never_reuses_a_version(self, store):
        seen = {store.indexes.version}
        store.create_index("age")
        assert store.indexes.version not in seen
        seen.add(store.indexes.version)
        store.drop_index("age")
        assert store.indexes.version not in seen
        seen.add(store.indexes.version)
        # Recreating the same index is a *new* physical design: its
        # postings were rebuilt from the live population, and plans
        # cached against the first incarnation must not match.
        store.create_index("age")
        assert store.indexes.version not in seen

    def test_dropping_a_missing_index_is_version_neutral(self, store):
        version = store.indexes.version
        store.drop_index("age")        # never existed
        assert store.indexes.version == version

    def test_cached_plan_not_served_across_drop(self, store):
        from repro.query import execute_planned
        for i in range(6):
            store.create("Patient", name=f"p{i}", age=30 + i)
        store.create_index("age")
        query = "for p in Patient where p.age = 32 select p.name"
        first, _ = execute_planned(query, store)
        hits_before = store.indexes.qstats.plan_hits
        again, _ = execute_planned(query, store)
        assert again == first
        assert store.indexes.qstats.plan_hits == hits_before + 1
        store.drop_index("age")
        misses_before = store.indexes.qstats.plan_misses
        after_drop, _ = execute_planned(query, store)
        # Same answer, but through a freshly-compiled plan: the old key
        # embeds the dropped design's version and can never hit again.
        assert after_drop == first
        assert store.indexes.qstats.plan_misses == misses_before + 1

    def test_bulk_merge_keeps_version(self, store):
        # A batch changes postings, not the set of indexes.
        store.create_index("age")
        version = store.indexes.version
        store.bulk_load(
            [("Patient", {"name": f"p{i}", "age": 30}) for i in range(5)],
            check="eager")
        assert store.indexes.version == version
