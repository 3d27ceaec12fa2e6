"""What ``stats()`` reports, on the live store and on its snapshots.

A fixed trace pins ``store.stats()`` key for key, so a change to how a
snapshot captures or reports its state cannot move the output.  A
snapshot's gauges are its epoch's; its counters are read at the call.
"""

import pytest

from repro.errors import ConformanceError
from repro.obs import EngineStats, _Counters
from repro.objects import CheckMode, ObjectStore
from repro.objects.transactions import transaction
from repro.query.compiler import _code_object
from repro.scenarios.hospital import build_hospital_schema
from repro.typesys import EnumSymbol


def run_trace():
    """``store.stats()`` after a fixed trace: creates, writes, a rejected
    write, a committed transaction that builds an index, a rolled-back
    one, and two queries (the second a plan-cache hit that takes the
    first's outcome and one visit row from the plan's memo: its ANDs
    are not run again).  The code memo is process-wide: cleared, so
    ``query.sources_compiled`` repeats."""
    _code_object.cache_clear()
    store = ObjectStore(build_hospital_schema())
    doc = store.create("Physician", name="doc", age=50)
    shrink = store.create("Psychologist", name="shrink", age=45)
    patients = [store.create("Patient", name=f"p{i}", age=20 + i,
                             treatedBy=doc) for i in range(6)]
    store.create("Alcoholic", name="a", age=40, treatedBy=shrink)
    store.classify(patients[0], "Ambulatory_Patient")
    store.set_value(patients[1], "age", 77)
    with pytest.raises(ConformanceError):
        store.set_value(patients[2], "treatedBy", shrink)
    with transaction(store):
        store.create_index("age")
        store.create("Patient", name="q", age=37, treatedBy=doc)
        store.remove(patients[3])
    with pytest.raises(RuntimeError):
        with transaction(store):
            store.create("Patient", name="gone", age=40)
            store.set_value(patients[4], "age", 99)
            raise RuntimeError("abort")
    store.snapshot()
    text = "for p in Patient where p.age = 37 select p.name"
    assert store.run_query(text)[0] == [("q",)]
    assert store.run_query(text)[0] == [("q",)]
    store.snapshot()
    return store.stats()


PINNED_STATS = {
    'full_checks': 0, 'attribute_checks': 33, 'delta_checks': 1,
    'constraints_checked': 35, 'constraints_skipped': 197,
    'violations_found': 1, 'profile_hits': 30, 'profile_misses': 5,
    'writes': 33, 'classifies': 1, 'declassifies': 0, 'removals': 1,
    'rollbacks': 1, 'bulk_loads': 0, 'bulk_objects': 0, 'bulk_fallbacks': 0,
    'profiles_compiled': 5, 'compiled_rows_elided': 0,
    'wal_records': 0, 'wal_commits': 0, 'wal_syncs': 0, 'wal_bytes': 0,
    'checkpoints': 0, 'recoveries': 0, 'wal_replayed': 0,
    'wal_truncated_bytes': 0, 'snapshots_built': 3, 'snapshot_reuses': 4,
    'schema_changes': 0, 'schema_profiles_invalidated': 0,
    'schema_profiles_retained': 0, 'schema_objects_rechecked': 0,
    'schema_objects_skipped': 0, 'schema_migrations_lazy': 0,
    'schema_index_rebuilds': 0, 'schema_epoch': 0, 'objects': 9,
    'extent_entries': 20, 'virtual_refs': 0, 'dirty_objects': 0,
    'indexes': 1, 'plans_in_cache': 1, 'query.plans_cached': 1,
    'query.plan_hits': 1, 'query.plan_misses': 1, 'query.plan_evictions': 0,
    'query.index_scans': 2, 'query.full_scans': 0, 'query.index_lookups': 2,
    'query.rows_pruned': 12, 'query.index_updates': 6,
    'query.compiled_execs': 2, 'query.sources_compiled': 1,
    'bitset.words_anded': 64, 'bitset.words_ored': 0,
    'bitset.words_andnot': 0, 'bitset.chunks_cow_copied': 6,
    'bitset.column_chunks_copied': 3, 'bitset.rows_carried': 1,
    'bitset.rows_gathered': 1,
}


def test_store_stats_on_a_fixed_trace():
    assert run_trace() == PINNED_STATS


def test_fresh_snapshots_copy_no_counters(monkeypatch):
    """A capture takes references: the counter dicts are built when
    ``stats()`` runs, never per epoch."""
    calls = []

    def counting(original):
        def snapshot(self):
            calls.append(type(self).__name__)
            return original(self)
        return snapshot

    monkeypatch.setattr(EngineStats, "snapshot",
                        counting(EngineStats.snapshot))
    monkeypatch.setattr(_Counters, "snapshot", counting(_Counters.snapshot))
    store = ObjectStore(build_hospital_schema())
    store.create_index("age")
    person = store.create("Person", name="a", age=30)
    built = store.checker.stats.snapshots_built
    for age in range(31, 51):
        store.set_value(person, "age", age)
        before = len(calls)
        store.snapshot()
        assert len(calls) == before
    assert store.checker.stats.snapshots_built == built + 20
    store.stats()
    assert sorted(set(calls)) == ["BitsetStats", "EngineStats", "QueryStats"]


def _swiss_hospital(store):
    address = store.create("Address", check=CheckMode.NONE, city="Zurich")
    store.set_value(address, "country", EnumSymbol("Switzerland"),
                    check=CheckMode.NONE)
    return store.create("Hospital", check=CheckMode.NONE, location=address)


def test_snapshot_stats_gauges_are_the_epochs_counters_are_live():
    store = ObjectStore(build_hospital_schema(),
                        check_mode=CheckMode.DEFERRED)
    doc = store.create("Physician", name="doc", age=50)
    store.create("Patient", name="p", age=30, treatedBy=doc)
    snap = store.snapshot()
    gauges = ("objects", "extent_entries", "dirty_objects", "virtual_refs",
              "indexes")
    then = snap.stats()
    store.create_index("age")
    tb = store.create("Tubercular_Patient", name="t", age=40, treatedBy=doc)
    store.set_value(tb, "treatedAt", _swiss_hospital(store))
    store.run_query("for p in Patient where p.age = 40 select p.name")
    live = store.stats()
    now = snap.stats()
    assert {g: now[g] for g in gauges} == {g: then[g] for g in gauges}
    assert all(live[g] > then[g] for g in gauges), (then, live)
    counters = [k for k in live if k not in gauges + ("schema_epoch",)]
    assert {k: now[k] for k in counters} == {k: live[k] for k in counters}
    assert now["writes"] > then["writes"]
    assert now["query.plan_misses"] == then["query.plan_misses"] + 1
