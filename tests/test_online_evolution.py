"""Online schema evolution: live alter/excuse commands through the
mutation pipeline.

Covers the PR acceptance criteria: alter_class / add_excuse /
retract_excuse are epoch-swapping pipeline commands; re-checking is
scoped to diff-affected signature profiles (counter-verified); the plan
cache and secondary indexes invalidate exactly when the schema version
bumps; MVCC snapshots keep answering against the schema epoch they
captured.
"""

import dataclasses

import pytest

from repro.errors import SchemaEvolutionError
from repro.objects import ObjectStore
from repro.objects.transactions import transaction
from repro.schema import AttributeDef, SchemaBuilder
from repro.schema.attribute import ExcuseRef
from repro.schema.classdef import ClassDef
from repro.typesys import STRING, ClassType, IntRangeType


def build_schema():
    """Two disjoint hierarchies: delta-scoped rechecking of one must
    skip the other's population entirely."""
    b = SchemaBuilder()
    b.cls("Person").attr("name", STRING).attr("age", (1, 120))
    b.cls("Physician", isa="Person")
    b.cls("Psychologist", isa="Person")
    b.cls("Patient", isa="Person").attr("treatedBy", "Physician")
    b.cls("Equipment").attr("serial", STRING)
    b.cls("Scanner", isa="Equipment")
    return b.build()


def alcoholic_def():
    return ClassDef("Alcoholic", ("Patient",), (
        AttributeDef("treatedBy", ClassType("Psychologist"),
                     excuses=(ExcuseRef("Patient", "treatedBy"),)),))


@pytest.fixture()
def store():
    s = ObjectStore(build_schema())
    doc = s.create("Physician", name="dr", age=50)
    s.create("Patient", name="ann", age=30, treatedBy=doc)
    s.create("Patient", name="bob", age=40, treatedBy=doc)
    s.create("Scanner", serial="S-1")
    s.create("Scanner", serial="S-2")
    return s


# ---------------------------------------------------------------------------
# alter_class as a pipeline command
# ---------------------------------------------------------------------------

class TestAlterClass:
    def test_adds_excused_subclass_live(self, store):
        problems = store.alter_class(alcoholic_def())
        assert problems == []
        assert store.schema.has_class("Alcoholic")
        shrink = store.create("Psychologist", name="freud", age=60)
        al = store.create("Alcoholic", name="al", age=33,
                          treatedBy=shrink)
        assert store.is_member(al, "Patient")
        assert store.validate_all() == []

    def test_epoch_registry_advances(self, store):
        assert store.schema_epochs.current.number == 0
        store.alter_class(alcoholic_def())
        epoch = store.schema_epochs.current
        assert epoch.number == 1
        assert epoch.verb == "alter-class"
        assert any(c.kind == "class-added" for c in epoch.changes)
        assert "Alcoholic" in epoch.region.classes

    def test_noop_alter_does_not_advance(self, store):
        before_epoch = store._epoch
        same = store.schema.get("Patient")
        assert store.alter_class(same) == []
        assert store.schema_epochs.current.number == 0
        assert store._epoch == before_epoch

    def test_rejected_alter_leaves_store_unchanged(self, store):
        old_schema = store.schema
        bad = ClassDef("Elder", ("Person",),
                       (AttributeDef("age", IntRangeType(200, 300)),))
        with pytest.raises(SchemaEvolutionError) as exc_info:
            store.alter_class(bad)
        assert exc_info.value.diagnostics
        assert store.schema is old_schema
        assert not store.schema.has_class("Elder")
        assert store.schema_epochs.current.number == 0
        # The store is still fully usable afterwards.
        store.create("Scanner", serial="S-3")

    def test_alter_forbidden_inside_transaction(self, store):
        with pytest.raises(SchemaEvolutionError, match="transaction"):
            with transaction(store):
                store.alter_class(alcoholic_def())
        assert not store.schema.has_class("Alcoholic")

    def test_counters_tick(self, store):
        base = store.checker.stats.schema_changes
        store.alter_class(alcoholic_def())
        assert store.checker.stats.schema_changes == base + 1

    def test_object_violations_do_not_roll_back(self, store):
        # Tightening age below bob's 40 is schema-valid (no class
        # contradicts it), so the change commits; the nonconforming
        # *objects* are reported and marked dirty, not reverted.
        new_person = store.schema.get("Person").with_attribute(
            AttributeDef("age", IntRangeType(1, 35)))
        problems = store.alter_class(new_person)
        assert any(v.attribute == "age" for _obj, v in problems)
        assert store.schema.get("Person").attribute("age").range == \
            IntRangeType(1, 35)
        dirty = store.validate_dirty()
        assert any(v.attribute == "age" for _obj, v in dirty)


# ---------------------------------------------------------------------------
# Delta-scoped rechecking (counter-verified)
# ---------------------------------------------------------------------------

class TestDeltaScoping:
    def test_disjoint_population_is_skipped(self, store):
        stats = store.checker.stats
        base_skipped = stats.schema_objects_skipped
        base_rechecked = stats.schema_objects_rechecked
        store.alter_class(alcoholic_def())
        # Both scanners (and nothing medical) sit in disjoint signatures.
        assert stats.schema_objects_skipped - base_skipped >= 2
        rechecked = stats.schema_objects_rechecked - base_rechecked
        assert 0 < rechecked <= 3  # the two patients (+ physician at most)

    def test_unaffected_profiles_are_retained(self, store):
        # Warm the Scanner profile, then alter the medical hierarchy.
        store.validate_all()
        stats = store.checker.stats
        base_kept = stats.schema_profiles_retained
        store.alter_class(alcoholic_def())
        assert stats.schema_profiles_retained > base_kept

    def test_lazy_recheck_marks_dirty_only(self, store):
        stats = store.checker.stats
        base_lazy = stats.schema_migrations_lazy
        base_rechecked = stats.schema_objects_rechecked
        problems = store.alter_class(alcoholic_def(), recheck="lazy")
        assert problems == []
        assert stats.schema_migrations_lazy > base_lazy
        assert stats.schema_objects_rechecked == base_rechecked
        assert store.validate_dirty() == []

    def test_full_recheck_covers_everything(self, store):
        stats = store.checker.stats
        base = stats.schema_objects_rechecked
        store.alter_class(alcoholic_def(), recheck="full")
        assert stats.schema_objects_rechecked - base == len(store)

    def test_delta_beats_full_on_counters(self):
        # The acceptance criterion, in miniature: affected-mode work is
        # strictly less than full-mode work on the same change.
        def populated():
            s = ObjectStore(build_schema())
            doc = s.create("Physician", name="dr", age=50)
            for i in range(20):
                s.create("Patient", name=f"p{i}", age=30, treatedBy=doc)
            for i in range(80):
                s.create("Scanner", serial=f"S-{i}")
            return s

        delta = populated()
        delta.alter_class(alcoholic_def(), recheck="affected")
        full = populated()
        full.alter_class(alcoholic_def(), recheck="full")
        assert (delta.checker.stats.schema_objects_rechecked
                < full.checker.stats.schema_objects_rechecked)
        assert delta.checker.stats.schema_objects_skipped >= 80
        # The delta recheck still covers the store: what it skipped is
        # exactly what it did not recheck.
        assert (delta.checker.stats.schema_objects_rechecked
                + delta.checker.stats.schema_objects_skipped
                == full.checker.stats.schema_objects_rechecked
                == len(full))


# ---------------------------------------------------------------------------
# add_excuse / retract_excuse
# ---------------------------------------------------------------------------

class TestExcuseOps:
    def test_add_excuse_routes_through_alter(self, store):
        store.alter_class(ClassDef("Alcoholic", ("Patient",), ()))
        problems = store.add_excuse(
            "Alcoholic", "treatedBy", "Psychologist", ["Patient"])
        assert problems == []
        assert store.schema_epochs.current.verb == "add-excuse"
        refs = store.schema.get("Alcoholic").attribute("treatedBy").excuses
        assert ExcuseRef("Patient", "treatedBy") in refs
        shrink = store.create("Psychologist", name="freud", age=60)
        store.create("Alcoholic", name="al", age=33, treatedBy=shrink)

    def test_add_excuse_accepts_pair_targets(self, store):
        store.alter_class(ClassDef("Alcoholic", ("Patient",), ()))
        store.add_excuse("Alcoholic", "treatedBy", "Psychologist",
                         [("Patient", "treatedBy")])
        refs = store.schema.get("Alcoholic").attribute("treatedBy").excuses
        assert ExcuseRef("Patient", "treatedBy") in refs

    def test_retract_without_drop_rejected_when_contradictory(self, store):
        store.alter_class(alcoholic_def())
        # Stripping the excuse but keeping the Psychologist range leaves
        # an unexcused contradiction against Patient: rejected atomically.
        with pytest.raises(SchemaEvolutionError):
            store.retract_excuse("Alcoholic", "treatedBy")
        refs = store.schema.get("Alcoholic").attribute("treatedBy").excuses
        assert refs  # still excused

    def test_retract_with_drop_commits_and_flags_objects(self, store):
        store.alter_class(alcoholic_def())
        shrink = store.create("Psychologist", name="freud", age=60)
        al = store.create("Alcoholic", name="al", age=33,
                          treatedBy=shrink)
        problems = store.retract_excuse("Alcoholic", "treatedBy",
                                        drop_attribute=True)
        # The declaration is gone; al's Psychologist value now violates
        # the inherited Patient constraint -- reported, not reverted.
        assert store.schema.get("Alcoholic").attribute("treatedBy") is None
        assert any(obj.surrogate == al.surrogate
                   for obj, _v in problems)
        assert store.schema_epochs.current.verb == "retract-excuse"

    def test_retract_unknown_attribute_raises(self, store):
        from repro.errors import UnknownAttributeError
        with pytest.raises(UnknownAttributeError):
            store.retract_excuse("Patient", "nonexistent")

    def test_retract_without_excuses_raises(self, store):
        with pytest.raises(SchemaEvolutionError, match="no excuses"):
            store.retract_excuse("Patient", "treatedBy")


# ---------------------------------------------------------------------------
# Plan-cache / index consistency across schema epochs (satellite bugfix)
# ---------------------------------------------------------------------------

class TestQueryConsistency:
    def test_schema_version_strictly_monotone(self, store):
        v0 = store.schema.version
        store.alter_class(alcoholic_def())
        v1 = store.schema.version
        store.retract_excuse("Alcoholic", "treatedBy",
                             drop_attribute=True)
        v2 = store.schema.version
        # Successor epochs must never reuse a version number, or stale
        # cached plans (keyed on it) would be served for fresh queries.
        assert v0 < v1 < v2

    @pytest.mark.parametrize("setup, command", [
        (None, lambda s: s.alter_class(alcoholic_def())),
        (lambda s: s.alter_class(ClassDef("Alcoholic", ("Patient",), ())),
         lambda s: s.add_excuse("Alcoholic", "treatedBy", "Psychologist",
                                ["Patient"])),
        (lambda s: s.alter_class(alcoholic_def()),
         lambda s: s.retract_excuse("Alcoholic", "treatedBy",
                                    drop_attribute=True)),
    ], ids=["alter_class", "add_excuse", "retract_excuse"])
    def test_every_schema_command_raises_schema_version(self, store, setup,
                                                        command):
        """Every plan key carries ``schema.version``, so a committed
        schema command stops each cached plan matching on its own; the
        index design version (here with a rebuilt index) stays."""
        store.create_index("treatedBy")
        if setup is not None:
            setup(store)
        rebuilds = store.checker.stats.schema_index_rebuilds
        version = store.schema.version
        design = store.indexes.version
        command(store)
        assert store.schema.version > version
        assert store.checker.stats.schema_index_rebuilds == rebuilds + 1
        assert store.indexes.version == design

    def test_run_query_replans_after_retract(self, store):
        store.alter_class(alcoholic_def())
        shrink = store.create("Psychologist", name="freud", age=60)
        store.create("Alcoholic", name="al", age=33, treatedBy=shrink)
        q = "for a in Alcoholic select a.name"
        rows, _stats = store.run_query(q)
        assert rows == [("al",)]
        qstats = store.indexes.qstats
        base_misses = qstats.plan_misses
        base_hits = qstats.plan_hits
        store.retract_excuse("Alcoholic", "treatedBy",
                             drop_attribute=True)
        rows_after, _stats = store.run_query(q)
        assert rows_after == [("al",)]
        # The schema epoch moved, so the cached plan must NOT be reused.
        assert qstats.plan_misses == base_misses + 1
        assert qstats.plan_hits == base_hits

    def test_indexed_query_stays_correct_across_alter(self, store):
        store.create_index("treatedBy")
        store.alter_class(alcoholic_def())
        shrink = store.create("Psychologist", name="freud", age=60)
        store.create("Alcoholic", name="al", age=33, treatedBy=shrink)
        rows, stats = store.run_query(
            "for p in Patient where p.name = \"al\" select p.name")
        assert rows == [("al",)]

    def test_affected_index_rebuilds_unaffected_untouched(self, store):
        store.create_index("treatedBy")
        store.create_index("serial")
        treated = store.indexes._indexes["treatedBy"]
        serial = store.indexes._indexes["serial"]
        treated_buckets = treated._buckets
        serial_buckets = serial._buckets
        text = "for p in Patient where p.name = \"ann\" select p.name"
        store.run_query(text)
        base_version = store.indexes.version
        base_rebuilds = store.checker.stats.schema_index_rebuilds
        base_misses = store.indexes.qstats.plan_misses
        store.alter_class(alcoholic_def())
        # The medical alter touches treatedBy: that index gets fresh
        # containers (identity-preserving swap) and the serial index is
        # left alone.  The set of indexes did not change, so the design
        # version stays; the cached plan misses on schema.version alone.
        assert store.indexes.version == base_version
        assert store.run_query(text)[0] == [("ann",)]
        assert store.indexes.qstats.plan_misses == base_misses + 1
        assert store.checker.stats.schema_index_rebuilds == \
            base_rebuilds + 1
        assert store.indexes._indexes["treatedBy"] is treated
        assert treated._buckets is not treated_buckets
        assert serial._buckets is serial_buckets

    def test_rebuilt_index_answers_correctly(self, store):
        store.create_index("age")
        store.alter_class(alcoholic_def())
        rows, stats = store.run_query(
            "for p in Patient where p.age = 40 select p.name")
        assert rows == [("bob",)]


# ---------------------------------------------------------------------------
# Snapshot pinning across schema epochs
# ---------------------------------------------------------------------------

class TestSnapshotPinning:
    def test_snapshot_keeps_prior_schema_epoch(self, store):
        snap = store.snapshot()
        assert snap.schema_epoch == 0
        store.alter_class(alcoholic_def())
        assert snap.schema is not store.schema
        assert not snap.schema.has_class("Alcoholic")
        assert store.schema.has_class("Alcoholic")
        fresh = store.snapshot()
        assert fresh.schema_epoch == 1
        assert fresh.schema is store.schema

    def test_pinned_snapshot_still_answers_queries(self, store):
        snap = store.snapshot()
        store.alter_class(alcoholic_def())
        shrink = store.create("Psychologist", name="freud", age=60)
        store.create("Alcoholic", name="al", age=33, treatedBy=shrink)
        rows, _stats = snap.run_query("for p in Patient select p.name")
        assert sorted(r[0] for r in rows) == ["ann", "bob"]
        rows_live, _stats = store.run_query(
            "for p in Patient select p.name")
        assert sorted(r[0] for r in rows_live) == ["al", "ann", "bob"]

    def test_snapshot_stats_carry_schema_epoch(self, store):
        store.alter_class(alcoholic_def())
        assert store.snapshot().stats()["schema_epoch"] == 1

    def test_concurrent_facade_delegates(self, store):
        # The store is its own thread-facing surface: readers that do
        # not wait see each committed schema epoch.
        old_snap = store.snapshot(wait=False)
        problems = store.alter_class(alcoholic_def())
        assert problems == []
        assert old_snap.schema_epoch == 0
        assert store.snapshot(wait=False).schema_epoch == 1
        store.add_excuse("Alcoholic", "age", (1, 150), ["Person"])
        assert store.snapshot(wait=False).schema_epoch == 2


# ---------------------------------------------------------------------------
# Extent migration on structural changes
# ---------------------------------------------------------------------------

class TestExtentMigration:
    def test_reparenting_moves_extents(self, store):
        store.alter_class(ClassDef("Student", ("Person",), ()))
        s1 = store.create("Student", name="sam", age=20)
        assert store.count("Equipment") == 2
        assert not store.is_member(s1, "Equipment")
        # Reparent Student under Equipment as well (multiple parents):
        # extent closure must pick the existing member up.
        student = store.schema.get("Student")
        store.alter_class(
            dataclasses.replace(student,
                                parents=("Person", "Equipment")))
        assert store.is_member(s1, "Equipment")
        assert store.count("Equipment") == 3
        rows, _stats = store.run_query(
            "for e in Equipment select e.serial")
        assert len(rows) == 3  # migration is visible to queries


# ---------------------------------------------------------------------------
# Extents across the retract direction
# ---------------------------------------------------------------------------

class TestExtentCacheAcrossRetract:
    """A retract, applied or refused, swaps or keeps the schema epoch
    but moves no membership: every ``extent()`` stays exact."""

    def _retractable(self, store):
        store.alter_class(alcoholic_def())
        shrink = store.create("Psychologist", name="freud", age=60)
        return store.create("Alcoholic", name="al", age=33,
                            treatedBy=shrink)

    def test_retract_excuse_drops_affected_extent_memos(self, store):
        store.create_index("treatedBy")
        self._retractable(store)
        classes = ("Alcoholic", "Patient", "Person", "Equipment")
        before = {cls: store.extent(cls) for cls in classes}
        store.retract_excuse("Alcoholic", "treatedBy",
                             drop_attribute=True)
        # treatedBy's postings were rebuilt for the new epoch; no
        # membership moved, inside the affected region or outside it.
        for cls in classes:
            assert store.extent(cls) == before[cls], cls
            assert store.extent(cls) == tuple(
                store._objects[s] for s in store._extents[cls])

    def test_partial_retract_also_invalidates(self, store):
        al = self._retractable(store)
        # (1, 100) specializes Person's 1..120, so this excuse is
        # retractable without leaving a contradiction behind.
        store.add_excuse("Alcoholic", "age", (1, 100), ["Person"])
        before = store.extent("Alcoholic")
        # Retracting it while the treatedBy excuse stays is an
        # excuses-changed delta -- still an epoch swap, still rebuilt.
        store.retract_excuse("Alcoholic", "age")
        assert store.extent("Alcoholic") == before
        assert al in store.extent("Alcoholic")

    def test_query_agrees_with_scan_after_retract(self, store):
        store.create_index("treatedBy")
        al = self._retractable(store)
        doc = store.extent("Physician")[0]
        q = ('for p in Patient where p.treatedBy = p.treatedBy '
             'select p.name')
        rows_before, _ = store.run_query(q)
        store.retract_excuse("Alcoholic", "treatedBy",
                             drop_attribute=True)
        rows_after, stats = store.run_query(q)
        # al's Psychologist value is stranded residue now, but it is
        # still *stored*: the guarded scan and the indexed plan must
        # agree row-for-row against the rebuilt postings.
        from repro.query.interpreter import execute
        scan_rows, scan_stats = execute(q, store)
        assert rows_after == scan_rows
        assert stats.rows_skipped == scan_stats.rows_skipped

    def test_rejected_retract_keeps_memos(self, store):
        self._retractable(store)
        before = store.extent("Alcoholic")
        with pytest.raises(SchemaEvolutionError):
            store.retract_excuse("Alcoholic", "treatedBy")
        # No epoch swap happened, and no membership moved.
        assert store.extent("Alcoholic") == before
