"""Transactions, schema diff, query explain, and cold-start rebuild."""

import pytest

from repro import codec
from repro.errors import ConformanceError, ReproError, Violation
from repro.objects import ObjectStore
from repro.objects.store import CheckMode
from repro.objects.transactions import TransactionError, transaction
from repro.query import compile_query, execute
from repro.scenarios import populate_hospital
from repro.schema.diff import diff_schemas, render_diff
from repro.typesys import EnumSymbol


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

class TestTransactions:
    def test_commit_keeps_changes(self, hospital_schema):
        store = ObjectStore(hospital_schema)
        with transaction(store):
            p = store.create("Person", name="a", age=30)
        assert store.count("Person") == 1
        assert p.get_value("age") == 30

    def test_rollback_on_exception(self, hospital_schema):
        store = ObjectStore(hospital_schema)
        keeper = store.create("Person", name="keeper", age=20)
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.create("Person", name="temp", age=30)
                store.set_value(keeper, "age", 99)
                raise RuntimeError("boom")
        assert store.count("Person") == 1
        assert keeper.get_value("age") == 20

    def test_atomic_reclassification(self, hospital_schema):
        """Blood pressure + classification must move together."""
        store = ObjectStore(hospital_schema)
        p = store.create("Renal_Failure_Patient", name="r", age=50,
                         bloodPressure=EnumSymbol("High_BP"))
        with pytest.raises(ConformanceError):
            with transaction(store):
                store.set_value(p, "bloodPressure", EnumSymbol("Low_BP"),
                                check=CheckMode.NONE)
                # Without the Hemorrhaging classification this is still
                # nonconformant; an eager check elsewhere aborts the txn.
                store.set_value(p, "age", 51)  # triggers eager check? no
                store.classify(p, "Patient")  # no-op
                # Force the failure: eager write of the bad value.
                store.set_value(p, "bloodPressure", EnumSymbol("Low_BP"))
        # Everything rolled back, including the unchecked first write.
        assert p.get_value("bloodPressure") == EnumSymbol("High_BP")

    def test_validate_on_commit(self, hospital_schema):
        store = ObjectStore(hospital_schema, check_mode=CheckMode.NONE)
        with pytest.raises(TransactionError):
            with transaction(store, validate_on_commit=True):
                store.create("Person", name="bad", age=999)
        assert store.count("Person") == 0

    def test_validate_on_commit_failure_is_a_library_error(
            self, hospital_schema):
        """Caught by ``except ReproError``, and it carries its records."""
        store = ObjectStore(hospital_schema, check_mode=CheckMode.NONE)
        try:
            with transaction(store, validate_on_commit=True):
                bad = store.create("Person", name="bad", age=999)
        except ReproError as exc:
            caught = exc
        assert isinstance(caught, TransactionError)
        [(sid, violation)] = caught.records
        assert sid == bad.surrogate.id
        assert isinstance(violation, Violation) and violation.value == 999
        assert str(caught) == str(violation)
        again = codec.decode_error(codec.encode_error(caught))
        assert (type(again), str(again), again.records) == (
            TransactionError, str(caught), caught.records)

    def test_virtual_refcounts_restored(self, hospital_schema):
        pop = populate_hospital(schema=hospital_schema, n_patients=20,
                                seed=61, tubercular_fraction=0.1)
        store = pop.store
        before = dict(store._virtual_refs)
        tb = pop.tubercular[0]
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.remove(tb)
                raise RuntimeError("abort")
        assert dict(store._virtual_refs) == before
        assert store.get(tb.surrogate) is tb

    def test_identity_preserved_across_rollback(self, hospital_schema):
        store = ObjectStore(hospital_schema)
        p = store.create("Person", name="a", age=30)
        gone = store.create("Person", name="b", age=31)
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.set_value(p, "age", 44)
                store.remove(gone)
                raise RuntimeError("abort")
        assert store.get(p.surrogate) is p
        assert p.get_value("age") == 30
        assert store.get(gone.surrogate) is gone


# ---------------------------------------------------------------------------
# Schema diff
# ---------------------------------------------------------------------------

class TestSchemaDiff:
    def test_identical(self, hospital_schema):
        assert diff_schemas(hospital_schema, hospital_schema) == []
        assert render_diff(hospital_schema,
                           hospital_schema) == "schemas are identical"

    def test_added_and_removed_classes(self):
        from repro.schema import SchemaBuilder
        from repro.typesys import STRING
        b1 = SchemaBuilder()
        b1.cls("A").attr("x", STRING)
        old = b1.build()
        b2 = SchemaBuilder()
        b2.cls("B").attr("x", STRING)
        new = b2.build()
        kinds = {c.kind for c in diff_schemas(old, new)}
        assert kinds == {"class-added", "class-removed"}

    def test_range_and_excuse_changes(self):
        from repro.schema import SchemaBuilder
        b1 = SchemaBuilder()
        b1.cls("P").attr("age", (1, 120))
        b1.cls("Q", isa="P").attr("age", (1, 50))
        old = b1.build()
        b2 = SchemaBuilder()
        b2.cls("P").attr("age", (1, 100))
        b2.cls("Q", isa="P").attr("age", (0, 50), excuses=["P"])
        new = b2.build()
        changes = {(c.kind, c.class_name, c.attribute)
                   for c in diff_schemas(old, new)}
        assert ("range-changed", "P", "age") in changes
        assert ("range-changed", "Q", "age") in changes
        assert ("excuses-changed", "Q", "age") in changes

    def test_parents_changed(self):
        from repro.schema import SchemaBuilder
        b1 = SchemaBuilder()
        b1.cls("A")
        b1.cls("B")
        b1.cls("C", isa="A")
        old = b1.build()
        b2 = SchemaBuilder()
        b2.cls("A")
        b2.cls("B")
        b2.cls("C", isa=["A", "B"])
        new = b2.build()
        changes = diff_schemas(old, new)
        assert [c.kind for c in changes] == ["parents-changed"]
        assert changes[0].after == "A, B"


# ---------------------------------------------------------------------------
# Query explain
# ---------------------------------------------------------------------------

class TestExplain:
    def test_explain_lists_decisions(self, hospital_schema):
        compiled = compile_query(
            "for p in Patient select p.name, p.treatedAt.location.state",
            hospital_schema)
        text = compiled.explain()
        assert "checks: 1 inserted / 4 accesses" in text
        assert "[CHECKED  ] p.treatedAt.location.state" in text
        assert "[unchecked] p.name  -- proven safe" in text

    def test_explain_shows_reasons(self, hospital_schema):
        compiled = compile_query(
            "for p in Patient select p.ward", hospital_schema)
        text = compiled.explain()
        assert "INAPPLICABLE" in text
        assert "Ambulatory_Patient" in text

    def test_baseline_reason(self, hospital_schema):
        compiled = compile_query(
            "for p in Patient select p.name", hospital_schema,
            eliminate_checks=False)
        assert "check elimination disabled" in compiled.explain()


# ---------------------------------------------------------------------------
# Store rebuild (cold-start path: checkpoint, then reopen the directory)
# ---------------------------------------------------------------------------

class TestRebuild:
    def test_full_cold_start(self, hospital_schema, cold_start):
        pop = populate_hospital(schema=hospital_schema, n_patients=40,
                                seed=71, tubercular_fraction=0.1)
        store = cold_start(pop.store)
        assert store.last_recovery.conformant
        assert store.last_recovery.checkpoint_objects == len(pop.store)
        assert len(store) == len(pop.store)
        assert store.count("Patient") == len(pop.patients)
        assert store.count("Hospital$1") == pop.store.count("Hospital$1")

    def test_references_relinked(self, hospital_schema, cold_start):
        pop = populate_hospital(schema=hospital_schema, n_patients=20,
                                seed=72)
        store = cold_start(pop.store)
        for original in pop.patients:
            rebuilt = store.get(original.surrogate)
            doctor = rebuilt.get_value("treatedBy")
            assert doctor is store.get(
                original.get_value("treatedBy").surrogate)

    def test_queries_agree_after_rebuild(self, hospital_schema, cold_start):
        pop = populate_hospital(schema=hospital_schema, n_patients=30,
                                seed=73, tubercular_fraction=0.1)
        store = cold_start(pop.store)
        query = ("for p in Patient select p.name, "
                 "p.treatedAt.location.city")
        original, _ = execute(query, pop.store)
        rebuilt, _ = execute(query, store)
        assert sorted(original) == sorted(rebuilt)

    def test_fresh_surrogates_after_rebuild(self, hospital_schema,
                                            cold_start):
        pop = populate_hospital(schema=hospital_schema, n_patients=10,
                                seed=74)
        store = cold_start(pop.store)
        fresh = store.create("Person", name="new", age=1)
        assert all(fresh.surrogate != obj.surrogate
                   for obj in pop.store.instances())

    def test_virtual_maintenance_works_after_rebuild(self, hospital_schema,
                                                     cold_start):
        pop = populate_hospital(schema=hospital_schema, n_patients=30,
                                seed=75, tubercular_fraction=0.1)
        store = cold_start(pop.store)
        tb = store.get(pop.tubercular[0].surrogate)
        hospital = tb.get_value("treatedAt")
        store.remove(tb)
        still_anchored = any(
            store.get(other.surrogate).get_value("treatedAt") is hospital
            for other in pop.tubercular[1:]
            if other.surrogate in store._objects
        )
        assert store.is_member(hospital, "Hospital$1") == still_anchored

    def test_rebuilt_objects_are_dirty_until_validated(
            self, hospital_schema, cold_start):
        """Nothing vouches for a corrupted object across a restart: it
        stays on the dirty ledger, and ``validate_dirty`` surfaces the
        corruption the checkpoint carried."""
        pop = populate_hospital(schema=hospital_schema, n_patients=10,
                                seed=76)
        victim = pop.patients[0]
        pop.store.set_value(victim, "age", 400,
                            check=CheckMode.NONE)   # corrupt the source
        store = cold_start(pop.store)
        assert victim.surrogate in store._dirty
        assert [(obj.surrogate, v.attribute)
                for obj, v in store.last_recovery.violations] == \
            [(victim.surrogate, "age")]
        problems = store.validate_dirty()
        assert [(obj.surrogate, v.attribute) for obj, v in problems] == \
            [(victim.surrogate, "age")]
        assert set(store._dirty) == {victim.surrogate}

    def test_validated_rebuild_starts_clean(self, hospital_schema,
                                            cold_start):
        pop = populate_hospital(schema=hospital_schema, n_patients=10,
                                seed=77)
        pop.store.validate_dirty()
        store = cold_start(pop.store)
        assert store.last_recovery.conformant
        assert not store._dirty
