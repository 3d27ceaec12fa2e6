"""Object store: extents, enforcement, rollback, virtual extents."""

import pytest

from repro.errors import (
    ConformanceError,
    NoSuchObjectError,
    StorageError,
    UnknownClassError,
)
from repro.objects import ObjectStore
from repro.objects.store import CheckMode
from repro.typesys import EnumSymbol, INAPPLICABLE


@pytest.fixture()
def store(hospital_schema):
    return ObjectStore(hospital_schema)


@pytest.fixture()
def doc(store):
    return store.create("Physician", name="Dr", age=45,
                        specialty=EnumSymbol("General"))


class TestLifecycle:
    def test_create_assigns_fresh_surrogates(self, store):
        a = store.create("Person", name="a", age=1)
        b = store.create("Person", name="b", age=2)
        assert a.surrogate != b.surrogate
        assert len(store) == 2

    def test_create_unknown_class(self, store):
        with pytest.raises(UnknownClassError):
            store.create("Martian")

    def test_get_by_surrogate(self, store):
        a = store.create("Person", name="a", age=1)
        assert store.get(a.surrogate) is a

    def test_remove(self, store):
        a = store.create("Person", name="a", age=1)
        store.remove(a)
        assert len(store) == 0
        with pytest.raises(NoSuchObjectError):
            store.get(a.surrogate)

    def test_operations_on_removed_object_fail(self, store):
        a = store.create("Person", name="a", age=1)
        store.remove(a)
        with pytest.raises(NoSuchObjectError):
            store.set_value(a, "name", "x")

    def test_failed_create_leaves_no_residue(self, store):
        with pytest.raises(ConformanceError):
            store.create("Person", name="a", age=999)
        assert len(store) == 0
        assert store.count("Person") == 0


class TestExtents:
    def test_extent_propagates_to_superclasses(self, store, doc):
        # "If an object is added to the extent of Physician, it is
        # automatically added to the extents of all its superclasses."
        assert doc in store.extent("Physician")
        assert doc in store.extent("Person")

    def test_extent_excludes_siblings(self, store, doc):
        assert doc not in store.extent("Patient")

    def test_counts(self, store, doc):
        store.create("Patient", name="p", age=20, treatedBy=doc)
        assert store.count("Person") == 2
        assert store.count("Patient") == 1

    def test_removal_leaves_all_extents(self, store, doc):
        store.remove(doc)
        assert store.count("Physician") == 0
        assert store.count("Person") == 0

    def test_exceptional_subclass_extent_included(self, store):
        """The paper's 'extent inclusion' desideratum at run time."""
        shrink = store.create("Psychologist", name="s", age=40,
                              therapyStyle=EnumSymbol("CBT"))
        alc = store.create("Alcoholic", name="al", age=30,
                           treatedBy=shrink)
        assert alc in store.extent("Patient")
        assert alc in store.extent("Person")


class TestEnforcement:
    def test_eager_rejects_bad_value(self, store, doc):
        p = store.create("Patient", name="p", age=20, treatedBy=doc)
        with pytest.raises(ConformanceError):
            store.set_value(p, "age", 500)

    def test_rollback_restores_old_value(self, store, doc):
        p = store.create("Patient", name="p", age=20, treatedBy=doc)
        with pytest.raises(ConformanceError):
            store.set_value(p, "age", 500)
        assert p.get_value("age") == 20

    def test_unknown_attribute_rejected(self, store, doc):
        with pytest.raises(ConformanceError):
            store.set_value(doc, "warpFactor", 9)

    def test_deferred_mode_allows_then_validates(self, hospital_schema):
        store = ObjectStore(hospital_schema,
                            check_mode=CheckMode.DEFERRED)
        store.create("Person", name="a", age=999)
        problems = store.validate_all()
        assert len(problems) == 1
        assert problems[0][1].attribute == "age"

    def test_excuse_respected_on_write(self, store, doc):
        shrink = store.create("Psychologist", name="s", age=40,
                              therapyStyle=EnumSymbol("CBT"))
        alc = store.create("Alcoholic", name="al", age=30)
        store.set_value(alc, "treatedBy", shrink)  # fine: excused
        p = store.create("Patient", name="p", age=20)
        with pytest.raises(ConformanceError):
            store.set_value(p, "treatedBy", shrink)  # not an Alcoholic

    def test_unset_value(self, store, doc):
        p = store.create("Patient", name="p", age=20, treatedBy=doc)
        store.unset_value(p, "treatedBy")
        assert p.get_value("treatedBy") is INAPPLICABLE

    def test_an_unknown_check_is_refused_before_apply_or_journal(
            self, hospital_schema, tmp_path):
        """Not obeyed as "deferred": nothing applies, nothing reaches
        the WAL, and a reopen replays only the accepted create."""
        directory = str(tmp_path / "store")
        store = ObjectStore.open(directory, hospital_schema,
                                 durability="wal")
        p = store.create("Patient", name="p", age=20)
        refused = "field 'check' must be one of"
        for attempt in (
                lambda: store.set_value(p, "age", "old", check="bogus"),
                lambda: store.unset_value(p, "age", check="bogus"),
                lambda: store.classify(p, "Alcoholic", check="bogus"),
                lambda: store.create("Person", check="bogus", age="x"),
                lambda: store.bulk_load([(("Person",), {"age": "x"})],
                                        check="bogus")):
            with pytest.raises(StorageError, match=refused):
                attempt()
        assert p.get_value("age") == 20
        assert p.memberships == {"Patient"} and len(store) == 1
        store.close()
        reopened = ObjectStore.open(directory)
        try:
            assert reopened.last_recovery.replayed == 1
            assert reopened.last_recovery.conformant
            assert reopened.validate_all() == []
        finally:
            reopened.close()


class TestClassify:
    def test_classify_multi_membership(self, store):
        p = store.create("Renal_Failure_Patient", name="r", age=50,
                         bloodPressure=EnumSymbol("High_BP"))
        store.set_value(p, "bloodPressure", EnumSymbol("Low_BP"),
                        check=CheckMode.NONE)
        store.classify(p, "Hemorrhaging_Patient")  # now conformant
        assert store.is_member(p, "Hemorrhaging_Patient")
        assert p in store.extent("Hemorrhaging_Patient")

    def test_classify_rejects_nonconformant(self, store):
        p = store.create("Patient", name="p", age=20,
                         bloodPressure=EnumSymbol("Normal_BP"))
        with pytest.raises(ConformanceError):
            store.classify(p, "Renal_Failure_Patient")  # needs High_BP
        assert not store.is_member(p, "Renal_Failure_Patient")
        assert p not in store.extent("Renal_Failure_Patient")

    def test_declassify(self, store):
        p = store.create("Renal_Failure_Patient", name="r", age=50,
                         bloodPressure=EnumSymbol("High_BP"))
        store.declassify(p, "Renal_Failure_Patient")
        assert not p.memberships
        assert store.count("Patient") == 0

    def test_classify_idempotent(self, store, doc):
        store.classify(doc, "Physician")
        assert store.count("Physician") == 1


class TestVirtualExtents:
    """Section 5.6: implicit extents of H1/A1."""

    def _swiss_hospital(self, store, tag=""):
        addr = store.create("Address", check=CheckMode.NONE,
                            street=f"Bergweg {tag}", city="Zurich")
        store.set_value(addr, "country", EnumSymbol("Switzerland"),
                        check=CheckMode.NONE)
        return store.create("Hospital", check=CheckMode.NONE,
                            location=addr), addr

    def test_assignment_classifies_into_virtuals(self, store, doc):
        hosp, addr = self._swiss_hospital(store)
        tb = store.create("Tubercular_Patient", name="t", age=30,
                          treatedBy=doc)
        store.set_value(tb, "treatedAt", hosp)
        assert store.is_member(hosp, "Hospital$1")
        assert store.is_member(addr, "Address$1")
        assert store.count("Hospital$1") == 1

    def test_reassignment_declassifies_old_value(self, store, doc):
        h1, _ = self._swiss_hospital(store, "1")
        h2, _ = self._swiss_hospital(store, "2")
        tb = store.create("Tubercular_Patient", name="t", age=30,
                          treatedBy=doc)
        store.set_value(tb, "treatedAt", h1)
        store.set_value(tb, "treatedAt", h2)
        assert not store.is_member(h1, "Hospital$1")
        assert store.is_member(h2, "Hospital$1")

    def test_sharing_between_tb_patients_refcounted(self, store, doc):
        hosp, _ = self._swiss_hospital(store)
        t1 = store.create("Tubercular_Patient", name="t1", age=30,
                          treatedBy=doc)
        t2 = store.create("Tubercular_Patient", name="t2", age=31,
                          treatedBy=doc)
        store.set_value(t1, "treatedAt", hosp)
        store.set_value(t2, "treatedAt", hosp)
        store.remove(t1)
        assert store.is_member(hosp, "Hospital$1")  # t2 still anchors it
        store.remove(t2)
        assert not store.is_member(hosp, "Hospital$1")

    def test_tb_patient_rejects_accredited_hospital(self, store, doc):
        addr = store.create("Address", street="1 Main", city="Newark",
                            state=EnumSymbol("NJ"))
        us = store.create("Hospital", location=addr,
                          accreditation=EnumSymbol("State"))
        tb = store.create("Tubercular_Patient", name="t", age=30,
                          treatedBy=doc)
        with pytest.raises(ConformanceError):
            store.set_value(tb, "treatedAt", us)
        assert not store.is_member(us, "Hospital$1")

    def test_unshared_exceptional_structure_enforced(self, store, doc):
        hosp, _ = self._swiss_hospital(store)
        tb = store.create("Tubercular_Patient", name="t", age=30,
                          treatedBy=doc)
        store.set_value(tb, "treatedAt", hosp)
        plain = store.create("Patient", name="p", age=20)
        with pytest.raises(ConformanceError):
            store.set_value(plain, "treatedAt", hosp)

    def test_unshared_enforcement_can_be_disabled(self, hospital_schema,
                                                  ):
        store = ObjectStore(hospital_schema,
                            strict_virtual_extents=False)
        doc = store.create("Physician", name="Dr", age=45)
        hosp, _ = self._swiss_hospital(store)
        tb = store.create("Tubercular_Patient", name="t", age=30,
                          treatedBy=doc)
        store.set_value(tb, "treatedAt", hosp)
        plain = store.create("Patient", name="p", age=20)
        # Class-level semantics alone admits this (H1 <= Hospital).
        store.set_value(plain, "treatedAt", hosp)
        assert plain.get_value("treatedAt") is hosp

    def test_nested_cascade_on_location_change(self, store, doc):
        hosp, addr = self._swiss_hospital(store)
        tb = store.create("Tubercular_Patient", name="t", age=30,
                          treatedBy=doc)
        store.set_value(tb, "treatedAt", hosp)
        # Swap the hospital's address: old address leaves A1.
        addr2 = store.create("Address", check=CheckMode.NONE,
                             street="Rue 9", city="Geneva")
        store.set_value(addr2, "country", EnumSymbol("Switzerland"),
                        check=CheckMode.NONE)
        store.set_value(hosp, "location", addr2)
        assert not store.is_member(addr, "Address$1")
        assert store.is_member(addr2, "Address$1")


class TestDeclassifyRecheck:
    """Membership loss is non-monotonic: leaving the excusing class must
    re-check what the excuse was holding up (and roll back)."""

    def _alcoholic(self, store):
        psy = store.create("Psychologist", name="Dr. P", age=50,
                           therapyStyle=EnumSymbol("CBT"))
        alc = store.create("Patient", name="al", age=40)
        store.classify(alc, "Alcoholic")
        store.set_value(alc, "treatedBy", psy)
        return alc, psy

    def test_declassify_excusing_class_rolls_back(self, store):
        alc, psy = self._alcoholic(store)
        # treatedBy=psy conforms only via the Alcoholic excuse branch;
        # leaving Alcoholic would leave the object nonconformant.
        with pytest.raises(ConformanceError) as exc:
            store.declassify(alc, "Alcoholic")
        assert "treatedBy" in str(exc.value)
        assert store.is_member(alc, "Alcoholic")
        assert store.count("Alcoholic") == 1
        assert alc.get_value("treatedBy") is psy

    def test_declassify_allowed_once_excuse_unneeded(self, store):
        alc, _psy = self._alcoholic(store)
        store.unset_value(alc, "treatedBy")
        store.declassify(alc, "Alcoholic")
        assert not store.is_member(alc, "Alcoholic")
        assert store.is_member(alc, "Patient")

    def test_declassify_unchecked_keeps_residue_dirty(self, store):
        alc, psy = self._alcoholic(store)
        store.declassify(alc, "Alcoholic", check=CheckMode.NONE)
        assert not store.is_member(alc, "Alcoholic")
        problems = store.validate_dirty()
        assert any(obj is alc and v.attribute == "treatedBy"
                   for obj, v in problems)

    def test_declassify_bp_adjudication_rolls_back(self, store, doc):
        p = store.create("Patient", name="r", age=50, treatedBy=doc,
                         bloodPressure=EnumSymbol("Low_BP"))
        store.classify(p, "Hemorrhaging_Patient")
        store.classify(p, "Renal_Failure_Patient")
        # Low_BP conforms to Renal's {'High_BP} only through the
        # Hemorrhaging adjudication excuse.
        with pytest.raises(ConformanceError):
            store.declassify(p, "Hemorrhaging_Patient")
        assert store.is_member(p, "Hemorrhaging_Patient")


class TestRemovePurgesVirtualRefs:
    def _anchored_swiss(self, store, doc):
        addr = store.create("Address", check=CheckMode.NONE,
                            street="Bergweg", city="Zurich")
        store.set_value(addr, "country", EnumSymbol("Switzerland"),
                        check=CheckMode.NONE)
        hosp = store.create("Hospital", check=CheckMode.NONE,
                            location=addr)
        tb = store.create("Tubercular_Patient", name="t", age=30,
                          treatedBy=doc)
        store.set_value(tb, "treatedAt", hosp)
        return tb, hosp, addr

    def test_remove_purges_refcounts_against_the_dead_object(
            self, store, doc):
        tb, hosp, addr = self._anchored_swiss(store, doc)
        assert ("Hospital$1", hosp.surrogate) in store._virtual_refs
        store.remove(hosp)
        assert not any(surrogate == hosp.surrogate
                       for _name, surrogate in store._virtual_refs)

    def test_stale_anchor_release_cannot_corrupt_live_counts(
            self, store, doc):
        tb, hosp, addr = self._anchored_swiss(store, doc)
        # A second Swiss hospital sharing the same address.
        hosp2 = store.create("Hospital", check=CheckMode.NONE,
                             location=addr)
        tb2 = store.create("Tubercular_Patient", name="t2", age=31,
                           treatedBy=doc)
        store.set_value(tb2, "treatedAt", hosp2)
        store.remove(hosp)
        # Dropping the dangling reference to the dead hospital must not
        # cascade through its values and release the live address.
        store.unset_value(tb, "treatedAt")
        assert store.is_member(addr, "Address$1")
        assert ("Address$1", addr.surrogate) in store._virtual_refs

    def test_refcounts_clean_after_remove_and_fresh_anchor(
            self, store, doc):
        tb, hosp, addr = self._anchored_swiss(store, doc)
        store.remove(tb)
        store.remove(hosp)
        store.remove(addr)
        assert store._virtual_refs == {}
        tb2, hosp2, addr2 = self._anchored_swiss(store, doc)
        assert store._virtual_refs == {
            ("Hospital$1", hosp2.surrogate): 1,
            ("Address$1", addr2.surrogate): 1,
        }


class TestUnsetValueChecked:
    def test_unset_goes_through_conformance(self, hospital_schema):
        store = ObjectStore(hospital_schema, require_values=True)
        p = store.create("Person", name="n", age=30)
        with pytest.raises(ConformanceError):
            store.unset_value(p, "name")
        assert p.get_value("name") == "n"

    def test_unset_allowed_when_values_optional(self, store):
        p = store.create("Person", name="n", age=30)
        store.unset_value(p, "name")
        assert p.get_value("name") is INAPPLICABLE

    def test_unset_maintains_virtual_extents(self, store, doc):
        addr = store.create("Address", check=CheckMode.NONE,
                            street="Bergweg", city="Zurich")
        store.set_value(addr, "country", EnumSymbol("Switzerland"),
                        check=CheckMode.NONE)
        hosp = store.create("Hospital", check=CheckMode.NONE,
                            location=addr)
        tb = store.create("Tubercular_Patient", name="t", age=30,
                          treatedBy=doc)
        store.set_value(tb, "treatedAt", hosp)
        store.unset_value(tb, "treatedAt")
        assert not store.is_member(hosp, "Hospital$1")
        assert not store.is_member(addr, "Address$1")

    def test_unset_can_still_be_forced_unchecked(self, hospital_schema):
        store = ObjectStore(hospital_schema, require_values=True)
        p = store.create("Person", name="n", age=30)
        store.unset_value(p, "name", check=CheckMode.NONE)
        assert p.get_value("name") is INAPPLICABLE


class TestEngineObservability:
    def test_stats_counters_move(self, store):
        p = store.create("Person", name="n", age=30)
        store.set_value(p, "age", 31)
        snap = store.stats()
        assert snap["writes"] >= 3          # create's values + the update
        assert snap["attribute_checks"] >= 3
        assert snap["objects"] == 1
        assert snap["rollbacks"] == 0

    def test_deferred_writes_tracked_and_validated_dirty(self, store):
        p = store.create("Person", check=CheckMode.NONE, name="n",
                         age=999)
        assert store.stats()["dirty_objects"] == 1
        problems = store.validate_dirty()
        assert [(obj, v.attribute) for obj, v in problems] == [(p, "age")]
        store.set_value(p, "age", 30, check=CheckMode.NONE)
        assert store.validate_dirty() == []
        assert store.stats()["dirty_objects"] == 0
