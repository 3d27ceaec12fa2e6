"""Conformance checking across whole objects (multi-membership etc.)."""

import pytest

from repro.errors import ConformanceError
from repro.objects import ObjectStore
from repro.objects.store import CheckMode
from repro.semantics import ConformanceChecker
from repro.typesys import EnumSymbol


@pytest.fixture()
def store(hospital_schema):
    return ObjectStore(hospital_schema, check_mode=CheckMode.NONE)


@pytest.fixture()
def checker(hospital_schema):
    return ConformanceChecker(hospital_schema)


def test_conformant_patient(store, checker):
    doc = store.create("Physician", name="D", age=40,
                       specialty=EnumSymbol("General"))
    p = store.create("Patient", name="B", age=30, treatedBy=doc,
                     bloodPressure=EnumSymbol("Normal_BP"))
    assert checker.conforms(p)


def test_range_violation_reported(store, checker):
    p = store.create("Patient", name="B", age=300)
    violations = checker.check(p)
    assert any(v.attribute == "age" and v.class_name == "Person"
               for v in violations)


def test_violation_carries_rule_text(store, checker):
    p = store.create("Patient", name="B", age=300)
    v = [v for v in checker.check(p) if v.attribute == "age"][0]
    assert "IF x in Person THEN" in v.rule


def test_inapplicable_attribute_flagged(store, checker):
    doc = store.create("Physician", name="D", age=40)
    # `supervisor` belongs to Employee, not Physician.
    doc._set_value("supervisor", doc)
    violations = checker.check(doc)
    assert any(v.kind == "inapplicable-attribute"
               and v.attribute == "supervisor" for v in violations)


def test_multi_membership_tightest_wins(store, checker):
    """A renal-failure patient must have high BP -- unless also
    hemorrhaging, in which case low BP is excused (the paper's medical
    policy)."""
    doc = store.create("Physician", name="D", age=40)
    p = store.create("Renal_Failure_Patient", name="R", age=50,
                     treatedBy=doc, bloodPressure=EnumSymbol("High_BP"))
    assert checker.conforms(p)

    store.set_value(p, "bloodPressure", EnumSymbol("Low_BP"),
                    check=CheckMode.NONE)
    assert not checker.conforms(p)

    store.classify(p, "Hemorrhaging_Patient", check=CheckMode.NONE)
    assert checker.conforms(p)


def test_multi_membership_high_bp_not_allowed_when_hemorrhaging(
        store, checker):
    # The excuse is one-directional: Hemorrhaging overrides Renal, so a
    # doubly-classified patient with High_BP violates the Hemorrhaging
    # constraint (nothing excuses it).
    p = store.create("Renal_Failure_Patient", name="R", age=50,
                     bloodPressure=EnumSymbol("High_BP"))
    store.classify(p, "Hemorrhaging_Patient", check=CheckMode.NONE)
    violations = checker.check(p)
    assert any(v.class_name == "Hemorrhaging_Patient" for v in violations)


def test_ambulatory_ward_inapplicable(store, checker):
    p = store.create("Ambulatory_Patient", name="A", age=20)
    assert checker.conforms(p)
    ward = store.create("Ward", floor=3, name="W")
    store.set_value(p, "ward", ward, check=CheckMode.NONE)
    violations = checker.check(p)
    # ward: None on Ambulatory_Patient forbids an actual ward value.
    assert any(v.class_name == "Ambulatory_Patient"
               and v.attribute == "ward" for v in violations)


def test_missing_values_ignored_by_default(store, checker):
    p = store.create("Patient", name="B", age=30)  # no treatedBy yet
    assert checker.conforms(p)


def test_require_values_mode(store, hospital_schema):
    strict = ConformanceChecker(hospital_schema, require_values=True)
    p = store.create("Patient", name="B", age=30)
    violations = strict.check(p)
    assert any(v.kind == "missing-value" and v.attribute == "treatedBy"
               for v in violations)


def test_require_values_waived_by_none_excuse(store, hospital_schema):
    """An Ambulatory patient's missing ward is fine even in strict mode:
    the excuse admits INAPPLICABLE."""
    strict = ConformanceChecker(hospital_schema, require_values=True)
    doc = store.create("Physician", name="D", age=40)
    hosp_violations = [
        v for v in strict.check(
            store.create("Ambulatory_Patient", name="A", age=20,
                         treatedBy=doc))
        if v.attribute == "ward"
    ]
    assert hosp_violations == []


def test_check_attribute_prospective(store, checker):
    doc = store.create("Physician", name="D", age=40)
    shrink = store.create("Psychologist", name="P", age=45,
                          therapyStyle=EnumSymbol("CBT"))
    p = store.create("Patient", name="B", age=30, treatedBy=doc)
    assert checker.check_attribute(p, "treatedBy", shrink)
    assert not checker.check_attribute(p, "treatedBy", doc)


def test_expanded_memberships(checker, store):
    p = store.create("Alcoholic", name="A", age=30)
    assert checker.expanded_memberships(p) == {
        "Alcoholic", "Patient", "Person"}


COUNTERS = ("profile_hits", "profile_misses", "constraints_checked",
            "constraints_skipped", "violations_found", "full_checks",
            "attribute_checks", "delta_checks")


def test_counters_per_operation(hospital_schema):
    """Exact counter deltas of each kind of checked operation.  The e2e
    replay derives ``constraints_per_write``, ``skipped_per_write`` and
    ``profile_hit_ratio`` from these counters, so their meaning at each
    entry point is pinned here."""
    store = ObjectStore(hospital_schema)
    doc = store.create("Physician", name="D", age=40)
    shrink = store.create("Psychologist", name="S", age=45)
    plain = store.create("Patient", name="P", age=30,
                         bloodPressure=EnumSymbol("Low_BP"))
    drunk = store.create("Alcoholic", name="A", age=50)
    stats = store.checker.stats

    def delta(op):
        before = [getattr(stats, name) for name in COUNTERS]
        op()
        return dict(zip(COUNTERS, (getattr(stats, name) - was for name, was
                                   in zip(COUNTERS, before))))

    def rejected():
        with pytest.raises(ConformanceError):
            store.set_value(plain, "treatedBy", shrink)

    rows = [("Patient", {"name": f"b{i}", "age": 20 + i, "treatedBy": doc})
            for i in range(7)]
    rows += [(("Patient", "Alcoholic"),
              {"name": f"a{i}", "treatedBy": shrink}) for i in range(3)]
    observed = {
        "plain set": delta(lambda: store.set_value(plain, "treatedBy", doc)),
        "excused set": delta(
            lambda: store.set_value(drunk, "treatedBy", shrink)),
        "rejected set": delta(rejected),
        "classify": delta(
            lambda: store.classify(plain, "Hemorrhaging_Patient")),
        "declassify": delta(
            lambda: store.declassify(plain, "Hemorrhaging_Patient")),
        "validate all": delta(store.validate_all),
        "eager bulk": delta(
            lambda: store.bulk_load(rows, check="eager")),
    }
    # (hits, misses, checked, skipped, violations, full, attribute, delta)
    expected = {
        # Patient has 7 rows, treatedBy one of them.
        "plain set": (1, 0, 1, 6, 0, 0, 1, 0),
        # Alcoholic has 8 rows, treatedBy two (Patient's and its own).
        "excused set": (1, 0, 2, 6, 0, 0, 1, 0),
        "rejected set": (1, 0, 1, 6, 1, 0, 1, 0),
        # The closure before (a hit), then the new signature (a miss):
        # only Hemorrhaging_Patient's bloodPressure row is checked.
        "classify": (1, 1, 1, 7, 0, 0, 0, 1),
        # The closure before and after, then the loss check; no
        # remaining row is excused by Hemorrhaging_Patient.
        "declassify": (3, 0, 0, 7, 0, 0, 0, 1),
        # One lookup per object; every stored value's rows are checked.
        "validate all": (4, 0, 12, 0, 0, 4, 0, 0),
        # One check per row, as ten ``check`` calls would: the
        # Patient+Alcoholic signature is new (one miss); 7 plain rows of
        # 3 values, 3 excused rows whose treatedBy has two rows.
        "eager bulk": (9, 1, 30, 0, 0, 10, 0, 0),
    }
    assert observed == {op: dict(zip(COUNTERS, counts))
                        for op, counts in expected.items()}


@pytest.mark.parametrize("require_values", [False, True])
def test_sweep_is_one_check_per_entity(hospital_schema, require_values):
    """The whole-store sweep looks a profile up once per signature, yet
    answers the pairs, in order, and ticks the counters that one
    ``check`` per entity does -- over a population with violators spread
    across signatures, and a profile compiled before the sweep."""
    from repro.obs import EngineStats
    from repro.scenarios import populate_hospital
    store = populate_hospital(hospital_schema, n_patients=60, seed=7).store
    for patient in list(store.instances())[-40::7]:
        if "age" in patient.value_names():
            store.set_value(patient, "age", 500, check="none")
    objects = list(store.instances())
    looped = ConformanceChecker(hospital_schema, require_values,
                                EngineStats())
    swept = ConformanceChecker(hospital_schema, require_values,
                               EngineStats())
    for checker in (looped, swept):
        checker.check(objects[-1])
    expected = [(obj, v) for obj in objects for v in looped.check(obj)]
    found = swept.sweep(objects)
    assert len(expected) > 3
    assert [(obj.surrogate, v) for obj, v in found] == [
        (obj.surrogate, v) for obj, v in expected]
    assert swept.stats.snapshot() == looped.stats.snapshot()
    assert swept.stats.profile_misses < swept.stats.profile_hits
