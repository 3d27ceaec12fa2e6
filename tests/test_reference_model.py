"""The reference model earns its keep on the paper's own cases.

``tests/reference_model.py`` is what the property suites hold the store
to, so it is itself held to the worked examples: over the hospital
population and the Section 1 employee fixtures it must report, object by
object, exactly what ``store.validate_all()`` reports -- nothing for the
excused exceptions, one violation of each kind for the deliberately
broken objects.
"""

from repro.objects.store import CheckMode, ObjectStore
from repro.scenarios import (
    build_employee_schema,
    build_hospital_schema,
    populate_hospital,
)
from repro.typesys import EnumSymbol

from tests import reference_model
from tests.reference_model import (
    ReferenceChecker,
    on_reference,
    reference_check,
)


def _store_verdicts(store):
    verdicts = {obj.surrogate: [] for obj in store.instances()}
    for obj, violation in store.validate_all():
        verdicts[obj.surrogate].append(violation)
    return verdicts


def _reference_verdicts(store):
    checker = store.checker
    return {obj.surrogate: reference_check(store.schema, obj,
                                           checker.require_values)
            for obj in store.instances()}


def _keys(violations):
    return [(v.kind, v.class_name, v.attribute) for v in violations]


def test_agrees_with_validate_all_on_hospital_population():
    pop = populate_hospital(n_patients=120, seed=1988)
    store = pop.store
    psychologist = pop.psychologists[0]

    # The excused exceptions are in the population and conform.
    alcoholic = pop.alcoholics[0]
    assert store.is_member(alcoholic.get_value("treatedBy"), "Psychologist")
    tubercular = pop.tubercular[0]
    swiss = tubercular.get_value("treatedAt")
    assert store.is_member(swiss, "Hospital$1")       # virtual class ...
    assert store.is_member(swiss.get_value("location"), "Address$1")
    for excused in (alcoholic, tubercular, swiss,
                    swiss.get_value("location")):
        assert reference_check(store.schema, excused) == []

    # One deliberately non-conformant object per violation kind the
    # values-optional store can hold.
    plain = pop.patients[0]
    store.set_value(plain, "treatedBy", psychologist, check=CheckMode.NONE)
    person = store.create("Person", name="stray", age=30)
    store.set_value(person, "ward", store.extent("Ward")[0],
                    check=CheckMode.NONE)

    expected = _store_verdicts(store)
    assert _reference_verdicts(store) == expected
    assert _keys(expected[plain.surrogate]) == [
        ("constraint", "Patient", "treatedBy")]
    assert _keys(expected[person.surrogate]) == [
        ("inapplicable-attribute", "?", "ward")]
    assert sum(map(len, expected.values())) == 2


def test_agrees_when_values_are_required():
    store = ObjectStore(build_hospital_schema(), require_values=True)
    nameless = store.create("Person", check=CheckMode.NONE, age=30)
    store.create("Ward", floor=2, name="W")
    expected = _store_verdicts(store)
    assert _reference_verdicts(store) == expected
    assert _keys(expected[nameless.surrogate]) == [
        ("missing-value", "Person", "name"),
        ("missing-value", "Person", "home")]


def test_agrees_on_the_section_1_employee_examples():
    store = ObjectStore(build_employee_schema())
    store.create("Temporary_Employee", name="t", age=30, lumpSum=5000)
    board = store.create("Board_Member", name="b", age=70,
                         committee="audit")
    store.create("Executive", name="e", age=50, salary=200000,
                 supervisor=board)
    salaried_temp = store.create("Temporary_Employee", name="u", age=31,
                                 lumpSum=100)
    store.set_value(salaried_temp, "salary", 4000, check=CheckMode.NONE)
    expected = _store_verdicts(store)
    assert _reference_verdicts(store) == expected
    assert [s for s, found in expected.items() if found] == [
        salaried_temp.surrogate]


def test_candidate_values_answer_what_if():
    """``check_attribute`` asks about a value not stored yet; the
    reference answers for the whole object with that value in place."""
    pop = populate_hospital(n_patients=20, seed=7)
    store = pop.store
    reference = ReferenceChecker(store.schema)
    plain, alcoholic = pop.patients[0], pop.alcoholics[0]
    psychologist = pop.psychologists[0]
    for patient in (plain, alcoholic):
        for value in (psychologist, pop.physicians[0], EnumSymbol("NJ")):
            assert (reference.check_attribute(patient, "treatedBy", value)
                    == store.checker.check_attribute(
                        patient, "treatedBy", value))
    assert reference.check_attribute(alcoholic, "treatedBy",
                                     psychologist) == []
    assert _keys(reference.check_attribute(
        plain, "treatedBy", psychologist)) == [
            ("constraint", "Patient", "treatedBy")]


def test_bulk_rows_are_checked_by_the_reference(monkeypatch):
    """An eager bulk batch on a store running the reference is checked by
    the reference, row by row -- not by the generated checks the
    reference is there to judge."""
    checked = []
    original = reference_model.reference_check

    def counting(schema, entity, *rest):
        checked.append(entity)
        return original(schema, entity, *rest)

    monkeypatch.setattr(reference_model, "reference_check", counting)
    store = on_reference(ObjectStore(build_hospital_schema()))
    report = store.bulk_load(
        [("Patient", {"name": f"p{i}", "age": 30 + i}) for i in range(10)],
        check="eager")
    assert report.fast_objects == 10
    assert len(checked) >= 10
