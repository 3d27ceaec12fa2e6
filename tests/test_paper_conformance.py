"""Paper-conformance sweep: every concrete claim, organized by section.

One consolidated module asserting, section by section, that each worked
example and stated outcome in Borgida (SIGMOD 1988) holds in this
implementation.  Where another test module already covers a claim in
depth, this module checks it from the user-visible angle (CDL text in,
observable behaviour out), so it doubles as an executable index into the
paper.
"""

import pytest

from repro import (
    ObjectStore,
    analyze,
    compile_query,
    execute,
    is_subtype,
    load_schema,
)
from repro.errors import ConformanceError, SchemaError
from repro.objects.store import CheckMode
from repro.scenarios import build_employee_schema, build_hospital_schema
from repro.typesys import ClassType, EnumSymbol, RecordType


@pytest.fixture(scope="module")
def hospital():
    return build_hospital_schema()


class TestSection1_Introduction:
    def test_intro_class_figure_parses(self):
        schema = load_schema("""
            class Address with
              street: String; city: String; state: {'AL, ..., 'WV};
            class Person with
              name: String; age: 1..120; home: Address;
            class Employee is-a Person with
              age: 16..65; supervisor: Employee; office: Address;
        """)
        assert schema.is_subclass("Employee", "Person")

    def test_temporary_employees_have_no_salary(self):
        schema = build_employee_schema()
        store = ObjectStore(schema)
        temp = store.create("Temporary_Employee", name="t", age=30,
                            lumpSum=5000)
        assert store.checker.conforms(temp)
        with pytest.raises(ConformanceError):
            store.set_value(temp, "salary", 4000)

    def test_executives_supervised_by_board_members(self):
        schema = build_employee_schema()
        store = ObjectStore(schema)
        board = store.create("Board_Member", name="b", age=70,
                             committee="audit")
        executive = store.create("Executive", name="e", age=50,
                                 salary=200000, supervisor=board)
        assert store.checker.conforms(executive)
        # Ordinary employees may NOT be supervised by board members.
        with pytest.raises(ConformanceError):
            store.create("Employee", name="w", age=40, salary=50000,
                         supervisor=board)


class TestSection2_RolesOfClasses:
    def test_2a_type_errors_detected(self, hospital):
        # "flag an attempt to evaluate the supervisor of an arbitrary
        # person"
        assert analyze("for p in Person select p.supervisor",
                       hospital).errors

    def test_2b_inline_record_types(self):
        schema = load_schema("""
            class Person with
              home: [street: String; city: String];
              office: [street: String; city: String; room#: 1..9999];
        """)
        office = schema.get("Person").attribute("office").range
        assert isinstance(office, RecordType)
        assert str(office.field_type("room#")) == "1..9999"

    def test_2c_extents_with_create_and_remove(self, hospital):
        store = ObjectStore(hospital)
        person = store.create("Person", name="x", age=20)
        assert store.count("Person") == 1
        store.remove(person)
        assert store.count("Person") == 0

    def test_2e_classes_are_not_their_metaclass_subclasses(self):
        # Covered in depth by test_metaclasses; here just the IS-A claim.
        from repro.schema.metaclasses import MetaClass, MetaClassRegistry
        schema = load_schema("class Secretary with name: String;")
        registry = MetaClassRegistry(schema)
        registry.define(MetaClass("Employee_Class"))
        registry.classify_class("Secretary", "Employee_Class")
        assert not schema.is_subclass("Secretary", "Employee_Class")


class TestSection3_Hierarchies:
    def test_range_refinement_during_specialization(self, hospital):
        # treatedBy refined to Oncologist for Cancer_Patient -- legal
        # because Oncologist IS-A Physician.
        assert hospital.attribute_type("Cancer_Patient", "treatedBy") == \
            ClassType("Oncologist")

    def test_3a_polymorphism(self, hospital):
        for sub in ("Alcoholic", "Tubercular_Patient", "Cancer_Patient"):
            assert is_subtype(ClassType(sub), ClassType("Patient"),
                              hospital)

    def test_3c_extent_propagation(self, hospital):
        store = ObjectStore(hospital)
        doc = store.create("Oncologist", name="o", age=50,
                           specialty=EnumSymbol("Oncology"))
        assert doc in store.extent("Physician")
        assert doc in store.extent("Person")

    def test_3d_consistency_check_on_definitions(self):
        # "the age restrictions of Employees must imply the age
        # restrictions of Persons"
        with pytest.raises(SchemaError):
            load_schema("""
                class Person with age: 1..120;
                class Employee is-a Person with age: 16..150;
            """)


class TestSection4_NonStrictHierarchies:
    def test_alcoholic_not_a_proper_specialization(self):
        with pytest.raises(SchemaError):
            load_schema("""
                class Person with end
                class Physician is-a Person with end
                class Psychologist is-a Person with end
                class Patient is-a Person with treatedBy: Physician;
                class Alcoholic is-a Patient with
                  treatedBy: Psychologist;
            """)

    def test_ward_inapplicable_for_ambulatory(self, hospital):
        store = ObjectStore(hospital)
        amb = store.create("Ambulatory_Patient", name="a", age=30)
        ward = store.create("Ward", floor=2, name="W")
        with pytest.raises(ConformanceError):
            store.set_value(amb, "ward", ward)

    def test_blood_pressure_policy(self, hospital):
        # "it is part of conventional medical wisdom that such a patient
        # would have low blood pressure"
        store = ObjectStore(hospital)
        p = store.create("Renal_Failure_Patient", name="r", age=50,
                         bloodPressure=EnumSymbol("High_BP"))
        store.classify(p, "Hemorrhaging_Patient", check=CheckMode.NONE)
        store.set_value(p, "bloodPressure", EnumSymbol("Low_BP"))
        assert store.checker.conforms(p)


class TestSection5_TheProposal:
    def test_excuse_restores_subset_and_subtype(self, hospital):
        assert is_subtype(ClassType("Alcoholic"), ClassType("Patient"),
                          hospital)
        store = ObjectStore(hospital)
        shrink = store.create("Psychologist", name="s", age=40,
                              therapyStyle=EnumSymbol("CBT"))
        alc = store.create("Alcoholic", name="a", age=30,
                           treatedBy=shrink)
        assert alc in store.extent("Patient")

    def test_excuses_ignore_hierarchy_topology(self, hospital):
        # Hemorrhaging excuses a constraint on Renal_Failure even though
        # neither is an ancestor of the other.
        assert not hospital.is_subclass("Hemorrhaging_Patient",
                                        "Renal_Failure_Patient")
        entries = hospital.excuses_against("Renal_Failure_Patient",
                                           "bloodPressure")
        assert entries

    def test_5_4_type_assertions(self, hospital):
        from repro.typesys.theory import render_theory
        lines = set(render_theory(hospital).splitlines())
        assert ("Patient < [treatedBy: Physician + Psychologist/Alcoholic]"
                in lines)

    def test_5_4_checker_judgments(self, hospital):
        assert analyze("for p in Patient select "
                       "p.treatedAt.location.city", hospital).is_safe
        assert not analyze("for p in Patient select "
                           "p.treatedAt.location.state",
                           hospital).is_safe
        assert analyze(
            "for p in Patient where p not in Tubercular_Patient "
            "select p.treatedAt.location.state", hospital).is_safe

    def test_5_4_check_elimination_speeds_queries(self, hospital):
        from repro.scenarios import populate_hospital
        pop = populate_hospital(schema=hospital, n_patients=50, seed=91)
        fast = compile_query(
            "for p in Patient select p.treatedAt.location.city",
            hospital)
        _rows, stats = execute(fast, pop.store)
        assert stats.checks_executed == 0

    def test_5_5_storage_partitioning(self, hospital):
        from repro.objects.profiles import profile_catalog, record_format
        from repro.scenarios import populate_hospital
        pop = populate_hospital(schema=hospital, n_patients=40, seed=92,
                                tubercular_fraction=0.1)
        swiss = next(p for p in profile_catalog(pop.store).values()
                     if "Hospital$1" in p.classes)
        assert swiss.classes == ("Hospital", "Hospital$1")
        assert "accreditation" not in record_format(hospital, swiss.classes)

    def test_5_6_virtual_extents_implicit(self, hospital):
        from repro.scenarios import populate_hospital
        pop = populate_hospital(schema=hospital, n_patients=40, seed=93,
                                tubercular_fraction=0.1)
        # "the extent of H1 [is] exactly those objects which are the
        # values of treatedAt attributes for some Tubercular_Patient"
        anchored = {t.get_value("treatedAt").surrogate
                    for t in pop.tubercular}
        extent = {h.surrogate for h in pop.store.extent("Hospital$1")}
        assert extent == anchored


class TestSection6_Summary:
    def test_class_vs_type_separation(self, hospital):
        # The class definition alone is not the type: the relaxed
        # constraint folds in the excuses.
        declared = hospital.get("Patient").attribute("treatedBy").range
        relaxed = hospital.relaxed_constraint("Patient", "treatedBy")
        assert str(declared) == "Physician"
        assert str(relaxed) == "Physician + Psychologist/Alcoholic"

    def test_anonymous_range_types_without_identifiers(self):
        # "the ability to define types of attribute structures without
        # naming them ... Physician [certifiedBy: {'ABO}]"
        schema = load_schema("""
            class Person with end
            class Physician is-a Person with end
            class Patient is-a Person with treatedBy: Physician;
            class Certified is-a Patient with
              treatedBy: Physician [certifiedBy: {'ABO}];
        """)
        virtual = schema.attribute_type("Certified", "treatedBy")
        assert schema.get(virtual.name).virtual
        assert schema.is_subclass(virtual.name, "Physician")
