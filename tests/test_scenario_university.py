"""The university scenario: a second domain for the same constructs."""

import pytest

from repro.errors import ConformanceError
from repro.query import analyze, execute
from repro.scenarios.university import (
    build_university_schema,
    populate_university,
)
from repro.typesys import EnumSymbol


@pytest.fixture(scope="module")
def schema():
    return build_university_schema()


@pytest.fixture(scope="module")
def pop(schema):
    return populate_university(schema=schema, n_students=40, seed=4)


class TestSchema:
    def test_grade_conditional_type(self, schema):
        relaxed = schema.relaxed_constraint("Enrollment", "grade")
        assert str(relaxed) == ("{'A, 'B, 'C, 'D, 'F} + "
                                "None/Audit_Enrollment + "
                                "{'Fail, 'Pass}/PassFail_Enrollment")

    def test_visiting_professor_department_excused(self, schema):
        entries = schema.excuses_against("Faculty", "department")
        assert {e.excusing_class for e in entries} == {
            "Visiting_Professor"}

    def test_emeritus_teaches_nothing(self, schema):
        from repro.typesys import NONE
        assert schema.attribute_type("Emeritus_Professor",
                                     "teaches") == NONE


class TestPopulation:
    def test_conformant(self, pop):
        assert pop.store.validate_all() == []

    def test_audits_have_no_grade(self, pop):
        from repro.typesys import INAPPLICABLE
        assert all(a.get_value("grade") is INAPPLICABLE
                   for a in pop.audits)

    def test_regular_enrollment_rejects_pass_grade(self, pop):
        regular = next(e for e in pop.enrollments
                       if e.memberships == frozenset({"Enrollment"}))
        with pytest.raises(ConformanceError):
            pop.store.set_value(regular, "grade", EnumSymbol("Pass"))

    def test_pass_fail_rejects_letter_grade(self, pop):
        if not pop.pass_fail:
            pytest.skip("no pass/fail enrollments in this population")
        with pytest.raises(ConformanceError):
            pop.store.set_value(pop.pass_fail[0], "grade",
                                EnumSymbol("B"))


class TestStorage:
    def test_audit_partition_has_no_grade_field(self, pop):
        from repro.objects.profiles import profile_catalog, record_format
        schema = pop.store.schema
        formats = {p.classes: record_format(schema, p.classes)
                   for p in profile_catalog(pop.store).values()}
        assert "grade" not in formats[("Audit_Enrollment",)]
        assert "grade" in formats[("Enrollment",)]
        assert formats[("PassFail_Enrollment",)]["grade"] == "symbol"


class TestQueries:
    def test_grade_access_unsafe_unguarded(self, schema):
        report = analyze("for e in Enrollment select e.grade", schema)
        assert not report.is_safe
        assert any("Audit_Enrollment" in str(f.assumptions)
                   for f in report.unsafe)

    def test_guarded_grade_access_safe(self, schema):
        report = analyze(
            "for e in Enrollment where e not in Audit_Enrollment and "
            "e not in PassFail_Enrollment select e.grade", schema)
        assert report.is_safe

    def test_letter_grades_only_for_regulars(self, pop, schema):
        rows, stats = execute(
            "for e in Enrollment where e not in Audit_Enrollment and "
            "e not in PassFail_Enrollment select e.grade", pop.store)
        letters = {EnumSymbol(g) for g in "ABCDF"}
        assert all(g in letters for (g,) in rows)
        assert stats.checks_executed == 0

    def test_audit_count(self, pop):
        rows, _ = execute(
            "for e in Enrollment where e in Audit_Enrollment "
            "select count", pop.store)
        assert rows == [(len(pop.audits),)]

    def test_average_credits(self, pop):
        rows, _ = execute("for c in Course select avg c.credits",
                          pop.store)
        credits = [c.get_value("credits") for c in pop.courses]
        assert rows[0][0] == pytest.approx(sum(credits) / len(credits))
