"""Edge cases across small modules: errors, instances, facts, rendering."""


from repro.errors import (
    AmbiguousInheritanceError,
    CDLSyntaxError,
    ConformanceError,
    DuplicateClassError,
    QuerySyntaxError,
    UnexcusedContradictionError,
    UnknownAttributeError,
    UnknownClassError,
    Violation,
)
from repro.objects import Instance, Surrogate
from repro.objects.surrogate import SurrogateAllocator
from repro.query.typing import FlowFacts
from repro.typesys import INAPPLICABLE


class TestErrors:
    def test_unknown_class_carries_name(self):
        err = UnknownClassError("Martian")
        assert err.name == "Martian"
        assert "Martian" in str(err)

    def test_unknown_attribute_carries_site(self):
        err = UnknownAttributeError("Person", "warp")
        assert (err.class_name, err.attribute) == ("Person", "warp")

    def test_duplicate_class(self):
        assert "already defined" in str(DuplicateClassError("X"))

    def test_unexcused_contradiction_fields(self):
        err = UnexcusedContradictionError("Alcoholic", "treatedBy",
                                          "Patient", "details here")
        assert err.contradicted == "Patient"
        assert "details here" in str(err)

    def test_syntax_errors_carry_positions(self):
        for cls in (CDLSyntaxError, QuerySyntaxError):
            err = cls("oops", 3, 14)
            assert (err.line, err.column) == (3, 14)
            assert "line 3" in str(err)

    def test_conformance_error_fields(self):
        violation = Violation("constraint", "Patient", "age", 999, "too old")
        err = ConformanceError(5, violation)
        assert (err.sid, err.violation) == (5, violation)
        assert (err.class_name, err.attribute) == ("Patient", "age")
        assert "too old" in str(err)

    def test_ambiguous_inheritance_lists_candidates(self):
        err = AmbiguousInheritanceError("C", "a", ("X", "Y"))
        assert "'X'" in str(err) and "'Y'" in str(err)


class TestInstances:
    def test_getitem(self):
        obj = Instance(Surrogate(1), {"Person"}, {"name": "ada"})
        assert obj["name"] == "ada"
        assert obj["missing"] is INAPPLICABLE

    def test_values_snapshot_is_a_copy(self):
        obj = Instance(Surrogate(1), {"Person"}, {"name": "ada"})
        snap = obj.values_snapshot()
        snap["name"] = "changed"
        assert obj.get_value("name") == "ada"

    def test_set_inapplicable_unsets(self):
        obj = Instance(Surrogate(1), {"Person"}, {"name": "ada"})
        obj._set_value("name", INAPPLICABLE)
        assert obj.value_names() == ()

    def test_repr_mentions_classes(self):
        obj = Instance(Surrogate(7), {"B", "A"})
        assert repr(obj) == "<Instance @7 : A,B>"
        assert repr(Instance(Surrogate(8), ())) == "<Instance @8 : <none>>"

    def test_memberships_frozen_view(self):
        obj = Instance(Surrogate(1), {"Person"})
        view = obj.memberships
        obj._add_membership("Employee")
        assert "Employee" not in view  # snapshots do not alias


class TestSurrogates:
    def test_ordering_and_str(self):
        assert Surrogate(1) < Surrogate(2)
        assert str(Surrogate(42)) == "@42"

    def test_allocator_monotone(self):
        alloc = SurrogateAllocator()
        a, b = alloc.allocate(), alloc.allocate()
        assert b.id == a.id + 1
        assert alloc.high_water_mark == b.id + 1


class TestFlowFacts:
    def test_assume_is_persistent_copy(self, hospital_schema):
        base = FlowFacts()
        extended = base.assume("p", "Alcoholic", True)
        assert extended.known_in(hospital_schema, "p", "Patient")
        assert not base.known_in(hospital_schema, "p", "Patient")

    def test_negative_subclass_reasoning(self, hospital_schema):
        facts = FlowFacts().assume("p", "Patient", False)
        # not-in Patient implies not-in every Patient subclass...
        assert facts.known_not_in(hospital_schema, "p", "Alcoholic")
        # ...but says nothing about superclasses.
        assert not facts.known_not_in(hospital_schema, "p", "Person")

    def test_positive_superclass_reasoning(self, hospital_schema):
        facts = FlowFacts().assume("p", "Alcoholic", True)
        assert facts.known_in(hospital_schema, "p", "Person")
        assert not facts.known_in(hospital_schema, "p",
                                  "Tubercular_Patient")

    def test_none_key(self, hospital_schema):
        facts = FlowFacts()
        assert not facts.known_in(hospital_schema, None, "Person")
        assert not facts.known_not_in(hospital_schema, None, "Person")


class TestComparisonEdges:
    def test_out_of_range_literal_flagged_vacuous(self, hospital_schema):
        from repro.query import analyze
        report = analyze("for p in Patient where p.age = 200 "
                         "select p.name", hospital_schema)
        # age: 1..120 and the singleton 200..200 share no values.
        assert any("no values" in f.reason for f in report.findings)

    def test_in_range_literal_fine(self, hospital_schema):
        from repro.query import analyze
        report = analyze("for p in Patient where p.age = 40 "
                         "select p.name", hospital_schema)
        assert report.is_safe

    def test_string_order_comparison(self, hospital_schema):
        from repro.query import analyze
        report = analyze('for p in Patient where p.name >= "M" '
                         "select p.name", hospital_schema)
        assert report.is_safe


class TestRenderTableEdges:
    def test_empty_rows(self):
        from repro.evaluation import render_table
        text = render_table(["a", "b"], [])
        assert text.splitlines()[0] == "a  b"

    def test_column_wider_than_header(self):
        from repro.evaluation import render_table
        text = render_table(["x"], [["long-value"]])
        lines = text.splitlines()
        assert len(lines[1]) == len("long-value")
