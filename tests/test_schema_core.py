"""Schema registry, hierarchy queries, constraints, and excuse registry."""

import inspect
import textwrap

import pytest

from repro.errors import (
    CyclicHierarchyError,
    DuplicateClassError,
    UnknownAttributeError,
    UnknownClassError,
)
from repro import load_schema
from repro.objects import ObjectStore
from repro.scenarios.hospital import HOSPITAL_CDL
from repro.schema import AttributeDef, ClassDef, ExcuseRef, Schema
from repro.schema import schema as schema_module
from repro.schema.classdef import VirtualOrigin
from repro.schema.evolution import apply_change
from repro.typesys import (
    STRING,
    ClassType,
    ConditionalType,
    IntRangeType,
)


def attr(name, range_, *excuse_targets):
    return AttributeDef(name, range_,
                        tuple(ExcuseRef(t, name) for t in excuse_targets))


@pytest.fixture()
def schema():
    s = Schema()
    s.add_class(ClassDef("Person", (), (
        attr("name", STRING), attr("age", IntRangeType(1, 120)))))
    s.add_class(ClassDef("Physician", ("Person",), ()))
    s.add_class(ClassDef("Psychologist", ("Person",), ()))
    s.add_class(ClassDef("Patient", ("Person",), (
        attr("treatedBy", ClassType("Physician")),)))
    s.add_class(ClassDef("Alcoholic", ("Patient",), (
        attr("treatedBy", ClassType("Psychologist"), "Patient"),)))
    return s


class TestRegistry:
    def test_len_and_contains(self, schema):
        assert len(schema) == 5
        assert "Patient" in schema
        assert "Martian" not in schema

    def test_duplicate_rejected(self, schema):
        with pytest.raises(DuplicateClassError):
            schema.add_class(ClassDef("Person"))

    def test_unknown_parent_rejected(self, schema):
        with pytest.raises(UnknownClassError):
            schema.add_class(ClassDef("X", ("Martian",)))

    def test_self_parent_rejected(self, schema):
        with pytest.raises(CyclicHierarchyError):
            schema.add_class(ClassDef("Loop", ("Loop",)))

    def test_get_unknown(self, schema):
        with pytest.raises(UnknownClassError):
            schema.get("Martian")

    def test_remove_leaf(self, schema):
        schema.remove_class("Alcoholic")
        assert "Alcoholic" not in schema

    def test_remove_parent_refused(self, schema):
        with pytest.raises(CyclicHierarchyError):
            schema.remove_class("Patient")

    def test_replace_class(self, schema):
        old = schema.replace_class(ClassDef("Physician", ("Person",), (
            attr("pager", STRING),)))
        assert old.attributes == ()
        assert schema.get("Physician").attribute("pager") is not None

    def test_replace_detects_cycle(self, schema):
        with pytest.raises(CyclicHierarchyError):
            schema.replace_class(ClassDef("Person", ("Alcoholic",), ()))
        # rolled back
        assert schema.get("Person").parents == ()


class TestHierarchy:
    def test_ancestors_include_self(self, schema):
        assert schema.ancestors("Alcoholic") == {
            "Alcoholic", "Patient", "Person"}

    def test_descendants(self, schema):
        assert schema.descendants("Person") == {
            "Person", "Physician", "Psychologist", "Patient", "Alcoholic"}

    def test_children(self, schema):
        assert set(schema.children("Person")) == {
            "Physician", "Psychologist", "Patient"}

    def test_roots(self, schema):
        assert schema.roots() == ("Person",)

    def test_is_subclass(self, schema):
        assert schema.is_subclass("Alcoholic", "Person")
        assert not schema.is_subclass("Person", "Alcoholic")
        assert schema.is_subclass("Person", "Person")

    def test_multiple_inheritance_dag(self, schema):
        schema.add_class(ClassDef("Quaker", ("Person",), ()))
        schema.add_class(ClassDef("QR", ("Quaker", "Physician"), ()))
        assert schema.ancestors("QR") == {
            "QR", "Quaker", "Physician", "Person"}


class TestConstraints:
    def test_applicable_attribute_names(self, schema):
        assert schema.applicable_attribute_names("Alcoholic") == (
            "age", "name", "treatedBy")

    def test_applicable_constraints_collect_ancestry(self, schema):
        owners = {c.owner for c in schema.applicable_constraints(
            "Alcoholic")}
        assert owners == {"Person", "Patient", "Alcoholic"}

    def test_attribute_constraints_most_specific_first(self, schema):
        constraints = schema.attribute_constraints("Alcoholic", "treatedBy")
        assert constraints[0].owner == "Alcoholic"
        assert constraints[1].owner == "Patient"

    def test_unknown_attribute(self, schema):
        with pytest.raises(UnknownAttributeError):
            schema.attribute_constraints("Person", "treatedBy")

    def test_effective_record(self, schema):
        record = schema.effective_record("Alcoholic")
        assert record.field_type("treatedBy") == ClassType("Psychologist")
        assert record.field_type("age") == IntRangeType(1, 120)

    def test_effective_record_unknown_class(self, schema):
        assert schema.effective_record("Martian") is None


class TestExcuseRegistry:
    def test_excuses_against(self, schema):
        entries = schema.excuses_against("Patient", "treatedBy")
        assert len(entries) == 1
        assert entries[0].excusing_class == "Alcoholic"
        assert entries[0].range == ClassType("Psychologist")

    def test_no_excuses(self, schema):
        assert schema.excuses_against("Person", "age") == ()

    def test_excuse_pairs(self, schema):
        assert schema.excuse_pairs() == (("Patient", "treatedBy"),)

    def test_registry_invalidated_on_mutation(self, schema):
        schema.add_class(ClassDef("Ambulatory", ("Patient",), (
            attr("age", IntRangeType(0, 200), "Person"),)))
        assert len(schema.excuses_against("Person", "age")) == 1

    def test_is_excused_by_membership(self, schema):
        assert schema.is_excused_by_membership(
            "Patient", "treatedBy", {"Alcoholic"})
        assert not schema.is_excused_by_membership(
            "Patient", "treatedBy", {"Patient"})

    def test_membership_implication_via_subclass(self, schema):
        schema.add_class(ClassDef("SpecialAlc", ("Alcoholic",), ()))
        assert schema.is_excused_by_membership(
            "Patient", "treatedBy", {"SpecialAlc"})


class TestTypeTranslation:
    def test_relaxed_constraint_is_conditional(self, schema):
        t = schema.relaxed_constraint("Patient", "treatedBy")
        assert isinstance(t, ConditionalType)
        assert str(t) == "Physician + Psychologist/Alcoholic"

    def test_relaxed_constraint_without_excuses_is_plain(self, schema):
        assert schema.relaxed_constraint("Person", "name") == STRING

    def test_attribute_type_uses_most_specific_owner(self, schema):
        assert schema.attribute_type("Alcoholic", "treatedBy") == \
            ClassType("Psychologist")
        assert str(schema.attribute_type("Patient", "treatedBy")) == \
            "Physician + Psychologist/Alcoholic"

    def test_relaxed_constraint_unknown_attribute(self, schema):
        with pytest.raises(UnknownAttributeError):
            schema.relaxed_constraint("Patient", "name")  # owned by Person


# ---------------------------------------------------------------------------
# Cached owner rows and virtual classes: after every mutation they equal a
# fresh walk of the class definitions, which reads no schema cache.
# ---------------------------------------------------------------------------

def _fresh_ancestors(schema, name):
    found, stack = set(), [name]
    while stack:
        current = stack.pop()
        if current not in found:
            found.add(current)
            stack.extend(schema.get(current).parents)
    return found


def fresh_owner_rows(schema, classes, attribute):
    """``(owner, declared range)`` per declaring ancestor, each owner
    once: classes by name, each one's ancestors by name."""
    rows = {}
    for name in sorted(classes):
        if name in schema.class_names():
            for ancestor in sorted(_fresh_ancestors(schema, name)):
                decl = schema.get(ancestor).attribute(attribute)
                if decl is not None and ancestor not in rows:
                    rows[ancestor] = decl.range
    return tuple(rows.items())


def assert_caches_fresh(schema):
    names = sorted(schema.class_names())
    attributes = sorted({a.name for c in schema.classes()
                         for a in c.attributes}) + ["nope"]
    probes = ([frozenset({n}) for n in names + ["Frail", "Nobody"]]
              + [frozenset(pair) for pair in zip(names, names[1:])]
              + [frozenset()])
    for classes in probes:
        for attribute in attributes:
            assert schema.owner_rows(classes, attribute) == fresh_owner_rows(
                schema, classes, attribute), (sorted(classes), attribute)
    assert schema.virtual_classes() == tuple(
        c for c in schema.classes() if c.virtual)


_FRAIL = ClassDef("Frail", ("Patient",), (attr("frailty", STRING),))
_VIRTUAL = ClassDef("Ward$1", ("Ward",), (attr("floor", STRING),),
                    virtual=True, origin=VirtualOrigin("Patient", "ward"))


def check_mutations():
    """Each schema mutation, its caches warm before it."""
    schema = load_schema(HOSPITAL_CDL)
    steps = [
        lambda: schema.add_class(_FRAIL),
        lambda: schema.add_class(_VIRTUAL),
        lambda: schema.replace_class(ClassDef(
            "Frail", ("Employee",), (attr("age", IntRangeType(60, 120)),))),
        lambda: schema.replace_class(ClassDef(
            "Ward$1", ("Ward",), (), virtual=False)),
        lambda: schema.remove_class("Ward$1"),
        lambda: schema.remove_class("Frail"),
    ]
    for step in steps:
        assert_caches_fresh(schema)
        step()
    assert_caches_fresh(schema)
    # A replacement that would close an IS-A cycle is rolled back.
    schema.add_class(_FRAIL)
    assert_caches_fresh(schema)
    with pytest.raises(CyclicHierarchyError):
        schema.replace_class(ClassDef("Patient", ("Frail",), ()))
    assert_caches_fresh(schema)
    # The online-evolution primitive, committed and rolled back.
    assert apply_change(schema, ClassDef("Frail", ("Patient",), (
        attr("treatedBy", ClassType("Psychologist"), "Patient"),))) == (
        [], False)
    assert_caches_fresh(schema)
    diagnostics, rolled_back = apply_change(schema, ClassDef(
        "Frail", ("Patient",), (attr("treatedBy", ClassType("Ward")),)))
    assert rolled_back and diagnostics
    assert_caches_fresh(schema)
    # An online alter on a live store: its next schema epoch.
    store = ObjectStore(load_schema(HOSPITAL_CDL))
    assert_caches_fresh(store.schema)
    store.alter_class(_FRAIL)
    assert_caches_fresh(store.schema)


def test_cached_owner_rows_and_virtual_classes_follow_every_mutation():
    check_mutations()


@pytest.mark.parametrize("line", [
    "self._owner_rows.clear()", "self._virtual = None"])
def test_mutant_cache_not_cleared_in_invalidate_is_killed(monkeypatch, line):
    source = textwrap.dedent(inspect.getsource(Schema._invalidate))
    assert source.count(line) == 1
    namespace = dict(vars(schema_module))
    exec(source.replace(line, "pass"), namespace)
    monkeypatch.setattr(Schema, "_invalidate", namespace["_invalidate"])
    with pytest.raises(AssertionError):
        check_mutations()
