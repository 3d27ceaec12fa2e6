"""Run-time value membership (`type_contains`) for every type kind."""

import pytest

from repro.objects import Instance, Surrogate
from repro.typesys import (
    ANY,
    ANY_ENTITY,
    BOOLEAN,
    INAPPLICABLE,
    INTEGER,
    NONE,
    REAL,
    STRING,
    ClassType,
    ConditionalType,
    EnumSymbol,
    EnumerationType,
    IntRangeType,
    RecordType,
    RecordValue,
    SimpleClassGraph,
    UnionType,
    type_contains,
)


@pytest.fixture()
def graph():
    return SimpleClassGraph({
        "Person": [],
        "Patient": ["Person"],
        "Alcoholic": ["Patient"],
        "Physician": ["Person"],
        "Psychologist": ["Person"],
    })


def make(memberships, **values):
    return Instance(Surrogate(1), memberships, values)


class TestScalars:
    def test_integer(self):
        assert type_contains(INTEGER, 42)
        assert not type_contains(INTEGER, "42")
        assert not type_contains(INTEGER, True)  # bool is not an Integer

    def test_real_accepts_ints(self):
        assert type_contains(REAL, 3.14)
        assert type_contains(REAL, 3)

    def test_boolean(self):
        assert type_contains(BOOLEAN, True)
        assert not type_contains(BOOLEAN, 1)

    def test_string(self):
        assert type_contains(STRING, "hello")
        assert not type_contains(STRING, EnumSymbol("hello"))

    def test_int_range(self):
        r = IntRangeType(16, 65)
        assert type_contains(r, 16) and type_contains(r, 65)
        assert not type_contains(r, 15)
        assert not type_contains(r, True)

    def test_enumeration(self):
        e = EnumerationType(["Dove", "Hawk"])
        assert type_contains(e, EnumSymbol("Dove"))
        assert not type_contains(e, EnumSymbol("Ostrich"))
        assert not type_contains(e, "Dove")

    def test_any_contains_everything(self):
        for v in (1, "x", EnumSymbol("A"), INAPPLICABLE):
            assert type_contains(ANY, v)


class TestNone:
    def test_only_inapplicable(self):
        assert type_contains(NONE, INAPPLICABLE)
        assert not type_contains(NONE, 0)
        assert not type_contains(NONE, "")

    def test_inapplicable_in_nothing_else(self):
        assert not type_contains(INTEGER, INAPPLICABLE)
        assert not type_contains(STRING, INAPPLICABLE)

    def test_inapplicable_is_singleton_and_falsy(self):
        from repro.typesys.values import Inapplicable
        assert Inapplicable() is INAPPLICABLE
        assert not INAPPLICABLE


class TestEntities:
    def test_class_membership_direct(self, graph):
        obj = make({"Patient"})
        assert type_contains(ClassType("Patient"), obj, graph)

    def test_class_membership_transitive(self, graph):
        obj = make({"Alcoholic"})
        assert type_contains(ClassType("Person"), obj, graph)

    def test_non_membership(self, graph):
        obj = make({"Physician"})
        assert not type_contains(ClassType("Patient"), obj, graph)

    def test_any_entity(self, graph):
        assert type_contains(ANY_ENTITY, make({"Person"}), graph)
        assert not type_contains(ANY_ENTITY, 7, graph)

    def test_scalar_is_not_entity(self, graph):
        assert not type_contains(ClassType("Person"), 7, graph)


class TestIsEntity:
    """Entity-ness is decided from the type; no attribute of the value
    is ever evaluated to answer it."""

    def test_a_raising_memberships_property_is_never_evaluated(self):
        from repro.typesys.values import is_entity, value_repr

        class Remote:
            surrogate = Surrogate(9)
            probes = 0

            @property
            def memberships(self):
                type(self).probes += 1
                raise RuntimeError("asked the remote owner")

            def get_value(self, name):
                raise RuntimeError("asked the remote owner")

        value = Remote()
        assert is_entity(value)
        assert value_repr(value) == "<entity @9>"
        assert type_contains(ANY_ENTITY, value)
        assert Remote.probes == 0

    def test_every_entity_class_is_an_entity(self):
        from repro.objects.snapshot import SnapshotInstance
        from repro.sharding.router import RemoteHandle
        from repro.typesys.values import is_entity
        assert is_entity(make({"Person"}))
        assert is_entity(SnapshotInstance(Surrogate(1), {"Person"}, {}))
        # The proxy is asked nothing: its owner is absent.
        assert is_entity(RemoteHandle(None, Surrogate(1)))

    @pytest.mark.parametrize("value", [
        RecordValue(memberships=1, get_value=2), EnumSymbol("Dove"),
        INAPPLICABLE, 7, 3.5, True, "memberships", None,
        {"memberships": (), "get_value": None}, Instance,
    ], ids=repr)
    def test_data_are_not_entities(self, value):
        from repro.typesys.values import is_entity
        assert not is_entity(value)


class TestRecords:
    def test_record_value(self):
        t = RecordType({"street": STRING, "city": STRING})
        assert type_contains(t, RecordValue(street="1 Main", city="NYC"))
        assert not type_contains(t, RecordValue(street="1 Main"))

    def test_plain_dict_accepted(self):
        t = RecordType({"x": INTEGER})
        assert type_contains(t, {"x": 4})
        assert not type_contains(t, {"x": "4"})

    def test_entity_satisfies_record_structurally(self, graph):
        t = RecordType({"name": STRING})
        obj = make({"Person"}, name="ada")
        assert type_contains(t, obj, graph)
        assert not type_contains(t, make({"Person"}), graph)

    def test_nested_records(self):
        t = RecordType({"home": RecordType({"city": STRING})})
        v = RecordValue(home=RecordValue(city="Zurich"))
        assert type_contains(t, v)


class TestConditional:
    def test_base_satisfies_without_owner(self, graph):
        c = ConditionalType(ClassType("Physician"),
                            [(ClassType("Psychologist"), "Alcoholic")])
        doc = make({"Physician"})
        assert type_contains(c, doc, graph)

    def test_alternative_needs_owner_membership(self, graph):
        c = ConditionalType(ClassType("Physician"),
                            [(ClassType("Psychologist"), "Alcoholic")])
        shrink = make({"Psychologist"})
        plain_patient = make({"Patient"})
        alcoholic = make({"Alcoholic"})
        assert not type_contains(c, shrink, graph, owner=plain_patient)
        assert type_contains(c, shrink, graph, owner=alcoholic)
        assert not type_contains(c, shrink, graph)  # no owner at all

    def test_owner_membership_is_transitive(self, graph):
        g = graph
        g.add_class("SpecialAlc", ["Alcoholic"])
        c = ConditionalType(ClassType("Physician"),
                            [(ClassType("Psychologist"), "Alcoholic")])
        shrink = make({"Psychologist"})
        special = make({"SpecialAlc"})
        assert type_contains(c, shrink, g, owner=special)

    def test_salary_example(self, graph):
        c = ConditionalType(INTEGER, [(NONE, "Temporary_Employee")])
        graph.add_class("Employee")
        graph.add_class("Temporary_Employee", ["Employee"])
        temp = make({"Temporary_Employee"})
        perm = make({"Employee"})
        assert type_contains(c, 50000, graph, owner=perm)
        assert not type_contains(c, INAPPLICABLE, graph, owner=perm)
        assert type_contains(c, INAPPLICABLE, graph, owner=temp)


class TestUnion:
    def test_any_member_admits(self, graph):
        u = UnionType([INTEGER, STRING])
        assert type_contains(u, 1)
        assert type_contains(u, "x")
        assert not type_contains(u, EnumSymbol("x"))


class TestValueRepr:
    def test_reprs(self):
        from repro.typesys.values import value_repr
        assert value_repr(INAPPLICABLE) == "INAPPLICABLE"
        assert value_repr(EnumSymbol("Dove")) == "'Dove"
        assert value_repr(make(set())) == "<entity @1>"
        assert value_repr(7) == "7"
