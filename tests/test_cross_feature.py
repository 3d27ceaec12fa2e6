"""Cross-feature integration: the extension modules working together.

Each test wires at least two subsystems that were developed separately:
aggregates over a cold-started store, transactions around assertion repairs,
definitional classes feeding queries, metaclass policies over evolving
populations, deduction fed by the validator's excuse registry, and the
CLI over printed schemas.
"""

import pytest

from repro.errors import ConformanceError
from repro.objects import ObjectStore
from repro.objects.derived import DefinedClassCatalog
from repro.objects.transactions import transaction
from repro.query import compile_query, execute
from repro.scenarios import populate_hospital
from repro.semantics.assertions import AssertionChecker


@pytest.fixture(scope="module")
def world(hospital_schema, cold_start):
    pop = populate_hospital(schema=hospital_schema, n_patients=80,
                            seed=101, tubercular_fraction=0.1,
                            alcoholic_fraction=0.15,
                            ambulatory_fraction=0.1)
    return pop, cold_start(pop.store)


class TestAggregatesOverStorage:
    def test_avg_age_matches_store_and_view(self, world):
        pop, cold = world
        compiled = compile_query("for p in Patient select avg p.age",
                                 cold.schema)
        via_store, _ = execute(compiled, pop.store)
        via_snapshot, _ = execute(compiled, cold.snapshot())
        assert via_store == via_snapshot

    def test_count_ward_skips_swiss_style_missing(self, world):
        pop, cold = world
        rows, _ = execute("for p in Patient select count p.ward", cold)
        assert rows == [(len(pop.patients) - len(pop.ambulatory),)]


class TestTransactionsWithAssertions:
    def test_repair_or_rollback(self, hospital_schema):
        from repro.schema import SchemaBuilder
        from repro.typesys import INTEGER, STRING
        b = SchemaBuilder()
        b.cls("Person").attr("name", STRING)
        b.cls("Employee", isa="Person").attr("salary", INTEGER) \
            .attr("supervisor", "Employee")
        schema = b.build()
        store = ObjectStore(schema)
        checker = AssertionChecker(schema)
        checker.add("Employee", "earn-less",
                    "self.salary <= self.supervisor.salary")
        boss = store.create("Employee", name="boss", salary=100)
        store.set_value(boss, "supervisor", boss)
        worker = store.create("Employee", name="w", salary=50,
                              supervisor=boss)

        class RepairFailed(Exception):
            pass

        # A raise pattern: apply a raise, check assertions, roll back if
        # they broke.
        with pytest.raises(RepairFailed):
            with transaction(store):
                store.set_value(worker, "salary", 150)
                if checker.check_store(store):
                    raise RepairFailed()
        assert worker.get_value("salary") == 50
        assert checker.check_store(store) == []

        # The same raise accompanied by a boss raise commits.
        with transaction(store):
            store.set_value(boss, "salary", 200)
            store.set_value(worker, "salary", 150)
            assert checker.check_store(store) == []
        assert worker.get_value("salary") == 150


class TestDefinedClassesFeedQueries:
    def test_materialized_class_queryable(self, hospital_schema):
        from repro.schema.classdef import ClassDef
        schema = hospital_schema.copy()
        schema.add_class(ClassDef("Elderly_Patient", ("Patient",)))
        pop = populate_hospital(schema=schema, n_patients=50, seed=102)
        catalog = DefinedClassCatalog(pop.store)
        catalog.define("Elderly_Patient", "Patient", "self.age >= 65")
        catalog.materialize("Elderly_Patient")
        rows, _ = execute("for e in Elderly_Patient select e.age",
                          pop.store)
        assert all(age >= 65 for (age,) in rows)
        expected = sum(1 for p in pop.patients
                       if p.get_value("age") >= 65)
        assert len(rows) == expected

    def test_view_extent_equals_filtering_query(self, hospital_schema):
        pop = populate_hospital(schema=hospital_schema, n_patients=50,
                                seed=103)
        catalog = DefinedClassCatalog(pop.store)
        catalog.define("Fifty_Plus", "Patient", "self.age >= 50")
        via_catalog = {p.surrogate for p in catalog.extent("Fifty_Plus")}
        rows, _ = execute(
            "for p in Patient where p.age >= 50 select p", pop.store)
        via_query = {obj.surrogate for (obj,) in rows}
        assert via_catalog == via_query


class TestDeductionMeetsRegistry:
    def test_deduction_uses_freshly_added_excuses(self, hospital_schema):
        from repro.query.deduction import deduce_non_memberships
        from repro.query.typing import FlowFacts
        schema = hospital_schema.copy()
        facts = FlowFacts()
        facts = facts.assume("y.treatedBy", "Physician", False)
        facts = facts.assume("y", "Alcoholic", False)
        _enriched, derived = deduce_non_memberships(schema, facts, "y")
        assert "Patient" in derived

        # A new excusing class widens the disjunction: the old facts no
        # longer suffice.
        from repro.schema.attribute import AttributeDef, ExcuseRef
        from repro.schema.classdef import ClassDef
        from repro.typesys import ClassType
        schema.add_class(ClassDef(
            "Faith_Healer_Patient", ("Patient",),
            (AttributeDef("treatedBy", ClassType("Person"),
                          (ExcuseRef("Patient", "treatedBy"),)),)))
        _enriched, derived = deduce_non_memberships(schema, facts, "y")
        assert "Patient" not in derived


class TestColdStartEverything:
    def test_rebuild_then_transact_then_query(self, world, cold_start):
        pop, _cold = world
        store = cold_start(pop.store)
        victim = store.extent("Patient")[0]
        age = victim.get_value("age")
        with pytest.raises(ConformanceError):
            with transaction(store):
                store.set_value(victim, "age", 5000)
        assert victim.get_value("age") == age
        rows, _ = execute("for p in Patient select count", store)
        assert rows == [(len(pop.patients),)]
