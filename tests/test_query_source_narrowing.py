"""Source-extent narrowing: scan the subclass extent directly."""

import pytest

from repro.query import compile_query, execute


@pytest.fixture(scope="module")
def world(hospital_population):
    pop = hospital_population
    return pop.store.schema, pop


class TestNarrowing:
    def test_membership_conjunct_narrows_the_scan(self, world):
        schema, pop = world
        compiled = compile_query(
            "for p in Patient where p in Alcoholic select p.name", schema)
        assert compiled.source_class == "Alcoholic"
        rows, stats = execute(compiled, pop.store)
        assert len(rows) == len(pop.alcoholics)
        assert stats.rows_scanned == len(pop.alcoholics)

    def test_results_identical_to_unoptimized(self, world):
        # The narrowed query answers what the query written against the
        # subclass answers, from the subclass's rows only.
        schema, pop = world
        narrowed = compile_query(
            "for p in Patient where p in Alcoholic and p.age > 30 "
            "select p.name", schema)
        direct = compile_query(
            "for p in Alcoholic where p.age > 30 select p.name", schema)
        rows_narrowed, stats_narrowed = execute(narrowed, pop.store)
        rows_direct, stats_direct = execute(direct, pop.store)
        assert rows_narrowed == rows_direct
        alcoholics = len(pop.alcoholics)
        assert (stats_narrowed.rows_scanned == stats_direct.rows_scanned
                == alcoholics < pop.store.count("Patient"))

    def test_nested_conjunct_found(self, world):
        schema, _pop = world
        compiled = compile_query(
            "for p in Patient where p.age > 10 and p in Alcoholic and "
            "p.age < 90 select p.name", schema)
        assert compiled.source_class == "Alcoholic"

    def test_deepest_subclass_wins(self, world):
        schema, _pop = world
        compiled = compile_query(
            "for p in Person where p in Patient and p in Alcoholic "
            "select p.name", schema)
        assert compiled.source_class == "Alcoholic"

    def test_disjunction_does_not_narrow(self, world):
        schema, pop = world
        compiled = compile_query(
            "for p in Patient where p in Alcoholic or "
            "p in Tubercular_Patient select p.name", schema)
        assert compiled.source_class == "Patient"
        rows, _ = execute(compiled, pop.store)
        assert len(rows) == len(pop.alcoholics) + len(pop.tubercular)

    def test_non_subclass_membership_does_not_narrow(self, world):
        schema, _pop = world
        # Physician is not a subclass of Patient; narrowing would be
        # wrong (it would change which objects are scanned).
        compiled = compile_query(
            "for p in Patient where p in Physician select p.name", schema)
        assert compiled.source_class == "Patient"

    def test_membership_of_other_variable_ignored(self, world):
        schema, _pop = world
        compiled = compile_query(
            "for p in Patient where p.treatedBy in Oncologist "
            "select p.name", schema)
        assert compiled.source_class == "Patient"

    def test_explain_mentions_narrowing(self, world):
        schema, _pop = world
        compiled = compile_query(
            "for p in Patient where p in Alcoholic select p.name", schema)
        assert "narrowed from extent(Patient)" in compiled.explain()

    def test_negated_membership_does_not_narrow(self, world):
        schema, _pop = world
        compiled = compile_query(
            "for p in Patient where p not in Alcoholic select p.name",
            schema)
        assert compiled.source_class == "Patient"
