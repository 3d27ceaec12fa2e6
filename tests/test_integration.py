"""End-to-end integration: CDL -> store -> profile catalog -> queries.

One continuous walk through the whole pipeline on the hospital knowledge
base, cross-checking the store's Section 5.5 partition against its
extents and the query results against hand-computed answers.
"""

import pytest

from repro import (
    analyze,
    compile_query,
    execute,
    load_schema,
    print_schema,
)
from repro.objects.profiles import (
    ScanStats,
    profile_catalog,
    scan_attribute,
)
from repro.objects.store import CheckMode
from repro.scenarios import populate_hospital
from repro.typesys import EnumSymbol
from tests.reference_model import unpruned_scan


@pytest.fixture(scope="module")
def world():
    pop = populate_hospital(n_patients=80, seed=7,
                            alcoholic_fraction=0.15,
                            tubercular_fraction=0.1,
                            ambulatory_fraction=0.1,
                            cancer_fraction=0.1)
    return pop, profile_catalog(pop.store)


def test_population_is_fully_conformant(world):
    pop, _catalog = world
    assert pop.store.validate_all() == []


def test_schema_round_trip_preserves_query_semantics(world):
    pop, _catalog = world
    reloaded = load_schema(print_schema(pop.store.schema))
    query = "for p in Patient select p.treatedAt.location.state"
    assert not analyze(query, reloaded).is_safe
    guarded = ("for p in Patient where p not in Tubercular_Patient "
               "select p.treatedAt.location.state")
    assert analyze(guarded, reloaded).is_safe


def test_query_results_match_hand_computation(world):
    pop, _catalog = world
    rows, _ = execute(
        "for p in Patient where p.age >= 50 select p.name", pop.store)
    expected = sorted(
        p.get_value("name") for p in pop.patients
        if p.get_value("age") >= 50)
    assert sorted(name for (name,) in rows) == expected


def test_exceptional_rows_skipped_exactly(world):
    pop, _catalog = world
    _rows, stats = execute(
        "for p in Patient select p.treatedAt.location.state", pop.store)
    assert stats.rows_skipped == len(pop.tubercular)


def test_membership_query_vs_extent(world):
    pop, _catalog = world
    rows, _ = execute("for a in Alcoholic select a.name", pop.store)
    assert len(rows) == pop.store.count("Alcoholic") == len(
        pop.alcoholics)


def test_scan_attribute_matches_query(world):
    pop, catalog = world
    via_query, _ = execute("for p in Patient select p.age", pop.store)
    via_scan = [v for _s, v in scan_attribute(pop.store.schema, catalog,
                                              "Patient", "age")]
    assert sorted(a for (a,) in via_query) == sorted(via_scan)


def test_partition_pruning_saves_reads_on_real_population(world):
    pop, catalog = world
    fast, slow = ScanStats(), ScanStats()
    schema = pop.store.schema
    list(scan_attribute(schema, catalog, "Hospital", "accreditation", fast))
    list(unpruned_scan(schema, catalog, "Hospital", "accreditation", slow))
    assert fast.rows_read < slow.rows_read
    assert fast.rows_matched == slow.rows_matched


def _partition_of(catalog, obj):
    return next(p.classes for p in catalog.values() if obj in p.members)


def test_swiss_structures_in_own_partitions(world):
    pop, catalog = world
    swiss_keys = {_partition_of(catalog, t.get_value("treatedAt"))
                  for t in pop.tubercular}
    assert swiss_keys == {("Hospital", "Hospital$1")}


def test_removing_tb_patient_moves_hospital_partition(world):
    """Removing the last anchoring patient declassifies the hospital,
    which moves it to the plain-Hospital partition."""
    pop = populate_hospital(n_patients=20, seed=99,
                            tubercular_fraction=0.05)
    tb = pop.tubercular[0]
    hospital = tb.get_value("treatedAt")
    pop.store.remove(tb)
    assert not pop.store.is_member(hospital, "Hospital$1")
    assert _partition_of(profile_catalog(pop.store), hospital) == (
        "Hospital",)


def test_compile_once_execute_many(world):
    pop, _catalog = world
    compiled = compile_query(
        "for p in Patient where p in Alcoholic select p.name",
        pop.store.schema)
    first, _ = execute(compiled, pop.store)
    second, _ = execute(compiled, pop.store)
    assert first == second


def test_multi_membership_through_full_pipeline(world):
    pop, _catalog = world
    store = pop.store
    p = pop.patients[0]
    store.set_value(p, "bloodPressure", EnumSymbol("High_BP"),
                    check=CheckMode.NONE)
    store.classify(p, "Renal_Failure_Patient")
    rows, _ = execute(
        "for r in Renal_Failure_Patient select r.name", store)
    assert (p.get_value("name"),) in rows
    # Clean up for other tests sharing the module fixture.
    store.declassify(p, "Renal_Failure_Patient")
    store.set_value(p, "bloodPressure", EnumSymbol("Normal_BP"),
                    check=CheckMode.NONE)
