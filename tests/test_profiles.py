"""The signature-profile catalog: the paper's Section 5.5 partition.

``repro.objects.profiles`` reads the partition off the live store; this
file holds it to the plain readings in ``tests/reference_model.py``:

* the pruned ``scan_attribute`` returns what the unpruned scan returns,
  reading fewer rows, with exact counters;
* ``profile_catalog`` equals ``reference_catalog`` (signature, members,
  total attributes, clean flag, order) on hospital traces that classify
  and declassify (virtual classes included), write unchecked, roll
  transactions back and mask foreign replicas -- and two seeded mutants
  of the walk are killed in a bounded, derandomized run;
* a shard's ``shard_map`` is that catalog, and it follows ``set_foreign``.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.columnar import SurrogateSet
from repro.errors import ReproError, UnknownClassError
from repro.objects import ObjectStore, Surrogate
from repro.objects import profiles
from repro.objects.profiles import (
    ScanStats,
    profile_catalog,
    record_format,
    scan_attribute,
)
from repro.objects.store import CheckMode
from repro.objects.transactions import transaction
from repro.scenarios import build_hospital_schema, populate_hospital
from repro.scenarios.hospital import HOSPITAL_CDL
from repro.sharding import wire
from repro.sharding.worker import ShardServer
from repro.typesys import EnumSymbol
from tests.reference_model import reference_catalog, unpruned_scan

SCHEMA = build_hospital_schema()


@pytest.fixture(scope="module")
def loaded(hospital_population):
    return profile_catalog(hospital_population.store), hospital_population


def _both_scans(catalog, class_name, attribute):
    fast, slow = ScanStats(), ScanStats()
    pruned = sorted(scan_attribute(SCHEMA, catalog, class_name, attribute,
                                   fast))
    unpruned = sorted(unpruned_scan(SCHEMA, catalog, class_name, attribute,
                                    slow))
    return pruned, unpruned, fast, slow


# ----------------------------------------------------------------------
# Partitions and record formats
# ----------------------------------------------------------------------

class TestPartitioning:
    def test_exceptional_objects_get_own_partition(self, loaded):
        catalog, _pop = loaded
        keys = {profile.classes for profile in catalog.values()}
        assert ("Hospital",) in keys
        assert ("Hospital", "Hospital$1") in keys

    def test_swiss_partition_format_lacks_accreditation(self):
        assert "accreditation" not in record_format(
            SCHEMA, ("Hospital", "Hospital$1"))
        assert record_format(SCHEMA, ("Hospital",))["accreditation"] == \
            "symbol"

    def test_row_counts_match_population(self, loaded):
        catalog, pop = loaded
        assert sum(len(p.members) for p in catalog.values()) == \
            len(pop.store)

    def test_membership_change_moves_partition(self, hospital_schema):
        store = ObjectStore(hospital_schema, check_mode=CheckMode.NONE)
        p = store.create("Patient", name="x", age=20)
        assert [p.classes for p in profile_catalog(store).values()] == [
            ("Patient",)]
        store.classify(p, "Renal_Failure_Patient", check=CheckMode.NONE)
        assert [p.classes for p in profile_catalog(store).values()] == [
            ("Patient", "Renal_Failure_Patient")]


# ----------------------------------------------------------------------
# The pruned scan against the unpruned reading
# ----------------------------------------------------------------------

class TestScans:
    @pytest.mark.parametrize("class_name,attribute", [
        ("Patient", "age"), ("Hospital", "accreditation"),
        ("Person", "name"), ("Patient", "ward"), ("Address", "state")])
    def test_pruned_equals_unpruned_with_exact_counters(
            self, loaded, class_name, attribute):
        catalog, _pop = loaded
        pruned, unpruned, fast, slow = _both_scans(catalog, class_name,
                                                   attribute)
        assert pruned == unpruned
        assert fast.partitions_considered == slow.partitions_considered \
            == len(catalog)
        assert fast.partitions_scanned <= fast.partitions_considered
        assert fast.rows_matched == slow.rows_matched == len(pruned)
        assert slow.rows_read == sum(len(p.members)
                                     for p in catalog.values())
        assert fast.rows_read == sum(
            len(p.members) for p in catalog.values()
            if any(SCHEMA.is_subclass(m, class_name) for m in p.classes)
            and attribute in record_format(SCHEMA, p.classes))

    def test_pruning_reads_fewer_rows(self, loaded):
        catalog, pop = loaded
        _p, _u, fast, slow = _both_scans(catalog, "Hospital",
                                         "accreditation")
        assert fast.partitions_scanned == 1
        assert fast.rows_read == len(pop.hospitals) < slow.rows_read

    def test_scan_values_correct(self, loaded):
        catalog, pop = loaded
        ages = dict(scan_attribute(SCHEMA, catalog, "Patient", "age"))
        assert len(ages) == len(pop.patients)
        for p in pop.patients:
            assert ages[p.surrogate] == p.get_value("age")

    def test_inapplicable_values_not_yielded(self, loaded):
        catalog, pop = loaded
        accs = dict(scan_attribute(SCHEMA, catalog, "Hospital",
                                   "accreditation"))
        # Swiss hospitals have no accreditation; they never appear.
        assert len(accs) == len(pop.hospitals)
        assert all(isinstance(v, EnumSymbol) for v in accs.values())

    def test_unknown_class_rejected(self, loaded):
        catalog, _pop = loaded
        with pytest.raises(UnknownClassError):
            list(scan_attribute(SCHEMA, catalog, "Martian", "age"))


# ----------------------------------------------------------------------
# The catalog against the per-object reading, on traces
# ----------------------------------------------------------------------

_CLASSES = ("Alcoholic", "Ambulatory_Patient", "Tubercular_Patient",
            "Renal_Failure_Patient", "Cancer_Patient", "Patient")
_UNSETTABLE = ("ward", "age", "treatedAt", "bloodPressure", "name")
_index = st.integers(0, 63)
_checked = st.sampled_from((CheckMode.EAGER, CheckMode.NONE))
_steps = st.one_of(
    st.tuples(st.just("classify"), _index, st.sampled_from(_CLASSES),
              _checked),
    st.tuples(st.just("declassify"), _index, st.sampled_from(_CLASSES),
              _checked),
    st.tuples(st.just("unset"), _index, st.sampled_from(_UNSETTABLE)),
    st.tuples(st.just("age"), _index, st.sampled_from((40, 999))),
    st.tuples(st.just("treat_at"), _index, _index, _checked),
    st.tuples(st.just("remove"), _index),
    st.tuples(st.just("validate")),
)
_traces = st.fixed_dictionaries({
    "seed": st.integers(0, 10 ** 6),
    "n": st.integers(4, 10),
    "steps": st.lists(st.one_of(
        _steps, st.tuples(st.just("rollback"),
                          st.lists(_steps, min_size=1, max_size=3))),
        max_size=8),
    "mask": st.sets(_index, max_size=6),
})


def _world(trace):
    pop = populate_hospital(
        schema=SCHEMA, n_patients=trace["n"], seed=trace["seed"],
        alcoholic_fraction=0.25, tubercular_fraction=0.25,
        ambulatory_fraction=0.25, n_hospitals=2, n_physicians=3)
    hospitals = pop.hospitals + [t.get_value("treatedAt")
                                 for t in pop.tubercular]
    return pop, hospitals


def _apply(store, pop, hospitals, step) -> None:
    def patient(i):
        return pop.patients[i % len(pop.patients)]

    op = step[0]
    if op == "classify":
        store.classify(patient(step[1]), step[2], check=step[3])
    elif op == "declassify":
        store.declassify(patient(step[1]), step[2], check=step[3])
    elif op == "unset":
        store.unset_value(patient(step[1]), step[2], check=CheckMode.NONE)
    elif op == "age":
        store.set_value(patient(step[1]), "age", step[2],
                        check=CheckMode.NONE)
    elif op == "treat_at":
        store.set_value(patient(step[1]), "treatedAt",
                        hospitals[step[2] % len(hospitals)], check=step[3])
    elif op == "remove":
        store.remove(patient(step[1]))
    elif op == "validate":
        store.validate_dirty()
    else:
        with transaction(store):
            for inner in step[1]:
                try:
                    _apply(store, pop, hospitals, inner)
                except ReproError:
                    pass
            raise _Rollback()


class _Rollback(Exception):
    pass


def _summary(catalog) -> list:
    return [(list(p.classes), [obj.surrogate.id for obj in p.members],
             sorted(p.total), p.clean) for p in catalog.values()]


def check_trace(trace, catalog=profile_catalog) -> None:
    pop, hospitals = _world(trace)
    store = pop.store
    for step in [None] + trace["steps"]:
        if step is not None:
            try:
                _apply(store, pop, hospitals, step)
            except (ReproError, _Rollback):
                pass
        objects = list(store.instances())
        foreign = SurrogateSet(objects[k].surrogate for k in trace["mask"]
                               if k < len(objects))
        assert _summary(catalog(store)) == reference_catalog(store)
        assert _summary(catalog(store, foreign)) == \
            reference_catalog(store, foreign)


@settings(max_examples=80, deadline=None)
@given(trace=_traces)
def test_catalog_equals_the_per_object_reading(trace):
    check_trace(trace)


def _mutant(old: str, new: str):
    """``profile_catalog`` with one source edit, in its own module's
    namespace."""
    source = inspect.getsource(profiles.profile_catalog)
    assert old in source
    namespace = dict(vars(profiles))
    exec(source.replace(old, new), namespace)
    return namespace["profile_catalog"]


def _killed(catalog) -> bool:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None, phases=(Phase.generate,))
    @given(trace=_traces)
    def run(trace):
        check_trace(trace, catalog)

    try:
        run()
    except AssertionError:
        return True
    return False


def test_mutant_clean_ignores_dirty_is_killed():
    assert _killed(_mutant(
        "{surrogate.id for surrogate in store._dirty}", "set()"))


def test_mutant_total_is_a_union_is_killed():
    assert _killed(_mutant("total.intersection_update", "total.update"))


# ----------------------------------------------------------------------
# The shard map is the catalog, serialised
# ----------------------------------------------------------------------

def test_set_foreign_refreshes_the_shard_map():
    """The map cache used to be keyed on the epoch alone, which
    ``set_foreign`` does not move: masked replicas stayed counted."""
    server = ShardServer(0, 2, schema_text=HOSPITAL_CDL)

    def physicians() -> int:
        payload = server.handle({"op": "shard_map"})["profiles"]
        return {tuple(p["classes"]): p["count"]
                for p in payload}[("Physician",)]

    for sid in (1, 2, 3):
        server.handle({"op": "create", "cls": "Physician", "sid": sid,
                       "values": {"name": f"Dr. {sid}"}})
    assert physicians() == 3
    server.handle({"op": "set_foreign", "sids": wire.encode_chunks(
        SurrogateSet([Surrogate(1), Surrogate(2)]))})
    assert physicians() == 1
    server.handle({"op": "set_foreign", "sids": wire.encode_chunks(
        SurrogateSet())})
    assert physicians() == 3
