"""The generated checks agree with the plain reading of the rule.

``compile_profile`` emits one function per direct-membership signature
and the store's ``ConformanceChecker`` runs row subsets of it.  The
contract is *exact* agreement with ``tests/reference_model.reference_check``
-- same :class:`Violation` objects, same order -- at every entry point:

* ``check(obj)`` is the reference verdict;
* ``check_attribute(obj, a, v)`` is the reference verdict of ``obj``
  with ``a`` read as ``v`` (``candidate``), restricted to attribute ``a``;
* ``check_classes(obj, C)`` is the reference verdict restricted to the
  constraints declared on ``C``;
* ``check_membership_loss(obj', removed)`` is the reference verdict of
  ``obj'`` whenever ``obj``, before the loss, conformed (and never more
  than that verdict otherwise).

Verified on the paper's hospital population -- both virtual signatures
included, clean and deliberately corrupted -- with values optional and
required, and property-style on random excuse-bearing hierarchies.
Three seeded compiler mutants are killed on a bounded, seeded
population.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.objects.instance import Instance
from repro.objects.surrogate import Surrogate
from repro.schema import SchemaBuilder
from repro.scenarios import build_hospital_schema, populate_hospital
from repro.scenarios.generators import (
    RandomHierarchyConfig,
    generate_random_hierarchy,
)
from repro.semantics import compiled
from repro.semantics.checker import ConformanceChecker, expand_signature
from repro.semantics.compiled import CompiledProfileChecker, compile_profile
from repro.typesys import ANY, STRING, EnumSymbol
from repro.typesys.values import INAPPLICABLE

from tests.reference_model import reference_check

HOSPITAL = build_hospital_schema()


def _twin(obj, memberships=None, **changes):
    twin = Instance(obj.surrogate, obj.memberships if memberships is None
                    else memberships)
    for name in obj.value_names():
        twin._set_value(name, obj.get_value(name))
    for name, value in changes.items():
        twin._set_value(name, value)
    return twin


def _agree(schema, entity, require_values, candidates=()):
    """Every entry point of a fresh checker agrees with the reference on
    ``entity``; ``candidates`` are extra what-if values for each of its
    attributes."""
    checker = ConformanceChecker(schema, require_values=require_values)
    expected = reference_check(schema, entity, require_values)
    assert checker.check(entity) == expected
    assert compile_profile(schema, entity.memberships,
                           require_values).check(entity) == expected
    closure = expand_signature(schema, entity.memberships)
    attributes = set(entity.value_names()) | {
        attr.name for name in closure
        for attr in schema.get(name).attributes}
    for attribute in sorted(attributes):
        for value in (entity.get_value(attribute), INAPPLICABLE,
                      *candidates):
            what_if = reference_check(schema, entity, require_values,
                                      {attribute: value})
            assert checker.check_attribute(entity, attribute, value) == [
                v for v in what_if if v.attribute == attribute]
    for classes in [{name} for name in sorted(closure)] + [closure]:
        assert checker.check_classes(entity, classes) == [
            v for v in expected if v.class_name in classes]
    for left in sorted(entity.memberships):
        # Leave one direct class for its parents (an Alcoholic becomes
        # a plain Patient).
        kept = (entity.memberships - {left}) | set(schema.get(left).parents)
        if not kept:
            continue
        reduced = _twin(entity, kept)
        removed = closure - expand_signature(schema, kept)
        found = checker.check_membership_loss(reduced, removed)
        verdict = reference_check(schema, reduced, require_values)
        if expected:
            assert all(v in verdict for v in found)
        else:
            assert found == verdict
    return expected


def _population_agrees(population, require_values) -> int:
    """The agreement over every object of a population, with each kind
    of what-if value it holds; returns the violations seen."""
    store = population.store
    pool = (population.psychologists[0], population.physicians[0],
            store.extent("Hospital")[0], EnumSymbol("Purple"), 999, "x")
    return sum(len(_agree(store.schema, obj, require_values, pool))
               for obj in store.instances())


class TestHospitalParity:

    def test_whole_population(self, hospital_population):
        store = hospital_population.store
        signatures = {obj.memberships for obj in store.instances()}
        assert {frozenset(("Hospital", "Hospital$1")),
                frozenset(("Address", "Address$1"))} <= signatures
        assert _population_agrees(hospital_population, False) == 0

    def test_corrupted_population(self, hospital_population):
        """Flip each object's values to out-of-range garbage and demand
        identical violation lists (kinds, owners, order and all)."""
        store = hospital_population.store
        corruptions = itertools.cycle([
            ("age", 999), ("age", EnumSymbol("old")),
            ("bloodPressure", EnumSymbol("Purple")),
            ("treatedBy", 7), ("name", 12), ("floor", "three"),
            ("specialty", EnumSymbol("Alchemy")),
            ("accreditation", EnumSymbol("Local")), ("state", "NJ"),
        ])
        mismatches = 0
        for obj, (attribute, bad) in zip(store.instances(), corruptions):
            twin = _twin(obj, **{attribute: bad})
            mismatches += bool(_agree(store.schema, twin, False))
        assert mismatches > 30  # the corruption actually bit

    def test_require_values_mode(self, hospital_population):
        assert _population_agrees(hospital_population, True) > 0
        bare = Instance(Surrogate(1), ("Patient",))
        assert any(v.kind == "missing-value"
                   for v in _agree(HOSPITAL, bare, True))

    def test_inapplicable_attribute_violations_match(self):
        ward = Instance(Surrogate(2), ("Ward",))
        ward._set_value("floor", 3)
        ward._set_value("name", "W")
        ward._set_value("age", 9)        # Ward declares no age
        ward._set_value("ward", EnumSymbol("x"))
        violations = _agree(HOSPITAL, ward, False)
        assert [v.attribute for v in violations
                if v.kind == "inapplicable-attribute"] == ["age", "ward"]


class TestCompilerDecisions:

    def test_compiles_every_signature(self, hospital_population):
        for obj in hospital_population.store.instances():
            checker = compile_profile(HOSPITAL, obj.memberships)
            assert isinstance(checker, CompiledProfileChecker)

    def test_eliminates_unfalsifiable_rows(self):
        b = SchemaBuilder()
        b.cls("Note").attr("body", STRING).attr("anything", ANY)
        checker = compile_profile(b.build(), frozenset(("Note",)))
        assert checker.rows_elided == 1
        note = Instance(Surrogate(1), ("Note",))
        note._set_value("anything", object())
        assert checker.check(note) == []
        assert "isinstance" in checker.table._source
        assert checker.table._source.count("if not") == 2  # body, strays

    def test_signatures_of_one_shape_share_code(self):
        """Names and constants live in the namespace: ``name``'s rows are
        one code object for a Patient and a Physician."""
        checker = ConformanceChecker(HOSPITAL)
        patient = Instance(Surrogate(1), ("Patient",))
        doctor = Instance(Surrogate(2), ("Physician",))
        checker.check_attribute(patient, "name", "p")
        checker.check_attribute(doctor, "name", "d")
        runs = [checker._profile_for(frozenset((cls,))).subset("name")[0]
                for cls in ("Patient", "Physician")]
        assert runs[0] is not runs[1]
        assert runs[0].__code__ is runs[1].__code__
        assert "'name'" not in runs[0]._source

    def test_one_cache_serves_every_entry_point(self):
        checker = ConformanceChecker(HOSPITAL)
        drunk = Instance(Surrogate(1), ("Patient", "Alcoholic"))
        checker.check(drunk)
        profile = checker._profile_for(drunk.memberships)
        checker.check_attribute(drunk, "treatedBy", INAPPLICABLE)
        checker.check_classes(drunk, {"Alcoholic"})
        checker.check_batch(drunk.memberships, [drunk])
        assert checker._profile_for(drunk.memberships) is profile
        assert checker.stats.profiles_compiled == 1
        assert len(checker._profiles) == 1

    def test_cache_invalidates_on_schema_change(self):
        from repro.schema.classdef import ClassDef
        schema = build_hospital_schema()
        checker = ConformanceChecker(schema)
        ward = Instance(Surrogate(1), ("Ward",))
        checker.check(ward)
        first = checker._profile_for(ward.memberships)
        schema.add_class(ClassDef("Annex", ("Ward",), ()))
        assert checker._profile_for(ward.memberships) is not first


# ----------------------------------------------------------------------
# Seeded mutants, killed on a bounded, seeded population
# ----------------------------------------------------------------------

def _skips_excuse_rows(self, key, _select=CompiledProfileChecker._select):
    rows = _select(self, key)
    if isinstance(key, tuple) and key[0] == "loss":
        return tuple(r for r in rows if r.entity_sensitive)
    return rows


def _dead_branch_live(schema, signature, row):
    return [row.constraint.range] + [e.range for e in row.excuses]


def _virtual_guard_ignored(schema, signature, class_name,
                           _holds=compiled._holds):
    return ((schema.has_class(class_name)
             and schema.get(class_name).virtual)
            or _holds(schema, signature, class_name))


MUTANTS = {
    "check_membership_loss skips excuse rows":
        (CompiledProfileChecker, "_select", _skips_excuse_rows),
    "dead excuse branch kept live": (compiled, "_accepted", _dead_branch_live),
    "virtual guard ignored": (compiled, "_holds", _virtual_guard_ignored),
}


@pytest.fixture(scope="module")
def small_population():
    return populate_hospital(n_patients=20, seed=11)


def test_small_population_agrees(small_population):
    for require_values in (False, True):
        _population_agrees(small_population, require_values)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_seeded_mutant_is_killed(mutant, small_population, monkeypatch):
    owner, name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement)
    with pytest.raises(AssertionError):
        for require_values in (False, True):
            _population_agrees(small_population, require_values)


# ----------------------------------------------------------------------
# Property: random excuse-bearing hierarchies
# ----------------------------------------------------------------------

_N_CLASSES = 12
_SYMBOLS = tuple(f"n{i}" for i in range(4)) + tuple(f"d{i}" for i in range(4))


@st.composite
def _random_case(draw):
    seed = draw(st.integers(0, 10_000))
    schema = generate_random_hierarchy(RandomHierarchyConfig(
        n_classes=_N_CLASSES, n_attributes=3, override_prob=0.6,
        contradiction_prob=0.5, excuse_intent_prob=0.7,
        seed=seed)).excuses_schema
    n_direct = draw(st.integers(1, 3))
    memberships = draw(st.lists(
        st.sampled_from([f"C{i}" for i in range(_N_CLASSES)]),
        min_size=n_direct, max_size=n_direct, unique=True))
    values = draw(st.dictionaries(
        st.sampled_from(["attr0", "attr1", "attr2"]),
        st.one_of(
            st.sampled_from(_SYMBOLS).map(EnumSymbol),
            st.integers(0, 3),           # wrong kind entirely
            st.just(INAPPLICABLE),
        ),
        max_size=3))
    return schema, tuple(memberships), values


@settings(max_examples=120, deadline=None)
@given(_random_case(), st.booleans())
def test_compiled_matches_interpreted_on_random_hierarchies(
        case, require_values):
    schema, memberships, values = case
    entity = Instance(Surrogate(1), memberships)
    for name, value in values.items():
        entity._set_value(name, value)
    _agree(schema, entity, require_values,
           (EnumSymbol("n0"), EnumSymbol("d1"), 2))
