"""A committed batch is observationally equivalent to sequential writes.

The bulk loader's contract: ``bulk_load(rows, check=m)`` behaves exactly
like applying, for each row in order, ``create(primary)`` /
``classify(extra)...`` / ``set_value(attr, value)...`` under check mode
``m`` -- same surrogates, same extents, same index postings, same dirty
ledger, same violations surfaced, and the same mutation counters.  When
the batch is rejected the sequential application must reject too (the
batch then rolls back; the sequential store keeps its prefix -- the one
documented divergence, so state is only compared on success).

Randomized over the paper's hospital schema, both check modes, and
worker counts 1 and 4.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConformanceError, ReproError
from repro.objects import ObjectStore
from repro.objects.instance import Instance
from repro.objects.surrogate import Surrogate
from repro.scenarios import build_hospital_schema, build_university_schema
from repro.typesys import EnumSymbol
from repro.typesys.values import is_entity

from tests.reference_model import reference_check

SCHEMA = build_hospital_schema()

#: Counters a batch must advance exactly as sequential writes would.
#: (Checker-internal counters -- attribute_checks, profile hits -- are
#: deliberately different: that is the point of compiling profiles.)
MUTATION_COUNTERS = ("writes", "classifies", "declassifies", "removals")

EXTRAS = ("Alcoholic", "Cancer_Patient", "Ambulatory_Patient",
          "Tubercular_Patient")


class _World:
    """One store with the shared pre-batch cast, plus an age index so
    posting parity is exercised."""

    def __init__(self) -> None:
        self.store = ObjectStore(SCHEMA)
        store = self.store
        store.create_index("age")
        addr = store.create("Address", street="1 Main", city="Trenton",
                            state=EnumSymbol("NJ"))
        self.hospital = store.create(
            "Hospital", location=addr,
            accreditation=EnumSymbol("Federal"))
        self.physician = store.create(
            "Physician", name="Dr. F", age=50,
            affiliatedWith=self.hospital,
            specialty=EnumSymbol("General"))
        self.psychologist = store.create(
            "Psychologist", name="Dr. P", age=61,
            therapyStyle=EnumSymbol("CBT"))

    def resolve(self, rows):
        """Entity placeholders -> this world's instances."""
        out = []
        for classes, values in rows:
            resolved = {}
            for name, value in values.items():
                if value == "$physician":
                    value = self.physician
                elif value == "$psychologist":
                    value = self.psychologist
                elif value == "$hospital":
                    value = self.hospital
                resolved[name] = value
            out.append((classes, resolved))
        return out

    def apply_sequential(self, rows, mode) -> bool:
        """The oracle: per-object writes in row order.  True = accepted
        in full."""
        store = self.store
        try:
            for classes, values in self.resolve(rows):
                obj = store.create(classes[0], check=mode)
                for extra in classes[1:]:
                    store.classify(obj, extra, check=mode)
                for name, value in values.items():
                    store.set_value(obj, name, value, check=mode)
        except ReproError:
            return False
        return True

    def apply_bulk(self, rows, mode) -> bool:
        try:
            self.store.bulk_load(self.resolve(rows), check=mode)
        except ReproError:
            return False
        return True

    def digest(self):
        store = self.store
        objects = {}
        for obj in store.instances():
            values = {}
            for name in obj.value_names():
                value = obj.get_value(name)
                values[name] = (("ref", value.surrogate)
                                if is_entity(value) else value)
            objects[obj.surrogate] = (obj.memberships, values)
        index = store.indexes.get("age")
        return {
            "objects": objects,
            "extents": {name: frozenset(members)
                        for name, members in store._extents.items()
                        if members},
            "dirty": {s: (None if attrs is None else frozenset(attrs))
                      for s, attrs in store._dirty.items()},
            "virtual_refs": dict(store._virtual_refs),
            "postings": ({repr(v): frozenset(m)
                          for v, m in index._buckets.items()},
                         frozenset(index.inapplicable)),
        }

    def counters(self):
        stats = self.store.stats()
        out = {name: stats[name] for name in MUTATION_COUNTERS}
        out["index_updates"] = stats["query.index_updates"]
        return out

    def problems(self):
        return sorted(
            (obj.surrogate, v.kind, v.class_name, v.attribute)
            for obj, v in self.store.validate_dirty())


_row = st.one_of(
    st.tuples(
        st.tuples(st.just("Patient"),
                  st.lists(st.sampled_from(EXTRAS), max_size=2,
                           unique=True)).map(
            lambda t: (t[0],) + tuple(t[1])),
        st.fixed_dictionaries({}, optional={
            "name": st.sampled_from(["pat", "mo"]),
            "age": st.sampled_from([30, 55, 500]),
            "bloodPressure": st.sampled_from(
                [EnumSymbol("Normal_BP"), EnumSymbol("High_BP"),
                 EnumSymbol("Purple")]),
            "treatedBy": st.sampled_from(["$physician", "$psychologist"]),
            "treatedAt": st.just("$hospital"),
            "ward": st.just(EnumSymbol("W1")),
        })),
    st.tuples(
        st.just(("Ward",)),
        st.fixed_dictionaries({}, optional={
            "floor": st.sampled_from([1, "three"]),
            "name": st.just("W"),
        })),
)

_cases = st.tuples(
    st.lists(_row, min_size=1, max_size=10),
    st.sampled_from(["eager", "deferred"]),
)


def _check_equivalence(rows, mode) -> None:
    sequential = _World()
    bulk = _World()
    before = bulk.digest()

    ok_seq = sequential.apply_sequential(rows, mode)
    ok_bulk = bulk.apply_bulk(rows, mode)
    assert ok_seq == ok_bulk, (mode, rows)

    if not ok_seq:
        # Rejected: bulk rolled back, sequential keeps a prefix.
        assert bulk.digest() == before
        return

    assert bulk.digest() == sequential.digest()
    assert bulk.counters() == sequential.counters()
    if mode == "deferred":
        # The dirty ledger surfaces the same violations, and clearing it
        # leaves both stores agreeing again.
        assert bulk.problems() == sequential.problems()
        assert bulk.digest() == sequential.digest()


@settings(max_examples=120, deadline=None)
@given(_cases)
def test_bulk_load_equals_sequential_application(case):
    _check_equivalence(*case)


#: One row that violates its own signature's constraints, per signature.
_violators = st.sampled_from([
    (("Patient",), {"name": "bad", "age": 500}),
    (("Patient", "Alcoholic"), {"bloodPressure": EnumSymbol("Purple")}),
    (("Ward",), {"floor": "three"}),
])

#: Batches of at least two signatures, one violator staged anywhere.
_mixed_cases = st.tuples(
    st.lists(_row, min_size=1, max_size=10), _violators,
    st.integers(min_value=0, max_value=10),
    st.sampled_from(["eager", "deferred"]),
).map(lambda t: (t[0][:t[2]] + [t[1]] + t[0][t[2]:], t[3])).filter(
    lambda case: len({classes for classes, _ in case[0]}) > 1)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(_mixed_cases)
def test_bulk_load_equals_sequential_application_at_scale(case):
    """The same equivalence over batches that mix signatures and carry
    a violator: an eager batch is rejected whole, a deferred one admits
    and its ledger surfaces what the sequential writes do."""
    _check_equivalence(*case)


# ----------------------------------------------------------------------
# An eager batch is one sweep: its blame and its counters
# ----------------------------------------------------------------------

#: Excuses, no virtual class: every row takes the fast path.
UNIVERSITY = build_university_schema()

_people = st.sampled_from([
    ("Person",), ("Student",), ("Faculty",), ("Professor",),
    ("Emeritus_Professor",), ("Visiting_Professor",),
    ("Student", "Faculty"), ("Visiting_Professor", "Student"),
])
#: Each attribute's values, a few of them violating somewhere (out of
#: range, the wrong type, or not applicable to every signature).
_person_values = st.fixed_dictionaries({}, optional={
    "name": st.sampled_from(["ann", 7]),
    "age": st.sampled_from([20, 15, "old"]),
    "yearOfStudy": st.sampled_from([2, 9]),
    "salary": st.sampled_from([100, "lots"]),
    "homeInstitution": st.sampled_from(["MIT", 3]),
})
_people_rows = st.lists(st.tuples(_people, _person_values),
                        min_size=1, max_size=12)
#: One row per signature that violates its constraints.
_VIOLATORS = [
    (("Person",), {"age": 15}),
    (("Student",), {"name": "sue", "yearOfStudy": 9}),
    (("Faculty",), {"salary": "lots"}),
    (("Visiting_Professor",), {"homeInstitution": 3}),
    (("Student", "Faculty"), {"age": "old"}),
]


def _with_violators(case):
    rows, violators = case
    rows = list(rows)
    for row, at in violators:
        rows.insert(min(at, len(rows)), row)
    return rows


#: Batches whose violators span at least two signatures.
_blamed_rows = st.tuples(_people_rows, st.lists(
    st.tuples(st.sampled_from(_VIOLATORS), st.integers(0, 12)),
    min_size=2, max_size=3, unique_by=lambda v: v[0][0]),
).map(_with_violators)


def _violations(sid, classes, values):
    obj = Instance(Surrogate(sid), classes)
    for name, value in values.items():
        obj._set_value(name, value)
    return reference_check(UNIVERSITY, obj)


def _conforming(rows):
    """Each row less the values the reference rejects in it."""
    out = []
    for classes, values in rows:
        values = dict(values)
        while found := _violations(0, classes, values):
            for violation in found:
                values.pop(violation.attribute, None)
        out.append((classes, values))
    return out


@settings(max_examples=150, deadline=None)
@given(_blamed_rows)
def test_eager_batch_blames_the_first_staged_violator(rows):
    """The error names the first staged row the reference rejects, with
    its first violation, whichever signature it has; and the rejected
    batch leaves every counter as it was."""
    store = ObjectStore(UNIVERSITY)
    store.create("Person", name="seed")
    expected = next((sid, found[0]) for sid, (classes, values)
                    in enumerate(rows, 2)
                    if (found := _violations(sid, classes, values)))
    counters = store.checker.stats.snapshot()
    with pytest.raises(ConformanceError) as excinfo:
        store.bulk_load(rows, check="eager")
    assert (excinfo.value.sid, excinfo.value.violation) == expected
    assert store.checker.stats.snapshot() == counters
    assert len(store) == 1


#: What a whole-object check ticks.
CHECK_COUNTERS = ("full_checks", "profile_hits", "profile_misses",
                  "constraints_checked", "constraints_skipped",
                  "violations_found", "attribute_checks", "delta_checks",
                  "profiles_compiled", "compiled_rows_elided")


@settings(max_examples=60, deadline=None)
@given(_people_rows.map(_conforming))
def test_an_accepted_eager_batch_ticks_what_n_checks_tick(rows):
    """An eager batch's checks count as one ``check`` per row would."""

    def ticks(store, work):
        before = store.checker.stats.snapshot()
        work()
        after = store.checker.stats.snapshot()
        return {name: after[name] - before[name] for name in CHECK_COUNTERS}

    eager, deferred = ObjectStore(UNIVERSITY), ObjectStore(UNIVERSITY)
    report = deferred.bulk_load(rows, check="deferred")
    assert report.fallback_objects == 0
    swept = ticks(eager, lambda: eager.bulk_load(rows, check="eager"))
    checked = ticks(deferred, lambda: [
        deferred.checker.check(obj) for obj in report.instances])
    assert swept == checked
    assert swept["full_checks"] == len(rows)
