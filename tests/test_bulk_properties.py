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

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.objects import ObjectStore
from repro.scenarios import build_hospital_schema
from repro.typesys import EnumSymbol
from repro.typesys.values import is_entity

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


@settings(max_examples=120, deadline=None)
@given(_cases)
def test_bulk_load_equals_sequential_application(case):
    rows, mode = case
    sequential = _World()
    bulk = _World()

    ok_seq = sequential.apply_sequential(rows, mode)
    ok_bulk = bulk.apply_bulk(rows, mode)
    assert ok_seq == ok_bulk, (mode, rows)

    if not ok_seq:
        return  # rejected: bulk rolled back, sequential keeps a prefix

    assert bulk.digest() == sequential.digest()
    assert bulk.counters() == sequential.counters()
    if mode == "deferred":
        # The dirty ledger surfaces the same violations, and clearing it
        # leaves both stores agreeing again.
        assert bulk.problems() == sequential.problems()
        assert bulk.digest() == sequential.digest()
