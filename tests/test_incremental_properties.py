"""The store's incremental conformance checking is indistinguishable
from the plain reading of the excuse rule.

The store answers each eager mutation from the schema's constraint
index, checking only the rows the mutation can affect; the second world
runs the same store on :mod:`tests.reference_model`, which re-derives
and re-checks the whole object from the schema on every operation.  Over
randomized mutation sequences on the paper's hospital schema both must

* accept and reject exactly the same operations,
* leave behind identical object state (memberships and values), and
* agree with a from-scratch ``validate_all()`` at the end -- including
  ``validate_dirty()`` surfacing no problem the full check misses.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.errors import ConformanceError
from repro.objects import ObjectStore
from repro.objects.store import CheckMode
from repro.scenarios import build_hospital_schema
from repro.typesys import EnumSymbol
from repro.typesys.values import is_entity
from tests.reference_model import on_reference

SCHEMA = build_hospital_schema()

EXTRA_CLASSES = (
    "Alcoholic", "Ambulatory_Patient", "Tubercular_Patient",
    "Renal_Failure_Patient", "Hemorrhaging_Patient", "Cancer_Patient",
)

#: (attribute, value key) pairs; keys resolve per store in _World.value.
SET_CHOICES = (
    ("age", 30), ("age", 55), ("age", 200),          # 200 violates 1..120
    ("bloodPressure", "Normal_BP"),
    ("bloodPressure", "High_BP"),
    ("bloodPressure", "Low_BP"),
    ("treatedBy", "physician"),
    ("treatedBy", "oncologist"),
    ("treatedBy", "psychologist"),                   # needs Alcoholic
    ("treatedAt", "swiss"), ("treatedAt", "us"),
    ("ward", "ward"),
    ("home", "us_addr"),
)

UNSET_CHOICES = ("ward", "bloodPressure", "treatedBy", "treatedAt", "age")

N_PATIENTS = 3


class _World:
    """One store (either checker) with the shared cast of entities."""

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self.us_addr = store.create(
            "Address", street="1 Main", city="Trenton",
            state=EnumSymbol("NJ"))
        self.us = store.create(
            "Hospital", location=self.us_addr,
            accreditation=EnumSymbol("Federal"))
        # The Swiss structures only conform once anchored by a tubercular
        # patient, so they are loaded unchecked (as in the seed tests).
        swiss_addr = store.create("Address", check=CheckMode.NONE,
                                  street="Bergweg 1", city="Zurich")
        store.set_value(swiss_addr, "country", EnumSymbol("Switzerland"),
                        check=CheckMode.NONE)
        self.swiss = store.create("Hospital", check=CheckMode.NONE,
                                  location=swiss_addr)
        self.ward = store.create("Ward", floor=3, name="W1")
        self.physician = store.create(
            "Physician", name="Dr. F", age=50, affiliatedWith=self.us,
            specialty=EnumSymbol("General"))
        self.oncologist = store.create(
            "Oncologist", name="Dr. O", age=48, affiliatedWith=self.us,
            specialty=EnumSymbol("Oncology"))
        self.psychologist = store.create(
            "Psychologist", name="Dr. P", age=61,
            therapyStyle=EnumSymbol("CBT"))
        self.patients = [
            store.create("Patient", name=f"p{i}", age=40,
                         treatedBy=self.physician)
            for i in range(N_PATIENTS)
        ]
        # Patient 0 starts out conforming only through the excuse branch
        # (x in Alcoholic and x.treatedBy in Psychologist), so a single
        # random declassify exercises the non-monotonic membership loss.
        store.unset_value(self.patients[0], "treatedBy")
        store.classify(self.patients[0], "Alcoholic")
        store.set_value(self.patients[0], "treatedBy", self.psychologist)

    def value(self, key):
        if isinstance(key, int):
            return key
        entity = {
            "physician": self.physician, "oncologist": self.oncologist,
            "psychologist": self.psychologist, "swiss": self.swiss,
            "us": self.us, "ward": self.ward, "us_addr": self.us_addr,
        }.get(key)
        return entity if entity is not None else EnumSymbol(key)

    def apply(self, op) -> bool:
        """Run one operation; True = accepted, False = rejected."""
        kind, idx = op[0], op[1]
        patient = self.patients[idx]
        try:
            if kind == "set":
                self.store.set_value(patient, op[2], self.value(op[3]))
            elif kind == "unset":
                self.store.unset_value(patient, op[2])
            elif kind == "classify":
                self.store.classify(patient, op[2])
            elif kind == "declassify":
                self.store.declassify(patient, op[2])
            elif kind == "remove":
                self.store.remove(patient)
            return True
        except ConformanceError:
            return False

    def state(self):
        """Checker-independent digest of every live object."""
        out = {}
        for obj in self.store.instances():
            values = {}
            for name in obj.value_names():
                value = obj.get_value(name)
                values[name] = (
                    ("ref", value.surrogate) if is_entity(value) else value)
            out[obj.surrogate] = (obj.memberships, values)
        return out

    def problems(self, found):
        return sorted(
            (obj.surrogate, v.kind, v.class_name, v.attribute)
            for obj, v in found
        )


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(SET_CHOICES)).map(
                      lambda t: ("set", t[1], t[2][0], t[2][1])),
        st.tuples(st.just("unset"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(UNSET_CHOICES)),
        st.tuples(st.just("classify"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(EXTRA_CLASSES)),
        st.tuples(st.just("declassify"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(EXTRA_CLASSES)),
        st.tuples(st.just("remove"), st.integers(0, N_PATIENTS - 1)),
    ),
    min_size=1, max_size=20,
)


@settings(max_examples=150, deadline=None)
@given(_ops)
# Losing the excusing class must be rejected (and rolled back), then the
# same loss accepted once the excused value is gone.
@example([("declassify", 0, "Alcoholic"), ("unset", 0, "treatedBy"),
          ("declassify", 0, "Alcoholic")])
def test_incremental_engine_equals_full_engine(ops):
    incremental = _World(ObjectStore(SCHEMA))
    full = _World(on_reference(ObjectStore(SCHEMA)))

    removed = set()
    for op in ops:
        if op[1] in removed:
            continue
        verdict_incr = incremental.apply(op)
        verdict_full = full.apply(op)
        assert verdict_incr == verdict_full, (op, verdict_incr)
        if op[0] == "remove" and verdict_incr:
            removed.add(op[1])

    assert incremental.state() == full.state()

    # A from-scratch validation agrees across checkers, and the dirty
    # ledger surfaces no *new* problems the eager path let through.
    all_incr = incremental.problems(incremental.store.validate_all())
    all_full = full.problems(full.store.validate_all())
    assert all_incr == all_full
    dirty = incremental.problems(incremental.store.validate_dirty())
    assert set(dirty) <= set(all_incr)
