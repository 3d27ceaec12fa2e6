"""An object's direct memberships are its store's shared signature.

Every live instance holds the one interned frozenset its store keeps
for its direct-membership signature (``store._signatures``), and its
column row -- what a snapshot captures -- holds that same object.  Over
random traces on the paper's hospital schema (classify, declassify, the
Tubercular/Swiss-hospital virtual-class cascade, aborted transactions,
rejected eager bulk batches) both hold after every step.  The mutant
"reclassify skips the column re-put" is killed by a snapshot query after
a ``classify``.  A bulk load over three signatures holds three
membership objects, live and after checkpoint and reopen, and a value
write after a snapshot keeps the signature's identity.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.objects import ObjectStore
from repro.objects.pipeline import MutationPipeline
from tests.test_rollback_properties import SCHEMA, _ScopedWorld, _step


def _assert_coherent(store) -> None:
    signatures = store._signatures
    assert len(store._columns) == len(store._objects)
    for surrogate, obj in store._objects.items():
        members = obj._memberships
        assert signatures.get(members) is members, obj
        assert store._columns.get(surrogate.id)[1] is members, obj


def _check_trace(steps) -> None:
    world = _ScopedWorld(ObjectStore(SCHEMA))
    _assert_coherent(world.store)
    for step in steps:
        world.run(step)
        _assert_coherent(world.store)


#: Takes the tubercular patient off the Swiss hospital, puts another on
#: it, and reclassifies inside an aborted scope and a rejected batch.
_CASCADE = [("unset", 1, "treatedAt"),
            ("classify", 2, "Tubercular_Patient"),
            ("set", 2, "treatedAt", "swiss"),
            ("nested", [("declassify", 2, "Tubercular_Patient"),
                        ("classify", 0, "Cancer_Patient"),
                        ("bulk", ["tb", "alcoholic"])], True),
            ("bulk", ["tb", "patient", "poison"]),
            ("declassify", 0, "Alcoholic")]


@settings(max_examples=100, deadline=None)
@given(st.lists(_step, max_size=12))
@example(_CASCADE)
def test_every_object_holds_its_interned_signature(steps):
    _check_trace(steps)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(st.lists(_step, max_size=12))
def test_every_object_holds_its_interned_signature_at_scale(steps):
    _check_trace(steps)


def _classified_patient_is_queried(store) -> None:
    patient = store.create("Patient", name="p", age=40)
    store.snapshot()
    store.classify(patient, "Ambulatory_Patient")
    rows, _stats = store.snapshot().run_query(
        "for p in Patient where p in Ambulatory_Patient select p.name")
    assert rows == [("p",)]


def test_a_snapshot_query_after_classify_sees_the_new_signature():
    _classified_patient_is_queried(ObjectStore(SCHEMA))


def test_mutant_reclassify_skips_the_column_put_is_killed(monkeypatch):
    def stale_row(self, obj, memberships):
        store = self.store
        store._prepare_write(obj)
        obj._memberships = store._signature(memberships)

    monkeypatch.setattr(MutationPipeline, "reclassify", stale_row)
    with pytest.raises(AssertionError):
        _classified_patient_is_queried(ObjectStore(SCHEMA))
    with pytest.raises(AssertionError):
        _check_trace(_CASCADE)


def _distinct_signatures(store) -> int:
    return len({id(obj._memberships) for obj in store._objects.values()})


def test_a_bulk_load_holds_one_membership_object_per_signature(tmp_path):
    signatures = [("Person",), ("Ward",), ("Patient", "Ambulatory_Patient")]
    rows = [(classes, {"name": f"n{i}"})
            for i in range(60) for classes in signatures]
    store = ObjectStore.open(str(tmp_path), SCHEMA, durability="wal")
    store.bulk_load(rows, check="eager")
    assert len(store) == 180
    assert _distinct_signatures(store) == 3
    store.checkpoint()
    store.close()

    store = ObjectStore.open(str(tmp_path))
    assert store.last_recovery.replayed == 0
    assert len(store) == 180
    assert _distinct_signatures(store) == 3
    _assert_coherent(store)

    obj = next(iter(store._objects.values()))
    members = obj._memberships
    store.snapshot()
    store.set_value(obj, "name", "renamed")
    assert obj._memberships is members
    store.close()
