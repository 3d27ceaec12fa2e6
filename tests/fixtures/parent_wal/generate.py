"""How the two directories beside this file were written.

Run once with ``PYTHONPATH`` pointing at the ``src`` of commit 6f7945f
(PR 17, the last commit that journaled ``mode`` / mapping-shaped bulk
rows); kept so the fixture's contents can be read without decoding the
WAL.  ``tests/test_legacy_wal_fixture.py`` opens the result with the
current code and pins the digests this script prints.

    PYTHONPATH=<parent>/src python generate.py <out-dir>
"""

import hashlib
import os
import sys

from repro.objects.store import ObjectStore
from repro.objects.transactions import transaction
from repro.scenarios import build_hospital_schema
from repro.schema.classdef import ClassDef
from repro.sharding.router import ShardedStore
from repro.typesys.values import EnumSymbol

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
from faultfs import store_digest  # noqa: E402  (tests/faultfs.py)


def workload(store, sharded: bool) -> None:
    """Every journaled op, each at least once with a non-default check
    mode; deterministic."""
    place = {"broadcast": True} if sharded else {}
    doctor = store.create("Physician", name="dr", age=50, **place)
    ann = store.create("Patient", name="ann", age=30, treatedBy=doctor)
    bob = store.create("Patient", check="none", name="bob", age=999)
    ward = store.create("Ward", floor=1, name="w")
    store.set_value(ann, "age", 31)
    store.set_value(bob, "age", 41, check="deferred")
    store.set_value(ann, "bloodPressure", EnumSymbol("High_BP"))
    store.unset_value(ann, "bloodPressure", check="deferred")
    store.classify(ann, "Ambulatory_Patient")
    store.classify(bob, "Ambulatory_Patient", check="none")
    store.declassify(ann, "Ambulatory_Patient", check="deferred")
    store.remove(ward)
    if sharded:
        with store.transaction():
            store.create("Ward", floor=2, name="t")
            store.set_value(ann, "age", 32)
        store.bulk_load([(("Ward",), {"floor": 3 + i, "name": f"b{i}"})
                         for i in range(4)], check="eager")
        store.bulk_load([(("Patient",), {"name": "carl", "age": 777,
                                         "treatedBy": doctor})])
    else:
        with transaction(store):
            store.create("Ward", floor=2, name="t")
            store.set_value(ann, "age", 32)
        with store.bulk_session(check="eager") as session:
            for i in range(4):
                session.add("Ward", floor=3 + i, name=f"b{i}")
        with store.bulk_session(check="deferred") as session:
            head = session.add("Physician", name="dr2", age=40)
            session.add("Patient", name="carl", age=777, treatedBy=head)
    store.alter_class(ClassDef("Convalescent", ("Patient",), ()))
    store.validate_dirty()
    store.validate_all()
    store.create("Patient", name="dora", age=20)


def fingerprint(stores) -> str:
    return hashlib.sha256(
        repr([store_digest(s) for s in stores]).encode()).hexdigest()


def main(out: str) -> None:
    schema = build_hospital_schema()
    single = ObjectStore.open(os.path.join(out, "single"), schema)
    workload(single, sharded=False)
    print("single ", len(single), fingerprint([single]))
    single.close()

    sharded = ShardedStore(schema, 2, processes=False,
                           directory=os.path.join(out, "sharded"),
                           durability="wal")
    workload(sharded, sharded=True)
    print("sharded", len(sharded), fingerprint(
        [backend.server.store for backend in sharded._backends]))
    sharded.close()


if __name__ == "__main__":
    main(sys.argv[1])
