"""How the store directory beside this file was written.

Run once with ``PYTHONPATH`` pointing at the ``src`` of commit c788148,
the last commit whose checkpoint file holds one row frame ``{"sid",
"classes", "values"}`` per object; kept so the fixture's contents can
be read without decoding the checkpoint.
``tests/test_legacy_checkpoint_fixture.py`` opens the result with the
current code and pins the digest this script prints.

    PYTHONPATH=<parent>/src python generate.py <out-dir>

The checkpoint holds a populated virtual class (a Swiss address and
hospital anchored by a tubercular patient), the ``age`` index, a dirty
object (an age out of range, written deferred), a class with a negative
range and a stored ``None`` (written unchecked).  The WAL is empty: the
checkpoint is the whole state.
"""

import hashlib
import os
import sys

from repro import load_schema
from repro.objects.store import ObjectStore
from repro.scenarios import populate_hospital
from repro.scenarios.hospital import HOSPITAL_CDL
from repro.storage.recovery import install_image, store_image

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
from faultfs import store_digest  # noqa: E402  (tests/faultfs.py)

THERMOMETER = "class Thermometer with\n  reading: -40..60;\nend\n"


def main(out: str) -> None:
    schema = load_schema(HOSPITAL_CDL + THERMOMETER)
    population = populate_hospital(schema, n_patients=24, seed=52)
    store = ObjectStore.open(out, schema, durability="wal")
    install_image(store, *store_image(population.store))
    store.create_index("age")
    store.create("Thermometer", reading=-12)
    store.create("Thermometer", reading=None, check="none")
    patient = store.get(population.patients[0].surrogate)
    store.set_value(patient, "age", 999, check="deferred")
    store.checkpoint()
    print(len(store), hashlib.sha256(
        repr(store_digest(store)).encode()).hexdigest())
    store.close()


if __name__ == "__main__":
    main(sys.argv[1])
