"""Cold start: a populated store on disk and back.

Run::

    python examples/persistence.py

Populates the hospital knowledge base, writes its image into a durable
store directory and checkpoints it (one CRC-framed checkpoint file under
an atomically replaced MANIFEST), then performs a full cold start:
``ObjectStore.open`` on the directory recovers a live store --
surrogates, references, extents, and implicit virtual-class extents all
restored, every object re-validated -- and the same query runs against
both to show they agree.  Writes on the recovered store are still
checked.
"""

import os
import tempfile

from repro import ObjectStore, execute
from repro.errors import ConformanceError
from repro.scenarios import populate_hospital
from repro.storage.recovery import install_image, store_image


def main() -> None:
    pop = populate_hospital(n_patients=150, seed=5,
                            tubercular_fraction=0.08,
                            alcoholic_fraction=0.12)
    print("=== Before shutdown ===")
    print(f"objects: {len(pop.store)}, Hospital$1 extent: "
          f"{pop.store.count('Hospital$1')}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hospital")
        durable = ObjectStore.open(path, pop.store.schema,
                                   durability="none")
        install_image(durable, *store_image(pop.store))
        durable.checkpoint()
        durable.close()
        files = sorted(os.listdir(path))
        total = sum(os.path.getsize(os.path.join(path, f)) for f in files)
        print(f"\n=== Checkpoint: {len(files)} files, {total} bytes ===")
        for name in files:
            print("  ", name)

        # ------------------------------------------------------------
        # Cold start: a fresh process would do exactly this.
        # ------------------------------------------------------------
        store = ObjectStore.open(path)
        print("\n=== After cold start ===")
        print(store.last_recovery.describe())
        print(f"objects: {len(store)} (was {len(pop.store)})")
        print(f"Patient extent: {store.count('Patient')}")
        print(f"Hospital$1 (implicit!) extent: "
              f"{store.count('Hospital$1')}")

        query = ("for p in Patient where p.age >= 60 "
                 "select p.name, p.treatedAt.location.city")
        before, _ = execute(query, pop.store)
        after, _ = execute(query, store)
        print(f"\nquery rows before={len(before)} after={len(after)} "
              f"identical={sorted(before) == sorted(after)}")

        # The recovered store is fully live: the excuse semantics still
        # guards writes.
        patient = store.extent("Patient")[0]
        try:
            store.set_value(patient, "age", 999)
        except ConformanceError:
            print("\nwrites on the recovered store are still checked: "
                  "age=999 rejected")


if __name__ == "__main__":
    main()
