"""Rebuilding a live object store from stored records.

``save_engine``/``load_engine`` persist the *records*; this module closes
the loop by reconstructing :class:`~repro.objects.store.ObjectStore`
instances from them -- surrogate identities preserved, entity-valued
fields re-linked, extents and virtual-class reference counts recomputed.
Together they give the library a full cold-start path::

    save_engine(engine, path)              # shutdown
    engine = load_engine(schema, path)     # restart
    store = rebuild_store(engine)          # live objects again
"""

from __future__ import annotations

from repro import codec
from repro.errors import StorageError
from repro.objects.store import CheckMode, ObjectStore
from repro.objects.surrogate import Surrogate
from repro.schema.schema import Schema
from repro.storage.engine import StorageEngine
from repro.storage.recovery import install_image


def rebuild_store(engine: StorageEngine,
                  schema: Schema = None,
                  check_mode: str = CheckMode.EAGER,
                  validate: bool = False) -> ObjectStore:
    """Reconstruct a store holding every object the engine stores.

    The engine's rows become a store image (entity fields, stored as
    surrogates, become references) and go through the one installer.
    Nothing here proved the stored data conformant, so every rebuilt
    object starts on the dirty ledger: ``validate_dirty()`` must not
    silently vouch for unchecked loads.  ``validate=True`` additionally
    runs full conformance checking over the rebuilt population and
    raises on any violation (recommended after reloading a snapshot
    from disk).
    """
    store = ObjectStore(schema or engine.schema, check_mode=check_mode)
    rows = []
    for info in engine.partitions():
        for rowid, _row in info.file.scan():
            surrogate = engine._reverse.get((info.key, rowid))
            if surrogate is None:
                continue
            rows.append([surrogate.id, info.key, {
                name: (codec.ref(value.id)
                       if isinstance(value, Surrogate)
                       else codec.encode_value(value))
                for name, value in engine.fetch(surrogate).items()}])
    install_image(store, {
        "next_surrogate": max((row[0] for row in rows), default=0) + 1,
        "dirty": {str(row[0]): None for row in rows}}, rows)

    if validate:
        problems = store.validate_all()
        if problems:
            obj, violation = problems[0]
            raise StorageError(
                f"rebuilt store is nonconformant: {obj}: {violation}")
    return store
