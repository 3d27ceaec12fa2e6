"""Transactions over the object store.

The paper's conformance rules often require *groups* of writes to land
together: reclassifying a patient as hemorrhaging **and** lowering its
blood pressure, or moving a tubercular patient to a new Swiss hospital
(which re-anchors virtual-class memberships).  A transaction makes such
groups atomic: on exception every object's memberships and values, every
extent, and the virtual-class reference counts are restored exactly.

The machinery lives in the unified mutation pipeline
(:mod:`repro.objects.pipeline`): the scope holds the store's write lock,
group-commits the WAL, and rolls back through an
:class:`~repro.objects.pipeline.UndoScope`: begin takes references to
the copy-on-write roots, the writes inside leave their pre-images
behind, and an abort costs what the scope touched -- never a copy of
the store.  Instances (and index handles) keep their
identity across rollback; outside references stay valid and see the
restored state.  This module is the stable public entry point.

Usage::

    with transaction(store):
        store.set_value(p, "bloodPressure", low)
        store.classify(p, "Hemorrhaging_Patient")
    # all or nothing
"""

from __future__ import annotations

from repro.errors import TransactionError
from repro.objects.store import ObjectStore

__all__ = ["TransactionError", "transaction"]


def transaction(store: ObjectStore, validate_on_commit: bool = False):
    """Atomic scope: roll the store back if the body raises.

    With ``validate_on_commit`` the whole store is validated before
    committing (useful when the body performs unchecked writes); any
    violation rolls back and raises :class:`TransactionError`.
    """
    return store._pipeline.transaction(validate_on_commit)
