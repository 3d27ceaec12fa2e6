"""Run-time objects: surrogates, instances, extents, and the object store.

This is the database substrate the paper presumes (Sections 2c, 3c, 5.6):

* every entity gets a system-assigned **surrogate**;
* classes have **extents**; adding an object to a class "automatically
  add[s] [it] to the extents of all its superclasses";
* **virtual classes** (Section 5.6) have implicitly-maintained extents:
  ``H1`` contains exactly the values of ``treatedAt`` for Tubercular
  patients, so the store classifies/declassifies those values as the
  referencing attributes change;
* writes are checked against the excuse semantics (eagerly by default);
* every mutation flows through one command pipeline
  (:mod:`repro.objects.pipeline`), reads can run against immutable MVCC
  snapshots (:mod:`repro.objects.snapshot`), and
  :class:`~repro.objects.concurrent.ConcurrentStore` serves both to
  multiple threads;
* the per-individual run-time exception mechanism of Borgida 1985
  (reference [4]) is provided as a baseline in
  :mod:`repro.objects.exceptional`.
"""

from repro.objects.instance import Instance
from repro.objects.surrogate import Surrogate
from repro.objects.store import CheckMode, ObjectStore
from repro.objects.pipeline import (
    MutationCommand,
    MutationPipeline,
    TransactionError,
)
from repro.objects.snapshot import SnapshotInstance, StoreSnapshot
from repro.objects.concurrent import ConcurrentStore
from repro.objects.bulk import BulkReport, BulkSession
from repro.objects.exceptional import (
    ExceptionRecord,
    ExceptionalIndividualRegistry,
)

__all__ = [
    "BulkReport",
    "BulkSession",
    "CheckMode",
    "ConcurrentStore",
    "ExceptionRecord",
    "ExceptionalIndividualRegistry",
    "Instance",
    "MutationCommand",
    "MutationPipeline",
    "ObjectStore",
    "SnapshotInstance",
    "StoreSnapshot",
    "Surrogate",
    "TransactionError",
]
