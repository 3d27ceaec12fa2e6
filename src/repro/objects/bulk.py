"""Batched ingestion: one check per signature, deferred maintenance.

The per-object write path pays, for every ``create``/``set_value``, a
conformance check *plus* incremental extent, secondary-index and
dirty-ledger maintenance.  When thousands of objects arrive at once that
is the wrong amortization: objects sharing a direct-membership signature
are subject to an identical constraint table, so the store checker
resolves the signature's generated check once per batch
(:meth:`~repro.semantics.checker.ConformanceChecker.sweep`) and the
bookkeeping is merged once per batch.

:class:`BulkSession` only stages rows and mints their ids; its commit is
one pipeline command whose bulk stage
(:meth:`repro.objects.pipeline.MutationPipeline.apply_bulk`) does the
rest:

* objects that interact with **virtual classes** -- a virtual class in
  the expanded signature, or an entity value landing on a virtual class's
  home attribute -- take the store's ordinary per-object path *after* the
  fast merge, so reference counting, join checking and cascades behave
  exactly as for sequential writes;
* under ``check="eager"`` the fast-path rows are swept in staging order
  before anything becomes visible (excuse branches folded, provably
  unfalsifiable rows eliminated), ticking the counters one ``check`` per
  row would;
* extents, index postings and the dirty ledger are updated in one pass
  per batch; the index design version stays, so cached plans survive
  the merge (they read cardinalities per execution).

Semantics are all-or-nothing: any failure (a conformance violation, an
unshared-structure violation, an unknown class) restores the store --
objects, extents, postings, virtual refcounts, dirty ledger, allocator
*and* stats counters -- to the pre-batch state and re-raises.  The
undo scope opens at commit, under the write lock: staging takes no
copy, so what others commit while a session is open is never part of
what a failed or aborted batch rolls back.  A
committed batch is observationally equivalent to applying each row
sequentially as ``create(primary)`` / ``classify(extra)`` /
``set_value(attr, value)`` under the same check mode (property-tested in
``tests/test_bulk_properties.py``); the one deliberate divergence is
error *reporting* granularity -- a failing batch reports the
earliest-staged violating fast-path object, not necessarily the first in
row order, because fast-path rows are validated before per-object-path
rows are applied.

The staging loop here and the bulk stage's loops are written for
throughput -- class tuples validated once per distinct tuple, virtual
anchoring decided once per class tuple, instances built in one shot --
because this path exists for its throughput over the (already
incremental) sequential write path (e2e ``bulk_rows_per_s``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union,
)

from repro.errors import UnknownClassError
from repro.objects.instance import Instance
from repro.objects.pipeline import BulkCommand, refuse_check
from repro.objects.store import CheckMode, ObjectStore
from repro.objects.surrogate import Surrogate
from repro.typesys.values import INAPPLICABLE


@dataclass
class BulkReport:
    """What one committed batch did."""

    objects: int            # rows staged and merged
    fast_objects: int       # merged through the batched path
    fallback_objects: int   # applied through the per-object path
    profiles: int           # distinct signatures in the fast path
    check: str              # the check mode the batch ran under
    instances: Tuple[Instance, ...]  # staged instances, in row order


class _Staged:
    """One staged row: the pre-built instance (full memberships and
    values already applied), the class tuple, and the write list the
    row is equivalent to."""

    __slots__ = ("obj", "classes", "values", "write_attrs", "n_writes")

    def __init__(self, obj: Instance, classes: Tuple[str, ...],
                 values: Dict[str, object],
                 write_attrs: Tuple[str, ...]) -> None:
        self.obj = obj
        self.classes = classes
        self.values = values
        self.write_attrs = write_attrs    # includes INAPPLICABLE writes
        self.n_writes = len(write_attrs)


class BulkSession:
    """Stage many rows, commit them as one batch.

    Usage::

        with store.bulk_session(check="eager") as session:
            h = session.add("Hospital", location=addr)
            session.add("Patient", name="pat", treatedAt=h)
        report = session.report

    ``add`` returns the staged :class:`Instance` immediately so later
    rows can reference it; nothing is visible in the store until the
    ``with`` block exits (or :meth:`commit` is called).  An exception —
    the body's or the commit's — aborts the whole batch.
    """

    def __init__(self, store: ObjectStore,
                 check: str = CheckMode.DEFERRED) -> None:
        refuse_check("bulk", check, CheckMode.BULK)
        self._store = store
        self._mode = check
        self._staged: List[_Staged] = []
        self._closed = False
        #: Class tuples already validated against the schema.
        # class spec -> (validated class tuple, the store's signature)
        self._known: Dict[Tuple[str, ...],
                          Tuple[Tuple[str, ...], FrozenSet[str]]] = {}
        self._allocator = store._allocator
        self.report: Optional[BulkReport] = None

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------

    def add(self, classes: Union[str, Iterable[str]],
            **values) -> Instance:
        """Stage one row: an object of the given class(es) with initial
        values.  The first class is the primary (the others are applied
        as classifications, before the values, at commit)."""
        return self._stage(classes, values)

    def add_row(self, row: Mapping[str, object]) -> Instance:
        """Stage one row given as a mapping: a ``"class"`` (or
        ``"classes"``) key plus attribute values."""
        fields = dict(row)
        classes = fields.pop("classes", None)
        single = fields.pop("class", None)
        if classes is None:
            if single is None:
                raise ValueError(
                    "row needs a 'class' or 'classes' key")
            classes = single
        elif single is not None:
            raise ValueError("row has both 'class' and 'classes'")
        return self._stage(classes, fields)

    def _stage(self, classes, values: Dict[str, object]) -> Instance:
        """The staging hot path; ``values`` must be a fresh dict the
        session may keep."""
        if self._closed:
            raise RuntimeError("bulk session already committed/aborted")
        if isinstance(classes, str):
            key: Tuple[str, ...] = (classes,)
        else:
            key = tuple(classes)
        known = self._known.get(key)
        if known is None:
            class_tuple = (key if len(key) == len(set(key))
                           else tuple(dict.fromkeys(key)))
            if not class_tuple:
                raise ValueError("a staged row needs at least one class")
            schema = self._store.schema
            for name in class_tuple:
                if not schema.has_class(name):
                    raise UnknownClassError(name)
            known = (class_tuple, self._store._signature(class_tuple))
            self._known[key] = known
        class_tuple, members = known
        write_attrs = tuple(values)
        if INAPPLICABLE in values.values():
            # An explicit INAPPLICABLE write counts as a write (the
            # sequential path checks and indexes it) but stores nothing.
            values = {k: v for k, v in values.items()
                      if v is not INAPPLICABLE}
        obj = Instance.__new__(Instance)
        # Inlined ``SurrogateAllocator.allocate`` -- same monotone
        # counter, without a method call per staged row.
        allocator = self._allocator
        obj.surrogate = Surrogate(allocator._next)
        allocator._next += 1
        obj._memberships = members
        obj._values = values
        # A fresh value dict: no snapshot can have captured it.
        obj._cow_stamp = self._store._snapshot_stamp
        self._staged.append(_Staged(obj, class_tuple, values, write_attrs))
        return obj

    def __len__(self) -> int:
        return len(self._staged)

    # ------------------------------------------------------------------
    # Context manager
    # ------------------------------------------------------------------

    def __enter__(self) -> "BulkSession":
        self._require_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.abort()
            return False
        self.commit()
        return False

    def abort(self) -> None:
        """Discard the staged rows.  Staging touched nothing but the
        surrogate allocator, so that is all there is to undo."""
        if self._closed:
            return
        self._closed = True
        self._release_ids()
        self._staged.clear()

    def _release_ids(self) -> None:
        """Hand the staged surrogates back to the allocator if they are
        still its newest contiguous run; if anything else allocated
        since the first ``add`` they are burned, like a rejected
        ``create``'s."""
        staged = self._staged
        if not staged:
            return
        first = staged[0].obj.surrogate.id
        last = staged[-1].obj.surrogate.id
        with self._store._write_lock:
            if (last - first == len(staged) - 1
                    and self._allocator._next == last + 1):
                self._allocator._next = first

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(self) -> BulkReport:
        """Merge the staged rows into the store, all or nothing.

        The batch is one pipeline command, :class:`BulkCommand`: its one
        WAL record is framed before
        :meth:`repro.objects.pipeline.MutationPipeline.apply_bulk`
        validates and merges (the per-row fallback applies run nested,
        so they are never logged individually)."""
        self._require_open()
        self._closed = True
        staged = self._staged
        command = BulkCommand(self)
        try:
            self._store._pipeline.execute(command)
        except BaseException:
            self._release_ids()
            raise
        self.report = BulkReport(
            objects=len(staged),
            fast_objects=len(command.fast),
            fallback_objects=len(command.slow),
            profiles=command.profiles,
            check=self._mode,
            instances=tuple(entry.obj for entry in staged),
        )
        return self.report

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("bulk session already committed/aborted")
