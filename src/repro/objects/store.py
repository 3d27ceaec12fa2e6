"""The object store: extents, conformance enforcement, virtual extents.

Responsibilities (paper sections in parentheses):

* allocate surrogates and hold all live instances (5.5);
* maintain class extents IS-A-closed -- creating a Physician automatically
  adds it to the extent of Person (3c);
* enforce the excuse semantics on writes (5.1/5.2), eagerly by default;
* maintain the implicit extents of *virtual classes* (5.6): the extent of
  ``H1`` is exactly the set of values of ``treatedAt`` of Tubercular
  patients, so assigning/clearing such attributes classifies/declassifies
  the referenced entities, reference-counted and cascading through nested
  embeddings (``A1`` tracks the locations of ``H1`` hospitals);
* optionally enforce **unshared exceptional structure**
  (``strict_virtual_extents``, on by default): a member of a virtual class
  may only be referenced through the virtual class's home attribute.  This
  run-time invariant is what makes the query checker's provenance
  reasoning sound (see DESIGN.md section 6 and
  :mod:`repro.query.typing`).

Mutation pipeline and MVCC reads
--------------------------------

Every mutation entry point -- ``create``/``remove``, ``classify``/
``declassify``, ``set_value``/``unset_value``, transaction scopes, bulk
batches -- is a thin constructor for a typed command executed by the
store's :class:`~repro.objects.pipeline.MutationPipeline`, the single
owner of conformance checking, extent/virtual-class maintenance,
secondary-index maintenance, WAL journaling, and observer notification.
Each committed command bumps the store **epoch**; :meth:`snapshot`
returns an immutable epoch-stamped :class:`~repro.objects.snapshot.
StoreSnapshot` (copy-on-write: capture is by reference, writers
privatize before mutating), which is what :meth:`run_query`,
:meth:`stats` and the :class:`~repro.objects.concurrent.ConcurrentStore`
facade read.  The store's own ``extent``/``get`` remain *live* views --
read-your-own-writes inside a transaction -- while snapshots are always
committed state.

Conformance checking
--------------------

Eager verdicts come from the checker's generated check for the object's
signature, and each mutation runs only the rows it can affect -- an
attribute write that attribute's rows; gaining a membership
(``classify``, or a value entering a virtual class) the closure delta's
rows; losing one (``declassify``) the rows whose excuses the loss can
strip plus new applicability errors: an object that conformed only
through the excuse branch ``x in E`` is re-checked (and the
declassification rolled back) when it leaves ``E``.  ``store.checker``
is the seam the property suites use to run the same store on
``tests/reference_model.py``.

Residue policy: when a value *leaves* a virtual class because its anchor
moved away, the value may retain attributes that are no longer applicable
(a Swiss address keeps its ``country``).  Such releases are never
rejected -- rejecting them would make reassignment impossible -- and the
affected objects are marked dirty instead; ``validate_dirty()`` (or
``validate_all()``) surfaces the residue.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.columnar import BITSET_STATS, BitsetStats, ObjectColumns, SurrogateSet
from repro.errors import (
    NoSuchObjectError,
    SchemaEvolutionError,
    StorageError,
    UnknownAttributeError,
    UnknownClassError,
)
from repro.obs import EngineStats
from repro.objects.instance import Instance
from repro.objects.pipeline import (
    AlterClassCommand,
    CheckMode,
    ClassifyCommand,
    CreateCommand,
    DeclassifyCommand,
    IndexCommand,
    MutationPipeline,
    RemoveCommand,
    SetValueCommand,
    ValidateCommand,
    _MISSING,
)
from repro.objects.surrogate import Surrogate, SurrogateAllocator
from repro.query.indexes import IndexManager, StoreIndex
from repro.schema.attribute import AttributeDef, ExcuseRef
from repro.schema.classdef import ClassDef
from repro.schema.epochs import SchemaEpochRegistry
from repro.schema.schema import Schema
from repro.semantics.checker import ConformanceChecker, Violation
from repro.typesys.values import INAPPLICABLE

__all__ = ["CheckMode", "ObjectStore"]


#: Shared empty extent for classes with no instances yet (treated as
#: immutable by every caller; the pipeline never hands it out writable).
_EMPTY_EXTENT = SurrogateSet()


class ObjectStore:
    """Holds instances, their extents, and enforces the schema."""

    def __init__(self, schema: Schema,
                 check_mode: str = CheckMode.EAGER,
                 strict_virtual_extents: bool = True,
                 require_values: bool = False,
                 stats: Optional[EngineStats] = None,
                 bitset_stats: Optional[BitsetStats] = None) -> None:
        self.schema = schema
        self.checker = ConformanceChecker(
            schema, require_values=require_values, stats=stats)
        self.check_mode = check_mode
        self.strict_virtual_extents = strict_virtual_extents
        # The bitset-counter sink stats() reports.  Defaults to the
        # process-wide BITSET_STATS the set algebra ticks; a shard
        # worker (or any embedder) may inject its own sink so reported
        # numbers are attributable to this store's process rather than
        # silently read from whichever process asks.
        self.bitset_stats = (bitset_stats if bitset_stats is not None
                             else BITSET_STATS)
        self._allocator = SurrogateAllocator()
        self._objects: Dict[Surrogate, Instance] = {}
        # Chunked id -> (surrogate, memberships, values) row table: what a
        # snapshot captures in O(1) instead of copying _objects (see
        # repro.columnar).  Kept in lockstep with _objects and with
        # every container reassignment (_prepare_write, rollback).
        self._columns = ObjectColumns()
        self._extents: Dict[str, SurrogateSet] = {}
        # (virtual class name, surrogate) -> number of referencing sites.
        self._virtual_refs: Dict[Tuple[str, Surrogate], int] = {}
        # virtual classes indexed by home attribute name for fast lookup.
        self._virtuals_by_attr: Dict[str, List[ClassDef]] = {}
        self._rebuild_virtual_lookup()
        # Schema lineage: epoch 0 is the schema the store was built with;
        # online changes (alter_class / excuse ops) mint successors.
        self.schema_epochs = SchemaEpochRegistry(schema)
        # Objects whose conformance an unchecked/residue-producing
        # mutation may have invalidated: surrogate -> dirty attribute
        # names, or None for "anything" (a membership changed).
        self._dirty: Dict[Surrogate, Optional[Set[str]]] = {}
        # While an eagerly-checked mutation runs, membership *gains* of
        # other objects (values entering virtual classes) are journaled
        # here as (instance, closure delta) so they can be checked.
        self._join_log: Optional[List[Tuple[Instance, frozenset]]] = None
        # Sorted extent snapshots, per class, served by extent() until a
        # membership/extent mutation invalidates them.
        self._extent_cache: Dict[str, Tuple[Instance, ...]] = {}
        # --- MVCC state (see objects/snapshot.py) ---------------------
        # Writers serialize on this lock; snapshot capture does too.
        self._write_lock = threading.RLock()
        #: Bumped once per committed mutating command.
        self._epoch = 0
        #: Copy-on-write stamp: advanced per snapshot built; a structure
        #: whose stamp is older may be captured and must be privatized
        #: before mutation.
        self._snapshot_stamp = 0
        #: Per-class extent-set stamps (same discipline).
        self._extent_cow: Dict[str, int] = {}
        self._snapshot_cache = None
        #: ``(mapping, key, prior)`` entries while an atomic scope is open
        #: (:class:`~repro.objects.pipeline.UndoScope`), else None.
        self._undo_log: Optional[List[tuple]] = None
        #: Called with each committed command (post-commit, in order);
        #: inside a transaction, deferred to scope commit.
        self.observers: List = []
        # Secondary attribute indexes + the planner's plan cache.
        self.indexes = IndexManager(self)
        # The single mutation path (commands, stages, write lock).
        self._pipeline = MutationPipeline(self)
        # Durability journal (a StoreJournal); attached by the durable
        # subclass / recovery, None for a purely in-memory store.
        self._journal = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Engine counters plus store-level gauges, epoch-consistent.

        Gauges come from the snapshot layer -- the last *committed*
        epoch -- so calling this mid-transaction (or from another thread
        while a transaction holds the write lock elsewhere: the call
        serializes on it) never reports half-applied state.  Counters
        are the live monotone values (they also tick on read-only work
        no epoch records).
        """
        with self._write_lock:
            snap = self.snapshot()
            return snap.stats(
                live_counters=self.checker.stats.snapshot(),
                live_query=self.indexes.qstats.snapshot(),
                live_bitset=self.bitset_stats.snapshot(),
                n_indexes=len(self.indexes),
                plans_in_cache=len(self.indexes.plan_cache))

    def _mark_dirty(self, obj: Instance,
                    attribute: Optional[str] = None) -> None:
        current = self._dirty.get(obj.surrogate, _MISSING)
        if self._undo_log is not None:
            # Attribute sets are updated in place below: log a copy.
            self._undo_log.append((
                self._dirty, obj.surrogate,
                set(current) if isinstance(current, set) else current))
        if attribute is None or current is None:
            self._dirty[obj.surrogate] = None
        elif current is _MISSING:
            self._dirty[obj.surrogate] = {attribute}
        else:
            current.add(attribute)

    # ------------------------------------------------------------------
    # MVCC snapshots
    # ------------------------------------------------------------------

    def snapshot(self):
        """An immutable view of the last committed epoch (see
        :class:`~repro.objects.snapshot.StoreSnapshot`).

        Reused while the epoch stands still; otherwise the copy-on-write
        stamp advances and a fresh capture is taken under the write
        lock.  Inside a transaction scope the pre-transaction epoch is
        served -- a snapshot never exposes uncommitted state.
        """
        from repro.objects.snapshot import StoreSnapshot
        with self._write_lock:
            cached = self._snapshot_cache
            if cached is not None and (
                    self._pipeline._txn_depth > 0
                    or cached.epoch == self._epoch):
                self.checker.stats.snapshot_reuses += 1
                return cached
            self._snapshot_stamp += 1
            snap = StoreSnapshot(self)
            self._snapshot_cache = snap
            self.checker.stats.snapshots_built += 1
            return snap

    def run_query(self, query, **compile_kwargs):
        """Plan-cache-aware query execution against the last committed
        epoch; returns ``(rows, ExecutionStats)``."""
        return self.snapshot().run_query(query, **compile_kwargs)

    def _prepare_write(self, obj: Instance) -> None:
        """Privatize an instance's membership/value containers before an
        in-place mutation, so references captured by any snapshot stay
        frozen.  Called by the pipeline only (under the write lock)."""
        if obj._cow_stamp != self._snapshot_stamp:
            if self._undo_log is not None:
                # The containers replaced here are the scope's pre-image.
                self._undo_log.append((None, obj, None))
            obj._memberships = set(obj._memberships)
            obj._values = dict(obj._values)
            obj._cow_stamp = self._snapshot_stamp
            # The columns table must track the *current* containers.
            self._columns.put(obj.surrogate, obj._memberships,
                              obj._values, self._snapshot_stamp)

    def _register_object(self, obj: Instance) -> None:
        """Insert a (re)built instance into the objects map and the
        columnar state table together (recovery/rebuild entry point; the
        live create path is the pipeline's ``install_new``)."""
        self._objects[obj.surrogate] = obj
        self._columns.put(obj.surrogate, obj._memberships,
                          obj._values, self._snapshot_stamp)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, directory: str, schema: Optional[Schema] = None,
             durability: Optional[str] = None, **kwargs):
        """Open a crash-consistent store bound to ``directory``.

        A fresh directory is initialized (requires ``schema``); an
        existing one is recovered -- last good checkpoint, WAL tail
        replayed through the checked paths, torn tail truncated -- with
        the :class:`~repro.storage.recovery.RecoveryReport` on
        ``store.last_recovery``.  ``durability`` is ``"wal"`` (default:
        every checked mutation journaled) or ``"none"`` (persist only at
        explicit ``checkpoint()``, still atomically).  See
        :mod:`repro.objects.durable`.
        """
        from repro.storage.recovery import open_store
        return open_store(directory, schema=schema,
                          durability=durability, **kwargs)

    def create(self, class_name: str, check: Optional[str] = None,
               **values) -> Instance:
        """Create an instance of ``class_name`` with initial values.

        The object is added to the extent of the class and all its
        superclasses.  Values go through the same checked path as
        :meth:`set_value`; on failure the half-built object is removed.
        """
        return self._pipeline.execute(
            CreateCommand(class_name, values, check))

    def remove(self, obj: Instance) -> None:
        """Destroy an object: it leaves every extent, entities it
        referenced leave any virtual classes it anchored them in, and any
        virtual-class reference counts held *against* it are purged."""
        self._pipeline.execute(RemoveCommand(obj))

    def get(self, surrogate: Surrogate) -> Instance:
        try:
            return self._objects[surrogate]
        except KeyError:
            raise NoSuchObjectError(str(surrogate)) from None

    def __len__(self) -> int:
        return len(self._objects)

    def instances(self) -> Iterator[Instance]:
        return iter(self._objects.values())

    # ------------------------------------------------------------------
    # Membership and extents
    # ------------------------------------------------------------------

    def classify(self, obj: Instance, class_name: str,
                 check: Optional[str] = None) -> None:
        """Add ``obj`` to another class (multi-membership, Section 4.1).

        E.g. making a patient an instance of both Renal_Failure_Patient
        and Hemorrhaging_Patient.  Conformance of the object under its
        enlarged constraint set is checked (eagerly by default) on
        exactly the constraints the closure delta introduces.  Values
        pulled into virtual classes by the new membership are checked
        the same way.
        """
        self._pipeline.execute(ClassifyCommand(obj, class_name, check))

    def declassify(self, obj: Instance, class_name: str,
                   check: Optional[str] = None) -> None:
        """Remove a direct membership (and extents entries no other
        membership justifies).

        Membership loss is non-monotonic under excuse semantics: an
        object that conformed only through the excuse branch ``x in E``
        stops conforming when it leaves ``E``.  Under eager checking the
        object is re-checked after the removal and the declassification
        is rolled back (raising :class:`ConformanceError`) if a remaining
        constraint is now violated.  Values that merely become
        *inapplicable* are residue (module docstring): the
        declassification stands and the object is marked dirty.
        """
        self._pipeline.execute(DeclassifyCommand(obj, class_name, check))

    def extent(self, class_name: str) -> Tuple[Instance, ...]:
        """The current *live* extent, superclass extents included (the
        latest state, uncommitted transaction writes visible to their
        own thread; use :meth:`snapshot` for a stable committed view).

        The sorted snapshot is cached per class and invalidated only by
        mutations that actually change the class's membership set, so
        repeated scans do not pay the O(n log n) sort per call."""
        if not self.schema.has_class(class_name):
            raise UnknownClassError(class_name)
        cached = self._extent_cache.get(class_name)
        if cached is not None:
            return cached
        surrogates = self._extents.get(class_name, _EMPTY_EXTENT)
        # Bitset iteration is already ascending by surrogate id -- the
        # sorted-extent contract holds with no O(n log n) sort.
        result = tuple(self._objects[s] for s in surrogates)
        self._extent_cache[class_name] = result
        return result

    # The generated query loop's row source (``repro.query.compiler``).

    def scan_rows(self, class_name: str) -> list:
        return self._columns.rows(self.extent_surrogates(class_name))

    def visit_rows(self, surrogates) -> list:
        return self._columns.rows(surrogates)

    def extent_surrogates(self, class_name: str) -> SurrogateSet:
        """The live extent as a surrogate set -- the class-membership
        index the planner intersects posting lists against.  Callers
        must not mutate the returned set."""
        if not self.schema.has_class(class_name):
            raise UnknownClassError(class_name)
        return self._extents.get(class_name, _EMPTY_EXTENT)

    def count(self, class_name: str) -> int:
        return len(self.extent_surrogates(class_name))

    def is_member(self, obj: Instance, class_name: str) -> bool:
        return any(
            self.schema.is_subclass(m, class_name) for m in obj.memberships
        )

    def create_index(self, attribute: str) -> StoreIndex:
        """Build (or return) the secondary index on ``attribute``; see
        :mod:`repro.query.indexes` for the excuse-aware semantics."""
        return self._pipeline.execute(IndexCommand(attribute, "create"))

    def drop_index(self, attribute: str) -> None:
        self._pipeline.execute(IndexCommand(attribute, "drop"))

    def _add_to_extents(self, obj: Instance, class_name: str) -> None:
        """Recovery/rebuild entry point; live mutation paths go through
        the pipeline, the single owner of extent maintenance."""
        self._pipeline.add_to_extents(obj, class_name)

    # ------------------------------------------------------------------
    # Online schema evolution
    # ------------------------------------------------------------------

    def alter_class(self, new_def: ClassDef, *,
                    recheck: str = "affected"):
        """Apply a replacement (or brand-new) class definition to the
        live store as one pipeline command, minting the next schema
        epoch.

        The change is validated first and rejected atomically
        (:class:`SchemaEvolutionError`) if it would introduce an
        unexcused contradiction; otherwise the successor schema is
        swapped in, derived state is migrated delta-scoped, and the
        affected population is re-validated per ``recheck``
        (``"affected"`` | ``"lazy"`` | ``"full"`` | ``"none"``).
        Returns the ``(object, violation)`` pairs the re-check surfaced
        (those objects are marked dirty, never rolled back).  Open
        snapshots keep reading against the prior epoch.
        """
        return self._pipeline.execute(
            AlterClassCommand(new_def, recheck, "alter-class"))

    def add_excuse(self, class_name: str, attribute: str, range_,
                   targets, *, recheck: str = "affected"):
        """Declare (or extend) ``attribute`` on ``class_name`` with
        ``range_``, excusing the constraint on each target.

        ``targets`` is an iterable of excuse targets -- a class name
        (the excused attribute defaults to ``attribute``), a
        ``(class, attribute)`` pair, or an :class:`ExcuseRef`; ``range_``
        accepts the same shorthands as the schema builder.  An existing
        declaration of the attribute keeps its other excuses; the range
        is replaced.  Runs through :meth:`alter_class`.
        """
        from repro.schema.builder import as_type
        cdef = self.schema.get(class_name)
        refs: List[ExcuseRef] = []
        existing = cdef.attribute(attribute)
        if existing is not None:
            refs.extend(existing.excuses)
        for target in targets:
            if isinstance(target, ExcuseRef):
                ref = target
            elif isinstance(target, str):
                ref = ExcuseRef(target, attribute)
            else:
                ref = ExcuseRef(*target)
            if ref not in refs:
                refs.append(ref)
        new_def = cdef.with_attribute(
            AttributeDef(attribute, as_type(range_), tuple(refs)))
        return self._pipeline.execute(
            AlterClassCommand(new_def, recheck, "add-excuse"))

    def retract_excuse(self, class_name: str, attribute: str, *,
                       targets=None, drop_attribute: bool = False,
                       recheck: str = "affected"):
        """Withdraw excuse clauses from ``attribute`` on ``class_name``.

        With ``targets=None`` every excuse on the attribute is
        retracted; otherwise only those against the given targets (class
        names or ``(class, attribute)`` pairs).  With
        ``drop_attribute=True`` the declaring attribute is removed
        entirely once no excuse remains.  A retraction that would leave
        the declared range in unexcused contradiction with an ancestor
        is rejected atomically.  Runs through :meth:`alter_class`.
        """
        cdef = self.schema.get(class_name)
        attr = cdef.attribute(attribute)
        if attr is None:
            raise UnknownAttributeError(class_name, attribute)
        if not attr.excuses:
            raise SchemaEvolutionError(
                class_name,
                f"attribute {attribute!r} declares no excuses to retract")
        if targets is None:
            remaining: Tuple[ExcuseRef, ...] = ()
        else:
            gone = set()
            for target in targets:
                if isinstance(target, ExcuseRef):
                    gone.add((target.class_name, target.attribute))
                elif isinstance(target, str):
                    gone.add((target, attribute))
                else:
                    gone.add(tuple(target))
            remaining = tuple(
                ref for ref in attr.excuses
                if (ref.class_name, ref.attribute) not in gone)
        if drop_attribute and not remaining:
            new_def = cdef.without_attribute(attribute)
        else:
            new_def = cdef.with_attribute(
                AttributeDef(attribute, attr.range, remaining))
        return self._pipeline.execute(
            AlterClassCommand(new_def, recheck, "retract-excuse"))

    # ------------------------------------------------------------------
    # Attribute writes
    # ------------------------------------------------------------------

    def set_value(self, obj: Instance, attribute: str, value,
                  check: Optional[str] = None) -> None:
        """Set ``obj.attribute = value`` with conformance enforcement and
        virtual-extent maintenance."""
        self._pipeline.execute(
            SetValueCommand(obj, attribute, value, check))

    def unset_value(self, obj: Instance, attribute: str,
                    check: Optional[str] = None) -> None:
        """Clear an attribute (its value becomes INAPPLICABLE).

        Runs through the normal checked path: in the default
        values-optional mode clearing is always conformant, but with
        ``require_values=True`` clearing an attribute some membership
        class requires is rejected, and virtual-extent maintenance and
        dirty tracking behave exactly as for any other write.
        """
        self._pipeline.execute(
            SetValueCommand(obj, attribute, INAPPLICABLE, check))

    # ------------------------------------------------------------------
    # Bulk ingestion
    # ------------------------------------------------------------------

    def bulk_session(self, check: str = CheckMode.DEFERRED):
        """An incremental bulk-load scope; see
        :class:`repro.objects.bulk.BulkSession`.  Rows staged inside the
        ``with`` block are merged as one all-or-nothing batch on exit."""
        from repro.objects.bulk import BulkSession
        return BulkSession(self, check=check)

    def bulk_load(self, rows, *, check: str = CheckMode.DEFERRED):
        """Load many rows as one batch; returns a
        :class:`repro.objects.bulk.BulkReport`.

        Each row is a mapping with a ``"class"`` (or ``"classes"``) key
        plus attribute values, or a ``(classes, values)`` pair.
        Equivalent to sequential checked ``create``/``classify``/
        ``set_value`` calls under the same ``check`` mode, but conformance
        is checked once per signature group and
        extent/index/dirty maintenance is merged once per batch.  Any
        failure rolls the whole batch back.
        """
        session = self.bulk_session(check)
        with session:
            stage = session._stage
            add_row = session.add_row
            for row in rows:
                if isinstance(row, tuple):
                    classes, values = row
                    stage(classes, dict(values))
                else:
                    add_row(row)
        return session.report

    # ------------------------------------------------------------------
    # Virtual-class lookup (read-only; maintenance lives in the pipeline)
    # ------------------------------------------------------------------

    def _rebuild_virtual_lookup(self) -> None:
        """Re-derive the per-attribute virtual-class lookup from the
        current schema (construction, and every schema-epoch swap)."""
        lookup: Dict[str, List[ClassDef]] = {}
        for cdef in self.schema.virtual_classes():
            lookup.setdefault(cdef.origin.attribute, []).append(cdef)
        self._virtuals_by_attr = lookup

    def _home_virtuals(self, obj: Instance,
                       attribute: str) -> List[ClassDef]:
        """Virtual classes whose home site is (some membership class of
        ``obj``, ``attribute``)."""
        out = []
        for cdef in self._virtuals_by_attr.get(attribute, ()):
            if self.is_member(obj, cdef.origin.owner_class):
                out.append(cdef)
        return out

    # ------------------------------------------------------------------
    # Whole-store validation
    # ------------------------------------------------------------------

    def validate_all(self) -> List[Tuple[Instance, Violation]]:
        """Check every object; used after deferred/bulk loading.  Clears
        the dirty ledger for objects found conformant."""
        return self._pipeline.execute(ValidateCommand("all"))

    def validate_dirty(self) -> List[Tuple[Instance, Violation]]:
        """Check only the objects (and, where known, only the attributes)
        that unchecked or residue-producing mutations have touched since
        the last validation.  Equivalent to :meth:`validate_all` for
        surfacing *new* problems, at a fraction of the work; objects
        found conformant leave the dirty ledger."""
        return self._pipeline.execute(ValidateCommand("dirty"))

    def transaction(self, validate_on_commit: bool = False):
        """An atomic multi-command scope
        (:func:`repro.objects.transactions.transaction`)."""
        return self._pipeline.transaction(validate_on_commit)

    def checkpoint(self):
        """Only a store bound to a directory has anything to write
        (:class:`~repro.objects.durable.DurableObjectStore`)."""
        raise StorageError("store is not durable; nothing to checkpoint")

    def _require_live(self, obj: Instance) -> None:
        if self._objects.get(obj.surrogate) is not obj:
            raise NoSuchObjectError(str(obj.surrogate))
