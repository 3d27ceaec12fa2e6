"""Immutable point-in-time views of an object store (MVCC reads).

``ObjectStore.snapshot()`` returns a :class:`StoreSnapshot`: a frozen,
epoch-stamped view of the committed state that serves the whole read
surface -- ``extent`` / ``extent_surrogates`` / ``count`` / ``get`` /
``is_member`` / ``instances`` / ``run_query`` / ``stats`` -- without
ever touching the live mutable maps again.  A snapshot taken before a
committed mutation can never observe it, and a long analytical query
runs against one consistent epoch while writers keep committing.

Capture is O(number of live roots), not O(state): the snapshot records
*references* to each instance's interned membership frozenset and value
dict, to each extent set, and to each index's posting containers.  The
write side (:mod:`repro.objects.pipeline` and the index manager's hooks)
never mutates a structure an open snapshot may have captured -- it
privatizes the structure first when its copy-on-write stamp predates the
newest snapshot (``store._snapshot_stamp``), so every captured reference
is frozen forever.

Objects come back as :class:`SnapshotInstance` wrappers: surrogate-
identical, read-only views over the captured membership/value
containers (a query reads the captured rows themselves and wraps only
what its result holds).  Entity *values* inside those containers are
returned raw (the live :class:`~repro.objects.instance.Instance`
references the store holds), which preserves the identity semantics
queries and index buckets rely on; membership questions about them are
answered from the snapshot's captured state (``snapshot.is_member``
keys on the surrogate), so class-membership reads are isolated even for
nested entities.

A scan's row list is carried forward by segment: a snapshot inherits,
by reference, the row lists and segment tables of the snapshot it
replaces (O(classes)), and ``scan_rows`` copies every segment whose
column chunk and extent bits are unchanged, gathering only what the
writes in between changed (:meth:`repro.columnar.FrozenColumns.scan`).
A plan re-run on one snapshot skips its set algebra: its memo slot keys
on ``memo_ref``, a weak reference to the snapshot; the live store, whose
columns mutate in place, has none (``repro.query.planner``).

Snapshots may be shared freely across reader threads: all internal
lazy caches (extents, row lists, instance wrappers) are populated with
idempotent inserts, and the planner's plan cache -- shared with the
live store -- takes its own lock.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple
from weakref import ref

from repro.columnar import SurrogateSet
from repro.errors import NoSuchObjectError, UnknownClassError
from repro.objects.instance import EntityRow
from repro.objects.surrogate import Surrogate
from repro.query.indexes import IndexManager
from repro.query.planner import execute_planned

#: Shared empty result.
_EMPTY_SET = SurrogateSet()


class SnapshotInstance(EntityRow):
    """A read-only view of one instance as of a snapshot's epoch.

    Implements the entity protocol (``memberships`` / ``get_value``), so
    anything that consumes instances read-only -- the query interpreter,
    the conformance checker, ``repro load --persist`` -- accepts it.
    Mutators are deliberately absent, and the live store refuses it
    (``_require_live`` compares identities), so a snapshot row can never
    be written through.  Its memberships are the store's interned
    signature, immutable and handed out as they are.
    """

    __slots__ = ()

    def __init__(self, surrogate, memberships: FrozenSet[str],
                 values: Dict[str, object]) -> None:
        self.surrogate = surrogate
        self._memberships = memberships
        self._values = values             # captured ref -- never mutated


class SnapshotIndexes:
    """The planner-facing face of the secondary indexes, frozen at one
    epoch.

    Posting *containers* are captured by reference (the manager's hooks
    privatize an index before mutating it); the plan cache and the query
    and bitset counters are shared with the live store.  Plans are keyed
    on the captured design version, which only index create/drop moves:
    views under one design share each plan, each with its own postings.
    """

    __slots__ = ("version", "plan_cache", "qstats", "bitset_stats",
                 "_postings")

    def __init__(self, manager) -> None:
        self.version = manager.version
        self.plan_cache = manager.plan_cache
        self.qstats = manager.qstats
        self.bitset_stats = manager.bitset_stats
        # attr -> (index, buckets, inapplicable, residue), all refs.
        self._postings = manager.capture()

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._postings

    def __len__(self) -> int:
        return len(self._postings)

    def attributes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._postings))

    def inapplicable(self, attribute: str) -> Set:
        return self._postings[attribute][2]

    def residue(self, attribute: str) -> Set:
        return self._postings[attribute][3]

    def buckets(self, attribute: str) -> Dict:
        return self._postings[attribute][1]

    # The live manager's reads through ``buckets``, over these postings.
    lookup = IndexManager.lookup
    selectivity = IndexManager.selectivity
    range = IndexManager.range


class StoreSnapshot:
    """One committed epoch of a store, frozen (see module docstring).

    Build through ``store.snapshot()`` -- it serializes with writers,
    reuses the cached snapshot when the epoch has not moved, and advances
    the copy-on-write stamp that keeps the captured references frozen.
    A capture takes references and two lengths, nothing else: ``stats()``
    derives the epoch's gauges from them and reads counters live.
    """

    def __init__(self, store, prior: Optional["StoreSnapshot"]) -> None:
        # Called under store._write_lock (from ObjectStore.snapshot()),
        # with the snapshot this one replaces.
        self.epoch: int = store._epoch
        # The schema is pinned by reference: a later schema-epoch swap
        # installs a *new* Schema object on the store, so this snapshot
        # keeps planning and checking against the epoch it captured.
        self.schema = store.schema
        self.schema_epoch: int = store.schema_epochs.current.number
        self.check_mode: str = store.check_mode
        # id -> (surrogate, signature, value dict ref), captured
        # O(1) from the store's columnar state table: the chunk table is
        # taken by reference, and the write side's two-level copy-on-write
        # guarantees no chunk reachable from it is ever mutated again.
        # (The refs must be frozen *at capture* -- the writer privatizes
        # instance containers by reassignment, so a lazy read off the
        # instance would see post-snapshot state.)
        self._objects = store._columns.capture()
        self._extents: Dict[str, object] = dict(store._extents)
        self.indexes = SnapshotIndexes(store.indexes)
        # The two gauges whose live maps move on; the others are
        # computed from the captured state when stats() runs.
        self._n_virtual_refs = len(store._virtual_refs)
        self._n_dirty = len(store._dirty)
        # Counters are read when stats() runs, from the live objects.
        self._engine_stats = store.checker.stats
        self.bitset_stats = store.bitset_stats
        self.memo_ref = ref(self)       # a plan memo's key (weak)
        # Lazy, idempotently-populated caches (thread-shared).
        self._wrappers: Dict[object, SnapshotInstance] = {}
        self._extent_rows: Dict[str, Tuple[SnapshotInstance, ...]] = {}
        # class -> (bits, rows, table), published as one value.
        self._scan_rows: Dict[str, tuple] = {}
        # What scan_rows carries forward by segment: the replaced
        # snapshot's own builds, else what it carried (O(classes)).
        self._carried: Dict[str, tuple] = (
            {**prior._carried, **prior._scan_rows}
            if prior is not None else {})

    # ------------------------------------------------------------------
    # Object access
    # ------------------------------------------------------------------

    def _wrap(self, surrogate) -> SnapshotInstance:
        wrapper = self._wrappers.get(surrogate)
        if wrapper is None:
            state = self._objects.get(surrogate.id)
            if state is None:
                raise NoSuchObjectError(str(surrogate))
            # setdefault keeps wrappers canonical per snapshot even when
            # two reader threads race to build the same one, so identity
            # comparisons inside one snapshot behave like live reads.
            wrapper = self._wrappers.setdefault(
                surrogate, SnapshotInstance(surrogate, state[1], state[2]))
        return wrapper

    def get(self, surrogate) -> SnapshotInstance:
        return self._wrap(surrogate)      # _wrap raises on unknown ids

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, surrogate) -> bool:
        return surrogate.id in self._objects

    def instances(self) -> Iterator[SnapshotInstance]:
        for sid in self._objects.iter_ids():
            yield self._wrap(Surrogate(sid))

    # ------------------------------------------------------------------
    # Extents and membership
    # ------------------------------------------------------------------

    def extent(self, class_name: str) -> Tuple[SnapshotInstance, ...]:
        cached = self._extent_rows.get(class_name)
        if cached is None:
            # Bitset extents iterate in ascending surrogate order already.
            cached = self._extent_rows.setdefault(class_name, tuple(
                self._wrap(row[0]) for row in self.scan_rows(class_name)))
        return cached

    # The generated query loop's row source (``repro.query.compiler``):
    # a row is the captured column state itself; no wrapper exists until
    # a query lets the row escape (``get``).

    def scan_rows(self, class_name: str) -> list:
        built = self._scan_rows.get(class_name)
        if built is None:
            # One assignment publishes rows and offsets together, so a
            # racing reader never pairs one build's table with another
            # build's list; then the prior generation's rows can go.
            built = self._scan_rows.setdefault(class_name, self._objects.scan(
                self.extent_surrogates(class_name),
                self._carried.get(class_name), self.bitset_stats))
            self._carried.pop(class_name, None)
        return built[1]

    def visit_rows(self, surrogates) -> list:
        return self._objects.gather(surrogates, self.bitset_stats)

    def extent_surrogates(self, class_name: str) -> SurrogateSet:
        """Captured surrogate set (callers must not mutate it)."""
        if not self.schema.has_class(class_name):
            raise UnknownClassError(class_name)
        return self._extents.get(class_name, _EMPTY_SET)

    def count(self, class_name: str) -> int:
        return len(self.extent_surrogates(class_name))

    def is_member(self, obj, class_name: str) -> bool:
        """Membership as of this snapshot, for live instances, snapshot
        wrappers, and (falling back to what the object itself reports)
        dangling references the snapshot never saw live."""
        state = self._objects.get(obj.surrogate.id)
        memberships = state[1] if state is not None else obj.memberships
        schema = self.schema
        return any(
            schema.is_subclass(m, class_name) for m in memberships)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def run_query(self, query, **compile_kwargs):
        """Plan-cache-aware query execution against this epoch; returns
        ``(rows, ExecutionStats)`` exactly like
        :func:`repro.query.planner.execute_planned` on a live store."""
        return execute_planned(query, self, **compile_kwargs)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The store's ``stats()`` dict: gauges as of this epoch,
        counters as of the call.

        Gauges (object/extent/dirty/refcount/index populations) come
        from the captured state.  Counters, and the size of the plan
        cache every epoch shares, are read from the live objects: they
        are monotone and tick on read-only work no epoch records.
        """
        snap = self._engine_stats.snapshot()
        snap["schema_epoch"] = self.schema_epoch
        snap["objects"] = len(self._objects)
        snap["extent_entries"] = sum(map(len, self._extents.values()))
        snap["virtual_refs"] = self._n_virtual_refs
        snap["dirty_objects"] = self._n_dirty
        snap["indexes"] = len(self.indexes)
        snap["plans_in_cache"] = len(self.indexes.plan_cache)
        for name, value in self.indexes.qstats.snapshot().items():
            snap[f"query.{name}"] = value
        for name, value in self.bitset_stats.snapshot().items():
            snap[f"bitset.{name}"] = value
        return snap

    def __repr__(self) -> str:
        return (f"<StoreSnapshot epoch={self.epoch} "
                f"objects={len(self._objects)}>")
