"""Immutable point-in-time views of an object store (MVCC reads).

``ObjectStore.snapshot()`` returns a :class:`StoreSnapshot`: a frozen,
epoch-stamped view of the committed state that serves the whole read
surface -- ``extent`` / ``extent_surrogates`` / ``count`` / ``get`` /
``is_member`` / ``instances`` / ``run_query`` / ``stats`` -- without
ever touching the live mutable maps again.  A snapshot taken before a
committed mutation can never observe it, and a long analytical query
runs against one consistent epoch while writers keep committing.

Capture is O(number of live roots), not O(state): the snapshot records
*references* to each instance's membership-set and value-dict, to each
extent set, and to each index's posting containers.  The write side
(:mod:`repro.objects.pipeline` and the index manager's hooks) never
mutates a structure an open snapshot may have captured -- it privatizes
the structure first when its copy-on-write stamp predates the newest
snapshot (``store._snapshot_stamp``), so every captured reference is
frozen forever.

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

Snapshots may be shared freely across reader threads: all internal
lazy caches (extents, row lists, instance wrappers) are populated with
idempotent inserts, and the planner's plan cache -- shared with the
live store -- takes its own lock.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from repro.errors import NoSuchObjectError, UnknownClassError
from repro.objects.surrogate import Surrogate
from repro.typesys.values import INAPPLICABLE

#: Shared empty results.
_EMPTY_SET: Set = set()
_EMPTY_FROZEN: frozenset = frozenset()


class SnapshotInstance:
    """A read-only view of one instance as of a snapshot's epoch.

    Implements the entity protocol (``memberships`` / ``get_value``), so
    anything that consumes instances read-only -- the query interpreter,
    the conformance checker, ``repro load --persist`` -- accepts it.
    Mutators are deliberately absent, and the live store refuses it
    (``_require_live`` compares identities), so a snapshot row can never
    be written through.
    """

    __slots__ = ("surrogate", "_memberships", "_values")

    def __init__(self, surrogate, memberships: Set[str],
                 values: Dict[str, object]) -> None:
        self.surrogate = surrogate
        self._memberships = memberships   # captured ref -- never mutated
        self._values = values             # captured ref -- never mutated

    @property
    def memberships(self) -> frozenset:
        return frozenset(self._memberships)

    def get_value(self, name: str):
        return self._values.get(name, INAPPLICABLE)

    def value_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._values))

    def values_snapshot(self) -> Dict[str, object]:
        return dict(self._values)

    def __getitem__(self, name: str):
        return self.get_value(name)

    def __repr__(self) -> str:
        classes = ",".join(sorted(self._memberships)) or "<none>"
        return f"<SnapshotInstance {self.surrogate} : {classes}>"


class SnapshotIndexes:
    """The planner-facing face of the secondary indexes, frozen at one
    epoch.

    Posting *containers* are captured by reference (the manager's hooks
    privatize an index before mutating it); the plan cache and query
    counters are shared with the live store -- plans are keyed on the
    captured design version, so a plan built against this snapshot never
    collides with one built against a later physical design.
    """

    __slots__ = ("version", "plan_cache", "qstats", "_postings")

    def __init__(self, manager) -> None:
        self.version = manager.version
        self.plan_cache = manager.plan_cache
        self.qstats = manager.qstats
        # attr -> (index, buckets, inapplicable, residue), all refs.
        self._postings = manager.capture()

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._postings

    def __len__(self) -> int:
        return len(self._postings)

    def attributes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._postings))

    def lookup(self, attribute: str, value):
        """Captured posting bucket for ``value`` (callers must not
        mutate the returned set)."""
        buckets = self._postings[attribute][1]
        try:
            bucket = buckets.get(value)
        except TypeError:          # unhashable probe matches nothing
            return _EMPTY_FROZEN
        return bucket if bucket else _EMPTY_FROZEN

    def selectivity(self, attribute: str, value) -> int:
        return len(self.lookup(attribute, value))

    def inapplicable(self, attribute: str) -> Set:
        return self._postings[attribute][2]

    def residue(self, attribute: str) -> Set:
        return self._postings[attribute][3]


class StoreSnapshot:
    """One committed epoch of a store, frozen (see module docstring).

    Build through ``store.snapshot()`` -- it serializes with writers,
    reuses the cached snapshot when the epoch has not moved, and advances
    the copy-on-write stamp that keeps the captured references frozen.
    """

    def __init__(self, store) -> None:
        # Called under store._write_lock (from ObjectStore.snapshot()).
        self.epoch: int = store._epoch
        # The schema is pinned by reference: a later schema-epoch swap
        # installs a *new* Schema object on the store, so this snapshot
        # keeps planning and checking against the epoch it captured.
        self.schema = store.schema
        self.schema_epoch: int = store.schema_epochs.current.number
        self.check_mode: str = store.check_mode
        # id -> (surrogate, membership set ref, value dict ref), captured
        # O(1) from the store's columnar state table: the chunk table is
        # taken by reference, and the write side's two-level copy-on-write
        # guarantees no chunk reachable from it is ever mutated again.
        # (The refs must be frozen *at capture* -- the writer privatizes
        # instance containers by reassignment, so a lazy read off the
        # instance would see post-snapshot state.)
        self._objects = store._columns.capture()
        self._extents: Dict[str, object] = dict(store._extents)
        self.indexes = SnapshotIndexes(store.indexes)
        # Gauges, captured as plain ints (the live maps move on).
        self._extent_entries = sum(
            len(members) for members in self._extents.values())
        self._n_virtual_refs = len(store._virtual_refs)
        self._n_dirty = len(store._dirty)
        self._n_indexes = len(store.indexes)
        self._plans_in_cache = len(store.indexes.plan_cache)
        self._counters = store.checker.stats.snapshot()
        self._query_counters = store.indexes.qstats.snapshot()
        # The store's injected sink (defaults to the process-wide
        # BITSET_STATS) -- so a snapshot taken inside a shard worker
        # reports that worker's own algebra counters.
        self._bitset_counters = store.bitset_stats.snapshot()
        # Lazy, idempotently-populated caches (thread-shared).
        self._wrappers: Dict[object, SnapshotInstance] = {}
        self._extent_rows: Dict[str, Tuple[SnapshotInstance, ...]] = {}
        self._scan_rows: Dict[str, list] = {}

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
        cached = self._scan_rows.get(class_name)
        if cached is None:
            surrogates = self.extent_surrogates(class_name)
            cached = self._scan_rows.setdefault(
                class_name,
                self._objects.rows(surrogates) if surrogates else [])
        return cached

    def visit_rows(self, surrogates) -> list:
        return self._objects.rows(surrogates)

    def extent_surrogates(self, class_name: str) -> Set:
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
        from repro.query.planner import execute_planned
        return execute_planned(query, self, **compile_kwargs)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self, live_counters: Optional[Dict] = None,
              live_query: Optional[Dict] = None,
              live_bitset: Optional[Dict] = None,
              n_indexes: Optional[int] = None,
              plans_in_cache: Optional[int] = None) -> Dict[str, object]:
        """The store's ``stats()`` dict as of this epoch.

        Gauges (object/extent/dirty/refcount populations) always come
        from the captured state.  Counters default to their captured
        values; the live store passes its current ones instead (they are
        monotone and tick on read-only work the epoch never sees).
        """
        snap = dict(live_counters if live_counters is not None
                    else self._counters)
        snap["schema_epoch"] = self.schema_epoch
        snap["objects"] = len(self._objects)
        snap["extent_entries"] = self._extent_entries
        snap["virtual_refs"] = self._n_virtual_refs
        snap["dirty_objects"] = self._n_dirty
        snap["indexes"] = (n_indexes if n_indexes is not None
                           else self._n_indexes)
        snap["plans_in_cache"] = (
            plans_in_cache if plans_in_cache is not None
            else self._plans_in_cache)
        query_counters = (live_query if live_query is not None
                          else self._query_counters)
        for name, value in query_counters.items():
            snap[f"query.{name}"] = value
        bitset_counters = (live_bitset if live_bitset is not None
                           else self._bitset_counters)
        for name, value in bitset_counters.items():
            snap[f"bitset.{name}"] = value
        return snap

    def __repr__(self) -> str:
        return (f"<StoreSnapshot epoch={self.epoch} "
                f"objects={len(self._objects)}>")
