"""Secondary attribute indexes over the live object store.

A :class:`StoreIndex` is a hash index over the values of one attribute
across *all* live objects, maintained incrementally by the store's
checked-mutation path (writes, creates, removals) and rolled back with it.
Class scoping happens at query time by intersecting a posting list with
the source extent, so one index serves every class that declares -- or
excuses -- the attribute.

Excuse-awareness
----------------

Under the paper's excuse semantics an indexed attribute can hold values
from *several* type branches at once: the relaxed constraint
``[p : T0 + T1/E1]`` admits base-range values, excuse-range values (for
members of ``E1``), and -- when an excuse range is ``None`` -- the value
:data:`INAPPLICABLE` itself.  A value-keyed hash index is branch-blind
(it keys on the stored value, whichever branch admitted it), which is
exactly what makes indexed equality agree with scan semantics; the two
branch-sensitive populations get their own posting lists:

* the **INAPPLICABLE posting** holds every live object with *no* value
  for the attribute -- whether unset, inapplicable to the object's
  classes, or excused away by a ``None`` alternative.  The planner needs
  it because a guarded scan *skips* (and counts) such rows; an indexed
  plan must visit them to reproduce ``rows_skipped`` exactly (see
  ``docs/SEMANTICS.md`` section 8).
* the **residue posting** holds objects whose value could not be hashed.
  No such value exists in the core value universe, but the index refuses
  to silently prune what it cannot key: residue rows are always handed
  back as candidates.

The :class:`IndexManager` owns all of a store's indexes plus the plan
cache the planner keys on ``(query text, schema version, index version,
compile options)``; creating or dropping an index bumps ``version`` so
cached plans that baked in the old physical design stop matching.

Columnar postings
-----------------

Every posting list -- the per-value buckets, INAPPLICABLE, residue --
is a :class:`repro.columnar.SurrogateSet`: a chunked bitset over the
surrogate ordinal space.  The planner's candidate pruning is therefore
word-vector AND/OR/ANDNOT instead of per-element hash probes, and the
copy-on-write an open snapshot (or undo scope) forces copies the bucket
map and then only the chunk *tables* of the postings a write touches.
Posting sets returned by the lookup methods are live references and
must not be mutated by callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.columnar import SurrogateSet
from repro.obs import QueryStats
from repro.typesys.values import INAPPLICABLE

#: Shared empty set returned by lookups that find nothing.
_EMPTY: frozenset = frozenset()
#: ``StoreIndex._owned`` key of the residue posting.
_RESIDUE = object()


class StoreIndex:
    """Hash index over one attribute: value -> set of surrogates, plus
    the INAPPLICABLE and residue posting lists.  There is no reverse
    (surrogate -> value) map: the object holds its value, so whoever
    moves or removes a posting says which value it was under."""

    __slots__ = ("attribute", "_buckets", "inapplicable", "residue",
                 "_cow_stamp", "_owned")

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._buckets: Dict[object, SurrogateSet] = {}
        #: Live objects with no value for the attribute.
        self.inapplicable = SurrogateSet()
        #: Live objects whose value is unhashable (never prunable).
        self.residue = SurrogateSet()
        # The store's snapshot stamp as of the last :meth:`_privatize`
        # (-1 = never shared), and the postings created or copied since.
        self._cow_stamp: int = -1
        self._owned = {INAPPLICABLE, _RESIDUE}

    def _privatize(self) -> None:
        """Stop sharing containers with whoever captured them (an open
        snapshot, an undo scope): the bucket map is copied now, each
        posting set when a write first touches it -- O(values), then
        O(touched).  In place: the index *object* keeps its identity
        for anyone holding a ``create_index`` return value."""
        self._buckets = dict(self._buckets)
        self._owned = set()

    # Maintenance ------------------------------------------------------

    def _posting(self, value, create: bool) -> Optional[SurrogateSet]:
        """The posting set a write for ``value`` mutates, copied first
        unless already owned; None when there is no bucket and
        ``create`` is off."""
        owned = self._owned
        if value is INAPPLICABLE:
            if INAPPLICABLE not in owned:
                owned.add(INAPPLICABLE)
                self.inapplicable = self.inapplicable.copy()
            return self.inapplicable
        try:
            bucket = self._buckets.get(value)
        except TypeError:
            if _RESIDUE not in owned:
                owned.add(_RESIDUE)
                self.residue = self.residue.copy()
            return self.residue
        if bucket is None:
            if not create:
                return None
            bucket = SurrogateSet()
        elif value in owned:
            return bucket
        else:
            bucket = bucket.copy()
        owned.add(value)
        self._buckets[value] = bucket
        return bucket

    def add(self, surrogate, value) -> None:
        """Index ``surrogate`` as newly live with ``value``."""
        self._posting(value, True).add(surrogate)

    def discard(self, surrogate, value) -> None:
        """Forget ``surrogate``, indexed under ``value``."""
        posting = self._posting(value, False)
        if posting is not None:
            posting.discard(surrogate)
            if not (posting or posting is self.inapplicable
                    or posting is self.residue):
                del self._buckets[value]

    def update(self, surrogate, old, value) -> None:
        """Move ``surrogate`` from ``old``'s posting to ``value``'s."""
        self.discard(surrogate, old)
        self.add(surrogate, value)

    # Lookup -----------------------------------------------------------

    def lookup(self, value):
        """Surrogates whose value equals ``value`` (scan `=` semantics).
        Returns the live posting bitset -- callers must not mutate it."""
        try:
            bucket = self._buckets.get(value)
        except TypeError:          # unhashable probe matches nothing
            return _EMPTY
        return bucket if bucket else _EMPTY

    def selectivity(self, value) -> int:
        """Exact posting size for ``value`` (the planner's cardinality)."""
        try:
            bucket = self._buckets.get(value)
        except TypeError:
            return 0
        return len(bucket) if bucket else 0

    def _n_entries(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __len__(self) -> int:
        return self._n_entries() + len(self.inapplicable) + len(self.residue)

    def distinct_values(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:
        return (f"<StoreIndex {self.attribute}: {self._n_entries()} "
                f"entries, {len(self._buckets)} values, "
                f"{len(self.inapplicable)} inapplicable>")


class PlanCache:
    """A bounded LRU of compiled query plans.

    Keys embed the schema and index-design version counters, so a stale
    plan simply never matches again -- no eager invalidation pass."""

    def __init__(self, capacity: int = 256,
                 stats: Optional[QueryStats] = None) -> None:
        self.capacity = capacity
        self.stats = stats if stats is not None else QueryStats()
        self._plans: "OrderedDict" = OrderedDict()
        # The cache is shared between the live store and every snapshot,
        # i.e. across reader threads; the LRU reordering is not atomic.
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.stats.plan_misses += 1
                return None
            self._plans.move_to_end(key)
            self.stats.plan_hits += 1
            return plan

    def put(self, key, plan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            self.stats.plans_cached += 1
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.stats.plan_evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)


class IndexManager:
    """All secondary indexes of one object store, plus its plan cache.

    The store calls the ``on_*`` hooks from its mutation paths; the
    planner reads postings through :meth:`lookup`/:meth:`inapplicable`
    and keys plans on :attr:`version`.
    """

    def __init__(self, store) -> None:
        self._store = store
        self._indexes: Dict[str, StoreIndex] = {}
        #: Bumped whenever the set of indexes changes (physical design).
        self.version = 0
        self.qstats = QueryStats()
        self.plan_cache = PlanCache(stats=self.qstats)

    # Administration ---------------------------------------------------

    def create(self, attribute: str) -> StoreIndex:
        """Build (or return) the index on ``attribute`` from the live
        population; kept current by the store from then on."""
        existing = self._indexes.get(attribute)
        if existing is not None:
            return existing
        index = StoreIndex(attribute)
        for obj in self._store.instances():
            index.add(obj.surrogate, obj.get_value(attribute))
        # Fresh containers: no snapshot can have captured them yet.
        index._cow_stamp = self._store._snapshot_stamp
        self._indexes[attribute] = index
        self.version += 1
        return index

    def drop(self, attribute: str) -> None:
        if self._indexes.pop(attribute, None) is not None:
            self.version += 1

    def get(self, attribute: str) -> Optional[StoreIndex]:
        return self._indexes.get(attribute)

    def attributes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._indexes))

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._indexes

    def __len__(self) -> int:
        return len(self._indexes)

    # Store-side maintenance hooks -------------------------------------

    def _writable(self, index: StoreIndex) -> StoreIndex:
        """Privatize ``index``'s containers if a snapshot may hold them
        (copy-on-write against ``store._snapshot_stamp``)."""
        stamp = self._store._snapshot_stamp
        if index._cow_stamp != stamp:
            index._privatize()
            index._cow_stamp = stamp
        return index

    def on_create(self, surrogate) -> None:
        """A new object is live; it starts with every attribute unset."""
        for index in self._indexes.values():
            self._writable(index).add(surrogate, INAPPLICABLE)
        self.qstats.index_updates += len(self._indexes)

    def on_remove(self, obj) -> None:
        for index in self._indexes.values():
            self._writable(index).discard(
                obj.surrogate, obj.get_value(index.attribute))
        self.qstats.index_updates += len(self._indexes)

    def bulk_add(self, objects, indexed_writes: int = 0) -> None:
        """Index a batch of newly-live objects in one pass per index and
        bump the design version **once** for the whole batch.

        Equivalent to ``on_create`` + ``on_value_change`` per object (no
        value for an indexed attribute: the INAPPLICABLE posting).
        ``indexed_writes`` is the number of staged writes that touched
        indexed attributes, so ``index_updates`` advances as the
        sequential path would.

        The version bump is deliberate and conservative: plans compiled
        while the batch was staged were costed against pre-batch
        cardinalities, and the monotone version counter is the plan
        cache's only invalidation mechanism (see ``PlanCache``).
        """
        if not objects:
            return
        for index in self._indexes.values():
            self._writable(index)
            attribute = index.attribute
            buckets = index._buckets
            owned = index._owned
            posting_for = index._posting
            for obj in objects:
                # Inlined StoreIndex.add for an owned bucket (this loop
                # dominates deferred bulk merges; instances are live, so
                # the value dict is read directly).
                value = obj._values.get(attribute, INAPPLICABLE)
                try:
                    posting = buckets.get(value) if value in owned else None
                except TypeError:
                    posting = None
                if posting is None:
                    posting = posting_for(value, True)
                posting.add(obj.surrogate)
        if self._indexes:
            self.qstats.index_updates += (
                len(self._indexes) * len(objects) + indexed_writes)
        self.version += 1

    def on_schema_change(self, affected_attributes) -> int:
        """Rebuild the postings of every index whose attribute the schema
        delta touches, leaving the others untouched (scoped invalidation).

        Postings are value-keyed, so most schema changes cannot stale
        them -- but a change that re-scopes an attribute's constraints
        (a retracted excuse, a dropped declaration, a moved hierarchy)
        may have changed which stored values even exist by the time the
        mutation paths run again, and the exactness contract ("an
        indexed plan agrees with the scan row-for-row") is cheap to
        re-establish by re-deriving the affected postings from the live
        population.  Returns the number of indexes rebuilt; bumps the
        design version once when any were, so cached plans costed
        against the old cardinalities stop matching.
        """
        rebuilt = 0
        for attribute in sorted(affected_attributes):
            index = self._indexes.get(attribute)
            if index is None:
                continue
            fresh = StoreIndex(attribute)
            for obj in self._store.instances():
                fresh.add(obj.surrogate, obj.get_value(attribute))
            # Swap containers in place (fresh ones -- no snapshot can
            # hold them) so the index object keeps its identity.
            index._buckets = fresh._buckets
            index.inapplicable = fresh.inapplicable
            index.residue = fresh.residue
            index._owned = fresh._owned
            index._cow_stamp = self._store._snapshot_stamp
            rebuilt += 1
        if rebuilt:
            self.qstats.index_updates += rebuilt
            self.version += 1
        return rebuilt

    def on_value_change(self, surrogate, attribute: str, old,
                        value) -> None:
        index = self._indexes.get(attribute)
        if index is None:
            return
        self._writable(index).update(surrogate, old, value)
        self.qstats.index_updates += 1

    # Planner-side reads -----------------------------------------------

    def lookup(self, attribute: str, value):
        # Probe counting is the executor's job (it also counts the
        # extent-set probes this manager never sees).
        return self._indexes[attribute].lookup(value)

    def inapplicable(self, attribute: str) -> SurrogateSet:
        return self._indexes[attribute].inapplicable

    def residue(self, attribute: str) -> SurrogateSet:
        return self._indexes[attribute].residue

    def selectivity(self, attribute: str, value) -> int:
        return self._indexes[attribute].selectivity(value)

    # Rollback roots (atomic scopes) -----------------------------------

    def capture(self):
        """``attr -> (index, buckets, inapplicable, residue)``, all by
        reference: what a snapshot reads and an undo scope puts back.
        Frozen because the caller has just advanced the store's stamp,
        so the next maintenance hook privatizes first."""
        return {attr: (index, index._buckets, index.inapplicable,
                       index.residue)
                for attr, index in self._indexes.items()}

    def reinstall(self, captured) -> None:
        """Put a :meth:`capture` back *into* the index objects (a held
        ``create_index`` handle stays live), unstamped: open snapshots
        may share the containers."""
        for index, buckets, inapplicable, residue in captured.values():
            index._buckets = buckets
            index.inapplicable = inapplicable
            index.residue = residue
            index._cow_stamp = -1
        design = {attr: entry[0] for attr, entry in captured.items()}
        if design != self._indexes:
            # The physical design moved.  The counter stays monotone --
            # never restored backwards -- so a plan keyed against a
            # version from inside the rolled-back scope can never collide
            # with a future design that happens to reuse the number.
            self.version += 1
        self._indexes = design
