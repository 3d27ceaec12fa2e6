"""Concurrent serving: snapshot readers that never block the writer.

:class:`ConcurrentStore` wraps one :class:`~repro.objects.store.
ObjectStore` for multi-threaded use.  The division of labor:

* **Writers** are serialized through the store's mutation pipeline --
  every delegated mutation takes ``store._write_lock`` for exactly the
  span of one command (or one transaction scope), so interleaved writers
  from any thread always observe command-atomic state.
* **Readers** run against :class:`~repro.objects.snapshot.StoreSnapshot`
  epochs and therefore never wait for the writer.  :meth:`snapshot`
  is wait-free in the contended case: if the cached snapshot's epoch is
  current it is returned outright; otherwise the lock is *try*-acquired
  to refresh, and when the writer holds it -- mid-command or
  mid-transaction -- the previous epoch is served instead.  A reader
  thus sees a consistent committed state that is at most one writer
  lock-hold stale, and never a torn or uncommitted one.
"""

from __future__ import annotations

from repro.objects.snapshot import StoreSnapshot
from repro.objects.store import ObjectStore


class ConcurrentStore:
    """A thread-safe facade: serialized writes, snapshot-isolated reads.

    Usage::

        shared = ConcurrentStore(store)
        # writer thread
        with shared.transaction():
            shared.set_value(p, "age", 41)
        # reader threads
        rows, stats = shared.query("for p in Patient select p.age")

    Every read helper (``query`` / ``extent`` / ``get`` / ``count`` /
    ``is_member`` / ``stats``) resolves one snapshot and reads it; grab
    :meth:`snapshot` yourself when several reads must agree on a single
    epoch.
    """

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        # Seed so readers always have a committed epoch to fall back to.
        self._snapshot: StoreSnapshot = store.snapshot()

    @property
    def store(self) -> ObjectStore:
        """The wrapped store (mutate it only from one thread at a time
        unless going through this facade)."""
        return self._store

    @property
    def schema(self):
        return self._store.schema

    @property
    def epoch(self) -> int:
        return self._store._epoch

    # ------------------------------------------------------------------
    # Snapshot acquisition (the reader hot path)
    # ------------------------------------------------------------------

    def snapshot(self, wait: bool = False) -> StoreSnapshot:
        """The newest available committed epoch.

        With ``wait=False`` (default) this never blocks: a current cached
        snapshot is returned directly; a stale one triggers a
        non-blocking refresh attempt, and if the writer holds the lock
        the stale-but-consistent epoch is served.  With ``wait=True``
        the call blocks until the current committed epoch is captured.
        """
        store = self._store
        cached = self._snapshot
        # Racy epoch read: the epoch only advances under the lock, after
        # a command fully applied, so equality proves the cache current
        # *at some instant* -- exactly the snapshot guarantee.
        if cached.epoch == store._epoch:
            return cached
        if wait:
            fresh = store.snapshot()
            self._snapshot = fresh
            return fresh
        lock = store._write_lock
        if lock.acquire(blocking=False):
            try:
                fresh = store.snapshot()
            finally:
                lock.release()
            self._snapshot = fresh
            return fresh
        return cached

    # ------------------------------------------------------------------
    # Reads (snapshot-isolated)
    # ------------------------------------------------------------------

    def query(self, query, **compile_kwargs):
        """Execute a query against the newest available epoch; returns
        ``(rows, ExecutionStats)``."""
        return self.snapshot().run_query(query, **compile_kwargs)

    def extent(self, class_name: str):
        return self.snapshot().extent(class_name)

    def extent_surrogates(self, class_name: str):
        return self.snapshot().extent_surrogates(class_name)

    def count(self, class_name: str) -> int:
        return self.snapshot().count(class_name)

    def get(self, surrogate):
        return self.snapshot().get(surrogate)

    def is_member(self, obj, class_name: str) -> bool:
        return self.snapshot().is_member(obj, class_name)

    def stats(self):
        """Epoch-consistent stats from the newest available snapshot."""
        return self.snapshot().stats()

    def __len__(self) -> int:
        return len(self.snapshot())

    # ------------------------------------------------------------------
    # Writes (serialized through the pipeline)
    # ------------------------------------------------------------------

    def create(self, class_name: str, check=None, **values):
        return self._store.create(class_name, check=check, **values)

    def remove(self, obj) -> None:
        self._store.remove(obj)

    def classify(self, obj, class_name: str, check=None) -> None:
        self._store.classify(obj, class_name, check=check)

    def declassify(self, obj, class_name: str, check=None) -> None:
        self._store.declassify(obj, class_name, check=check)

    def set_value(self, obj, attribute: str, value, check=None) -> None:
        self._store.set_value(obj, attribute, value, check=check)

    def unset_value(self, obj, attribute: str, check=None) -> None:
        self._store.unset_value(obj, attribute, check=check)

    def transaction(self, validate_on_commit: bool = False):
        """An atomic multi-command scope; holds the write lock for the
        whole scope, so readers serve the pre-transaction epoch until
        commit."""
        return self._store._pipeline.transaction(validate_on_commit)

    def checkpoint(self):
        return self._store.checkpoint()

    def bulk_session(self, **kwargs):
        return self._store.bulk_session(**kwargs)

    def bulk_load(self, rows, **kwargs):
        return self._store.bulk_load(rows, **kwargs)

    def validate_all(self):
        return self._store.validate_all()

    def validate_dirty(self):
        return self._store.validate_dirty()

    def alter_class(self, new_def, *, recheck: str = "affected"):
        """Apply a live schema change; readers keep serving the prior
        schema epoch (wait-free) until the swap commits."""
        return self._store.alter_class(new_def, recheck=recheck)

    def add_excuse(self, class_name: str, attribute: str, range_,
                   targets, *, recheck: str = "affected"):
        return self._store.add_excuse(class_name, attribute, range_,
                                      targets, recheck=recheck)

    def retract_excuse(self, class_name: str, attribute: str, *,
                       targets=None, drop_attribute: bool = False,
                       recheck: str = "affected"):
        return self._store.retract_excuse(
            class_name, attribute, targets=targets,
            drop_attribute=drop_attribute, recheck=recheck)

    def create_index(self, attribute: str):
        return self._store.create_index(attribute)

    def drop_index(self, attribute: str) -> None:
        self._store.drop_index(attribute)

    def __repr__(self) -> str:
        return f"<ConcurrentStore {self._store!r}>"
