"""Store backends: the op surface a :class:`StoreService` serves.

The service owns the *transport* -- framing, pipelining, backpressure,
role enforcement, replication shipping -- and delegates every data
operation to a **backend**, one ``op_<name>(cmd)`` wire-level handler
per request op plus a handful of gauges (``position`` / ``last_seq`` /
``epoch`` / ``object_count``).  Three backends cover the store shapes
the library grows:

* :class:`ConcurrentBackend` -- a single store: reads from MVCC
  snapshots that never wait for a writer (``snapshot(wait=False)``),
  writes through the serialized pipeline.
* :class:`ReplicaBackend` -- a WAL-following
  :class:`~repro.net.replication.Replica`: reads at the replay
  position (honoring epoch tokens), no writes.
* :class:`ShardedBackend` -- a
  :class:`~repro.sharding.router.ShardedStore` router: each request
  goes to ``router.execute`` as the client encoded it and is routed by
  its row's reach, and every op runs off the event loop (the router
  blocks on the worker pipes).

**Positions are vector tokens** (:mod:`repro.net.tokens`): a backend's
``position()`` is the ``{shard_id: seq}`` map of commit positions it
can prove, and a write ack carries it as the token.  Single-store
backends occupy the one component ``"0"``; the sharded backend
composes the router's per-shard observations.  ``last_seq()`` stays a
scalar gauge for display and the legacy hello field.

**Handlers are derived, not written.**  Every op is one row of
:data:`repro.ops.OPS`; :func:`_install` gives each backend class an
``op_<name>`` per row that hands the request to ``_serve(row, cmd)``,
which checks it against the row, runs a read against the backend's
``_view`` and a write against its ``store`` (sids through
``_resolve``) and puts the ack on the payload -- so a backend says
only what is its own: which view, which store, which lock around the
call.  The sharded backend runs no row body: its ``_serve`` hands the
request, values as the client encoded them, to the router's
``execute``, which checks it once and routes it by reach rather than
re-implementing the store methods.

A row marked ``fenced`` always runs on the service's executor; a
backend whose every op blocks (on IPC, on a lock) says so with
``blocking = True``.  The service installs its ``NetStats`` onto
``backend.net_stats`` after construction so routed-op counters
(``writes_routed`` / ``shards_scattered`` / ``shards_pruned``) land in
the same snapshot the ``stats`` op serves.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.net import tokens
from repro.net.replication import LocalShipSource, Replica
from repro.objects.surrogate import Surrogate
from repro.ops import OPS, Op

__all__ = [
    "ConcurrentBackend",
    "ReplicaBackend",
    "ShardedBackend",
    "StoreBackend",
    "open_backend",
]


class StoreBackend:
    """The contract (see module docstring).  A subclass says which
    view serves a read (``_view``), how a write's sid resolves
    (``_resolve``), and its gauges."""

    #: Whether mutations are accepted (the service refuses writes with
    #: ``NotPrimaryError`` when False).
    writable = True
    #: Whether every op must run on the service's executor, off the
    #: event loop (fenced rows always do).
    blocking = False
    #: WAL ship source for replication ops (None: cannot ship).
    ship: Optional[LocalShipSource] = None
    #: Installed by the service after construction; handlers bump
    #: routed-op counters through it when present.
    net_stats = None

    def _serve(self, row: Op, cmd):
        """One table row, checked: a read against the view, a write
        against the store with this backend's ack on the payload."""
        row.check(cmd)
        if not row.write:
            return row.run(self._view(cmd), cmd, None)
        return self._ack(row.run(self.store, cmd, self._resolve))

    def _ack(self, payload):
        return {"token": self.position(), "epoch": self.epoch(), **payload}

    def position(self) -> Dict[str, int]:
        raise NotImplementedError

    def last_seq(self) -> int:
        raise NotImplementedError

    def epoch(self) -> int:
        raise NotImplementedError

    def object_count(self) -> int:
        return len(self.store)

    def describe(self) -> Dict[str, object]:
        """Extra fields for the hello frame and ``ping`` responses."""
        return {}

    def close(self) -> None:
        """Close what the backend serves (a store, a router)."""
        self.store.close()


def _install(cls, rows) -> None:
    """Give ``cls`` an ``op_<name>(cmd)`` handler for each row, in the
    class's own ``__dict__`` (the service looks them up by name; tests
    and the benchmark's tracer patch them there)."""
    for row in rows:
        name = "op_" + row.name

        def handler(self, cmd, _row=row):
            return self._serve(_row, cmd)

        handler.__name__ = name
        handler.__qualname__ = f"{cls.__name__}.{name}"
        setattr(cls, name, handler)


class SnapshotBackend(StoreBackend):
    """Shared read path for backends whose reads run against one MVCC
    snapshot (:meth:`_view`): the single-store primary and the replica
    differ only in which snapshot serves a request."""

    def _view(self, cmd):
        raise NotImplementedError


class ConcurrentBackend(SnapshotBackend):
    """A single store served concurrently: reads from MVCC snapshots,
    writes through the serialized pipeline."""

    def __init__(self, store) -> None:
        self.store = store
        if getattr(store, "_wal", None) is not None:
            self.ship = LocalShipSource(store)

    def _view(self, cmd):
        # A primary is never behind its own log: tokens need no check.
        return self.store.snapshot(wait=False)

    def _resolve(self, sid: int):
        return self.store.get(Surrogate(sid))

    # -- gauges ---------------------------------------------------------

    def position(self) -> Dict[str, int]:
        """One component: the store's commit position (in memory its
        epoch: no replica can lag, but token_wait on an ack must still
        succeed immediately)."""
        return tokens.as_token(self.store.position())

    def last_seq(self) -> int:
        wal = getattr(self.store, "_wal", None)
        return wal.last_seq if wal is not None else 0

    def epoch(self) -> int:
        return self.store._epoch


class ReplicaBackend(SnapshotBackend):
    """A WAL-following replica: reads only, at the replay position."""

    writable = False

    def __init__(self, replica: Replica) -> None:
        self.replica = replica

    @property
    def store(self):
        # Dereferenced on every access: a stale replica re-bootstraps
        # by swapping in a fresh store, and every handler must follow.
        return self.replica.store

    def _view(self, cmd):
        snapshot, _ = self.replica.read_view(cmd.get("token"))
        return snapshot

    def position(self) -> Dict[str, int]:
        return tokens.as_token(self.replica.applied_seq)

    def last_seq(self) -> int:
        return self.replica.applied_seq

    def epoch(self) -> int:
        return self.store._epoch


class ShardedBackend(StoreBackend):
    """A sharded store served over the network: the router scatters
    queries (deduction-pruned) and routes writes to owner shards.

    The router is **not** thread-safe -- every worker conversation is a
    strict send/recv on a per-shard pipe, one command in flight -- and
    every op blocks on that IPC, so the whole surface is ``blocking``
    (the service runs it on executor threads) and a lock serializes
    them.  The gauges
    (``position``/``epoch``) deliberately *don't* take the lock: they
    only read the router's per-shard position map (fixed keys, int
    values -- safe to read concurrently), so a ``token_wait`` can poll
    while a long bulk load holds the lock, and unblock the moment the
    load's positions land.
    """

    blocking = True

    def __init__(self, router) -> None:
        self.store = self.router = router
        self._lock = threading.Lock()
        # Publish exact positions before any command has flowed (a
        # reopened durable store must hand out covering tokens
        # immediately).
        router.refresh_positions()

    def describe(self) -> Dict[str, object]:
        return {"shards": self.router.n_shards}

    # -- gauges ---------------------------------------------------------

    def position(self) -> Dict[str, int]:
        return self.router.position_token()

    def last_seq(self) -> int:
        # Scalar display gauge: the summed per-shard positions (equal
        # to the plain WAL seq in the 1-shard case).
        return tokens.token_total(self.router.position_token())

    def epoch(self) -> int:
        return self.last_seq()

    # -- ops ------------------------------------------------------------

    def _serve(self, row: Op, cmd):
        """The router checks and routes the request (the handler's row
        names the op), its fields as the client encoded them; the
        counters it moved land in ``net_stats``."""
        stats, counters = self.net_stats, self.router.stats_counters
        if row.write and stats is not None:
            stats.writes_routed += 1
        with self._lock:
            before = counters.shards_dispatched, counters.shards_pruned
            payload = self.router.execute(dict(cmd, op=row.name))
            if stats is not None:
                stats.shards_scattered += (
                    counters.shards_dispatched - before[0])
                stats.shards_pruned += counters.shards_pruned - before[1]
            return self._ack(payload) if row.write else payload


_install(SnapshotBackend, [row for row in OPS.values() if not row.write])
_install(ConcurrentBackend, [row for row in OPS.values() if row.write])
_install(ShardedBackend, OPS.values())


def open_backend(directory: str, *, processes: bool = True,
                 **store_kwargs) -> StoreBackend:
    """Open a store directory as the backend its layout calls for:
    a ``SHARDS.json`` manifest means a sharded store (one router over
    N recovered shard workers), anything else a single durable store.
    This is what lets ``repro serve DIR`` serve either shape."""
    from repro.storage.shards import is_sharded
    if is_sharded(directory):
        from repro.sharding.router import ShardedStore
        return ShardedBackend(ShardedStore.open(
            directory, processes=processes))
    from repro.objects.store import ObjectStore
    return ConcurrentBackend(ObjectStore.open(directory, **store_kwargs))
