"""Shard worker: one full :class:`ObjectStore` behind a command loop.

Each shard is an ordinary store -- its own mutation pipeline, WAL
directory, columnar extents, plan cache, and counters -- wrapped by
:class:`ShardServer`, which decodes JSON commands (``wire.py``),
executes them against the store, and encodes results.
:func:`shard_worker_main` is the ``multiprocessing`` entry point
(top-level, so it is spawn-safe): it serves one duplex pipe, one
command at a time, and exits when its router is gone; the in-process
backend drives the very same :class:`ShardServer` through the very
same JSON texts.
The store ops it answers are the rows of :data:`repro.ops.OPS`: reads
against this shard's masked view, writes through
:func:`repro.ops.replay` -- the router owns global surrogate allocation
(so a sharded store mints exactly the ids a single store would), and a
routed ``create`` / ``bulk`` carries its sids the way a logged one
does.  What is written out below is only the shard's own: the
``foreign`` bookkeeping around the ``create`` / ``remove`` rows, the
live-store ``get`` and the ops only a router sends (``ids``,
``set_foreign``, ``shard_map``, ``stats``, ``ping``, ``scope``).

Two shard-specific mechanisms live here:

* **Scopes** -- a command carrying ``begin`` first opens a
  ``store.transaction()``, held across commands (one writer, one
  ordered pipe) until ``scope`` commits or aborts it; an abort restores
  ``foreign`` too, and :meth:`ShardServer.close` aborts an open scope.
  ``scope`` is no :data:`~repro.ops.OPS` row: no network client may
  hold a store's write lock across requests.

* **Masked reads** -- replicated reference entities exist on every
  shard under one sid, but only their owner shard may *report* them:
  queries, counts and extent chunks run through a
  :class:`MaskedSnapshot` that subtracts the ``foreign`` replica set
  from every extent, so unions over shards are exact.  Membership and
  value reads stay unmasked (a replica answers ``x.treatedBy in
  Physician`` locally, exactly as the single store would).  One masked
  view serves the reads of one snapshot and ``foreign`` set.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple
from weakref import ref

from repro import codec
from repro.columnar import SurrogateSet
from repro.errors import ShardingError
from repro.lang.loader import load_schema
from repro.objects.pipeline import CheckMode
from repro.objects.profiles import profile_catalog
from repro.objects.store import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.ops import OPS, Op, replay
from repro.sharding import wire

__all__ = ["MaskedSnapshot", "ShardServer", "shard_worker_main"]

#: An idle worker wakes this often to check it still has its router.
ORPHAN_CHECK_SECONDS = 1.0


class MaskedSnapshot:
    """A store snapshot with foreign replica sids subtracted from every
    extent (and therefore from counts and index candidate sets, which
    all start from the source extent).  get/is_member stay unmasked.
    A plan memo keys on this view, never on the snapshot behind it.
    One view serves the reads of one snapshot (or of one command in a
    scope), so it keeps each class's masked extent and rows."""

    __slots__ = ("_snap", "_foreign", "_masked", "_rows", "memo_ref",
                 "__weakref__")

    def __init__(self, snap, foreign: SurrogateSet) -> None:
        self._snap = snap
        self._foreign = foreign
        self._masked: Dict[str, SurrogateSet] = {}
        self._rows: Dict[str, list] = {}
        self.memo_ref = None if snap.memo_ref is None else ref(self)

    def extent_surrogates(self, class_name: str) -> SurrogateSet:
        cached = self._masked.get(class_name)
        if cached is None:
            cached = self._snap.extent_surrogates(class_name).sub(
                self._foreign, self._snap.bitset_stats)
            self._masked[class_name] = cached
        return cached

    def count(self, class_name: str) -> int:
        return len(self.extent_surrogates(class_name))

    def scan_rows(self, class_name: str) -> list:
        rows = self._rows.get(class_name)
        if rows is None:
            masked = self.extent_surrogates(class_name)
            # Nothing of this class foreign: the snapshot's own rows.
            rows = self._rows[class_name] = (
                self._snap.scan_rows(class_name)
                if len(masked) == self._snap.count(class_name)
                else self._snap.visit_rows(masked))
        return rows

    def __getattr__(self, name: str):   # only what no extent flows through
        if name not in ("get", "is_member", "visit_rows", "indexes", "schema"):
            raise AttributeError(name)
        return getattr(self._snap, name)


class ShardServer:
    """One shard's store plus the command dispatch (module docstring)."""

    def __init__(self, shard_id: int, n_shards: int,
                 schema_text: Optional[str] = None,
                 directory: Optional[str] = None,
                 durability: Optional[str] = None,
                 sync: Optional[str] = None,
                 check_mode: str = CheckMode.EAGER) -> None:
        self.shard_id = shard_id
        self.n_shards = n_shards
        schema = load_schema(schema_text) if schema_text else None
        if directory is not None:
            kwargs: Dict[str, object] = {"check_mode": check_mode}
            if sync is not None:
                kwargs["sync"] = sync
            self.store = ObjectStore.open(
                directory, schema=schema, durability=durability, **kwargs)
        else:
            if schema is None:
                raise ShardingError("an in-memory shard needs a schema")
            self.store = ObjectStore(schema, check_mode=check_mode)
        #: Replicated reference entities owned by another shard: masked
        #: out of every extent this shard reports.
        self.foreign = SurrogateSet()
        #: The open scope: its store transaction and the ``foreign``
        #: set to restore on abort (None: no scope).
        self._scope: Optional[Tuple[object, SurrogateSet]] = None
        self._masked: Optional[MaskedSnapshot] = None   # kept by _read_view

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------

    def handle_json(self, text: str) -> str:
        return self.reply(wire.decode_command(text))

    def reply(self, cmd: Dict[str, object]) -> str:
        # Every result envelope -- success or error -- carries this
        # shard's commit position ("seq"), so the router's view of the
        # per-shard vector token is updated by the very reply that
        # advanced it; no extra round-trip per write ack.
        try:
            result = {"ok": self.handle(cmd)}
        except Exception as exc:   # ships the failure back to the router
            result = {"error": codec.encode_error(exc)}
        result["seq"] = self.store.position()
        return wire.encode_result(result)

    def handle(self, cmd: Dict[str, object]):
        op = cmd.get("op")
        handler = self._HANDLERS.get(op) if isinstance(op, str) else None
        if cmd.get("begin"):
            if self._scope is not None:
                raise ShardingError("a scope is already open")
            txn = self.store.transaction()
            txn.__enter__()
            self._scope = (txn, self.foreign.copy(self.store.bitset_stats))
        if handler is None:
            raise ShardingError(f"unknown shard command {op!r}")
        return handler(self, cmd)

    def _run(self, row: Op, cmd, view=None):
        """One table row against this shard: writes go to the store
        (minting the sids the router assigned), reads to the masked
        view (or the ``view`` a hook picks)."""
        row.check(cmd)
        if row.write:
            return replay(self.store, row.name, cmd, self._resolve)
        return row.run(view or self._read_view(), cmd, self._resolve)

    def _resolve(self, sid: int):
        return self.store.get(Surrogate(sid))

    def _read_view(self):
        # Inside a scope the router reads its own writes; no view is kept.
        snap = self.store.snapshot() if self._scope is None else self.store
        if not len(self.foreign):
            return snap
        view = self._masked
        if view is None or view._snap is not snap or (
                view._foreign is not self.foreign):
            view = MaskedSnapshot(snap, self.foreign)
            self._masked = view if self._scope is None else None
        return view

    # ------------------------------------------------------------------
    # Hooks around table rows: replica bookkeeping
    # ------------------------------------------------------------------

    def _op_create(self, cmd):
        out = self._run(OPS["create"], cmd)
        if cmd.get("foreign"):
            self.foreign.add(Surrogate(out["sid"]))
            self._masked = None
        return out

    def _op_remove(self, cmd):
        out = self._run(OPS["remove"], cmd)
        self.foreign.discard(Surrogate(cmd["sid"]))
        self._masked = None
        return out

    def _op_get(self, cmd):
        # Read off the live store, not a snapshot: the worker is
        # single-threaded, and a write would make the next snapshot new.
        return self._run(OPS["get"], cmd, view=self.store)

    # ------------------------------------------------------------------
    # Shard-only ops
    # ------------------------------------------------------------------

    def _op_ids(self, cmd):
        members = SurrogateSet(
            obj.surrogate for obj in self.store.instances())
        return {"ids": wire.encode_chunks(members),
                "high_water": self.store._allocator.high_water_mark}

    def _op_set_foreign(self, cmd):
        self.foreign = wire.decode_chunks(cmd["sids"])
        return {"foreign": len(self.foreign)}

    def _op_shard_map(self, cmd):
        return {"epoch": self.store._epoch, "profiles": [
            {"classes": list(p.classes), "count": len(p.members),
             "total": sorted(p.total), "clean": p.clean}
            for p in profile_catalog(self.store, self.foreign).values()]}

    def _op_stats(self, cmd):
        out = dict(self.store.stats())
        out["shard.objects"] = len(self.store)
        out["shard.foreign_replicas"] = len(self.foreign)
        return out

    def _op_ping(self, cmd):
        return {"shard": self.shard_id, "epoch": self.store._epoch,
                "objects": len(self.store)}

    def _op_scope(self, cmd):
        """End the open scope: ``action`` is ``commit`` or ``abort``."""
        if self._scope is None:
            raise ShardingError("no scope is open")
        (txn, foreign), self._scope = self._scope, None
        if cmd.get("action") == "commit":
            txn.__exit__(None, None, None)
        else:
            self.foreign = foreign
            abort = ShardingError("scope aborted")
            txn.__exit__(type(abort), abort, None)
        return {}

    def close(self) -> None:
        if self._scope is not None:
            self._op_scope({"action": "abort"})
        self.store.close()


def _table_handler(row: Op):
    return lambda server, cmd: server._run(row, cmd)


#: Dispatch: every table row, then this class's own ``_op_*`` hooks and
#: shard-only ops over it.
ShardServer._HANDLERS = {
    **{name: _table_handler(row) for name, row in OPS.items()},
    **{name[len("_op_"):]: fn for name, fn in vars(ShardServer).items()
       if name.startswith("_op_")},
}


def shard_worker_main(shard_id: int, config: Dict[str, object],
                      conn) -> None:
    """``multiprocessing`` entry point: build the shard store (fresh or
    recovering its directory), signal readiness, then serve the pipe
    until ``shutdown`` (clean close), ``crash`` (test hook: die without
    flushing, exactly like a killed process) or the router is gone.  An
    orphan flushes and closes its store rather than sit on the WAL of a
    directory someone may reopen: it sees EOF on the pipe, or -- under
    ``fork`` other children of the router inherit its pipe ends, so EOF
    alone is not reliable -- a new parent pid on an idle wake-up."""
    router_pid = os.getppid()
    pipe = wire.PipeEnd(conn)
    try:
        server = ShardServer(shard_id=shard_id, **config)
    except Exception as exc:
        pipe.send(wire.encode_result({"error": codec.encode_error(exc)}))
        return
    pipe.send(server.reply({"op": "ping"}))     # the ready handshake
    try:
        while True:
            while not pipe.wait(ORPHAN_CHECK_SECONDS):
                if os.getppid() != router_pid:
                    raise EOFError("the router exited")
            cmd = wire.decode_command(pipe.recv())
            op = cmd.get("op")
            if op == "shutdown":
                server.close()
                pipe.send(wire.encode_result({"ok": {}}))
                return
            if op == "crash":
                os._exit(1)
            pipe.send(server.reply(cmd))
    except (EOFError, OSError, ShardingError):
        server.close()  # the router is gone (maybe mid-reply) or broke the pipe
