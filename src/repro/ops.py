"""The op table: every wire operation of the store, defined once.

A served store answers the same vocabulary at three edges -- a single
store behind :class:`~repro.net.backends.ConcurrentBackend`, a sharded
router behind :class:`~repro.net.backends.ShardedBackend`, and one
shard behind :class:`~repro.sharding.worker.ShardServer`.  Each op is
one :class:`Op` row of :data:`OPS`: its name, the request fields it
requires and accepts, how the transport must treat it (``write`` /
``idempotent`` / ``fenced`` / ``in_txn``), the ``StoreClient`` methods
that issue it, and **one** body ``run(target, cmd, resolve) -> payload``
written against the method surface ``ObjectStore``, ``ConcurrentStore``
and ``ShardedStore`` share.  The edges derive their handlers, their
dispatch sets and their client stubs from this table; what an edge
keeps of its own (ack tokens, the router lock, the ``foreign`` set) is
a hook around a row, never a second copy of it.

The log is an edge too.  A durable store journals each committed
command in this vocabulary -- what a client would have sent, plus the
surrogate every new object was minted under -- and :func:`replay` runs
the row for such a command with those surrogates forced.  WAL
recovery, a replica applying a shipped record and a shard worker
executing a routed ``create`` / ``bulk`` all go through it, so
re-running a logged mutation *is* the live path.

``target`` is the store for a write and a snapshot-like view for a
read (``get`` / ``count`` / ``extent_surrogates`` / ``schema``, and
whatever ``execute_planned`` reads).  ``resolve(sid)`` maps a surrogate
id to the entity the target's mutators accept and raises
:class:`~repro.errors.NoSuchObjectError` for an id the store does not
hold -- at every edge.  The payload carries no ack: the edge that knows
its commit position adds one.

A request is validated against its row *before* the body runs
(:func:`lookup`, :meth:`Op.check`): an unknown op or a missing required
field is a typed :class:`~repro.errors.StorageError`, an operation
failure the connection survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

from repro import codec
from repro.columnar import SurrogateSet
from repro.errors import StorageError
from repro.lang.loader import load_schema
from repro.lang.printer import print_schema
from repro.objects.surrogate import Surrogate
from repro.query.ast import Aggregate, Query, Var
from repro.query.parser import parse_query
from repro.query.planner import execute_planned
from repro.sharding import wire

__all__ = ["EXECUTION_STAT_FIELDS", "IDEMPOTENT", "OPS", "Op",
           "SERVICE_OPS", "lookup", "replay"]

#: ExecutionStats fields shipped back per query, in order.
EXECUTION_STAT_FIELDS: Tuple[str, ...] = (
    "rows_scanned", "rows_returned", "rows_skipped",
    "checks_executed", "rows_pruned", "index_lookups")


@dataclass(frozen=True)
class Op:
    """One wire operation (module docstring)."""

    name: str
    run: Callable
    #: Request fields that must be present / may be present.
    required: Tuple[str, ...] = ()
    optional: Tuple[str, ...] = ()
    #: Mutates (or sweeps) the store: refused by replicas, acked with
    #: an epoch token, counted as a write.
    write: bool = False
    #: Safe to retry on a fresh connection after a transport failure.
    idempotent: bool = False
    #: Holds the store for its whole run: always on the executor, and
    #: ``alter`` is refused while one is in flight.
    fenced: bool = False
    #: May appear as a ``txn`` sub-op.
    in_txn: bool = False
    #: The ``StoreClient`` methods that issue this op.
    stubs: Tuple[str, ...] = ()

    def check(self, cmd: Dict[str, object]) -> None:
        for field in self.required:
            if field not in cmd:
                raise StorageError(
                    f"op {self.name!r} requires field {field!r}")


class _Envelope(Op):
    """The ``txn`` row: a request is also checked for what it carries
    -- every sub-op names an ``in_txn`` row and has its fields -- so a
    client's transaction outside the envelope is refused before
    anything runs.  (The log holds what a local scope committed, which
    may be more: a bulk batch, a validation sweep.)"""

    def check(self, cmd: Dict[str, object]) -> None:
        super().check(cmd)
        for sub in cmd["ops"]:
            row = lookup(sub)
            if not row.in_txn:
                raise StorageError(
                    f"op {row.name!r} is not available inside a txn")


def lookup(cmd: Dict[str, object]) -> Op:
    """The validated row a request (or ``txn`` sub-op) names."""
    name = cmd.get("op") if isinstance(cmd, dict) else None
    row = OPS.get(name) if isinstance(name, str) else None
    if row is None:
        raise StorageError(f"unknown request op {name!r}")
    row.check(cmd)
    return row


# ----------------------------------------------------------------------
# Reads (target: a snapshot-like view)
# ----------------------------------------------------------------------

def _query(view, cmd, resolve):
    query = parse_query(cmd["text"])
    per_row = not any(isinstance(item, Aggregate)
                      for item in query.select)
    if per_row:
        # Tag each row with its surrogate by prepending the query
        # variable to the select list: the extra item cannot skip (no
        # attribute access), so rows, order and rows_skipped are
        # untouched.
        query = Query(query.var, query.source_class, query.where,
                      (Var(query.var),) + tuple(query.select))
    rows, stats = execute_planned(query, view,
                                  **(cmd.get("options") or {}))
    stats_out = {field: getattr(stats, field)
                 for field in EXECUTION_STAT_FIELDS}
    if per_row:
        return {"rows": [[row[0].surrogate.id,
                          [codec.encode_value(v) for v in row[1:]]]
                         for row in rows],
                "stats": stats_out}
    return {"agg": [codec.encode_value(v) for v in rows[0]],
            "stats": stats_out}


def _get(view, cmd, resolve):
    obj = view.get(Surrogate(int(cmd["sid"])))
    return {"classes": sorted(obj.memberships),
            "values": codec.encode_values(obj.values_snapshot())}


def _count(view, cmd, resolve):
    return {"count": view.count(cmd["cls"])}


def _extent(view, cmd, resolve):
    members = view.extent_surrogates(cmd["cls"])
    if not isinstance(members, SurrogateSet):
        members = SurrogateSet(members)
    return {"extent": wire.encode_chunks(members)}


def _schema(view, cmd, resolve):
    return {"schema": print_schema(view.schema)}


# ----------------------------------------------------------------------
# Writes (target: the store)
# ----------------------------------------------------------------------

def _create(store, cmd, resolve):
    values = codec.decode_values(cmd.get("values") or {}, resolve)
    placement = {}
    if cmd.get("broadcast") and hasattr(store, "n_shards"):
        # Replicate the entity to every shard; a single store already
        # holds the one copy there is, so the flag is moot there.
        placement["broadcast"] = True
    obj = store.create(cmd["cls"], check=cmd.get("check"),
                       **placement, **values)
    return {"sid": obj.surrogate.id}


def _set(store, cmd, resolve):
    obj = resolve(int(cmd["sid"]))
    store.set_value(obj, cmd["attr"],
                    codec.decode_value(cmd["value"], resolve),
                    check=cmd.get("check"))
    return {}


def _unset(store, cmd, resolve):
    store.unset_value(resolve(int(cmd["sid"])), cmd["attr"],
                      check=cmd.get("check"))
    return {}


def _classify(store, cmd, resolve):
    store.classify(resolve(int(cmd["sid"])), cmd["cls"],
                   check=cmd.get("check"))
    return {}


def _declassify(store, cmd, resolve):
    store.declassify(resolve(int(cmd["sid"])), cmd["cls"],
                     check=cmd.get("check"))
    return {}


def _remove(store, cmd, resolve):
    store.remove(resolve(int(cmd["sid"])))
    return {}


def _txn(store, cmd, resolve):
    """A pipelined batch of mutations as one atomic transaction: all or
    nothing, one token.  A single store commits it as one WAL record; a
    sharded store runs it under the router's undo journal (atomic, not
    isolated -- SEMANTICS.md section 16), which also refuses ``remove``
    there."""
    created = []
    with store.transaction():
        for sub in cmd["ops"]:
            payload = lookup(sub).run(store, sub, resolve)
            if "sid" in payload:
                created.append(payload["sid"])
    return {"created": created}


def _bulk(store, cmd, resolve):
    # Rows are ``[classes, values]``; a logged or routed row has the
    # sid it was minted under in front (what `replay` forces, and
    # nothing a client can say).  Decoded as the batch stages them, so
    # a row may reference an earlier one.
    rows = ((tuple(row[-2]), codec.decode_values(row[-1], resolve))
            for row in cmd["rows"])
    loaded = store.bulk_load(rows, check=cmd.get("check") or "deferred")
    # A single store reports the batch; a sharded one hands back the
    # routed handles.
    return {"objects": getattr(loaded, "objects", len(cmd["rows"]))}


def _violations(problems) -> Dict[str, object]:
    return {"violations": [[obj.surrogate.id, str(violation)]
                           for obj, violation in problems]}


def _alter(store, cmd, resolve):
    successor = load_schema(cmd["schema"])
    return _violations(store.alter_class(
        successor.get(cmd["cls"]),
        recheck=cmd.get("recheck") or "affected"))


def _index(store, cmd, resolve):
    if cmd.get("action") == "drop":
        store.drop_index(cmd["attr"])
    else:
        store.create_index(cmd["attr"])
    return {}


def _validate(store, cmd, resolve):
    if cmd.get("scope") == "dirty":
        return _violations(store.validate_dirty())
    return _violations(store.validate_all())


def _checkpoint(store, cmd, resolve):
    store.checkpoint()
    return {}


def _read(name, run, required=(), optional=(), stub=None) -> Op:
    return Op(name, run, required, optional + ("token",),
              idempotent=True, stubs=(stub or name,))


def _write(name, run, required=(), optional=(), *, stubs=None,
           **flags) -> Op:
    return Op(name, run, required, optional, write=True,
              stubs=stubs or (name,), **flags)


#: The table.  Order is the documentation order (reads, row writes,
#: batch and design writes).
OPS: Dict[str, Op] = {row.name: row for row in (
    _read("query", _query, ("text",), ("options",)),
    _read("get", _get, ("sid",)),
    _read("count", _count, ("cls",)),
    _read("extent", _extent, ("cls",), stub="extent_ids"),
    _read("schema", _schema),
    _write("create", _create, ("cls",),
           ("values", "check", "broadcast"), in_txn=True),
    _write("set", _set, ("sid", "attr", "value"), ("check",),
           in_txn=True, stubs=("set_value",)),
    _write("unset", _unset, ("sid", "attr"), ("check",), in_txn=True,
           stubs=("unset_value",)),
    _write("classify", _classify, ("sid", "cls"), ("check",),
           in_txn=True),
    _write("declassify", _declassify, ("sid", "cls"), ("check",),
           in_txn=True),
    _write("remove", _remove, ("sid",), in_txn=True),
    _Envelope("txn", _txn, ("ops",), write=True, stubs=("txn",)),
    _write("bulk", _bulk, ("rows",), ("check",), fenced=True),
    _write("alter", _alter, ("schema", "cls"), ("recheck",)),
    _write("index", _index, ("attr",), ("action",),
           stubs=("create_index", "drop_index")),
    _write("validate", _validate, (), ("scope",)),
    _write("checkpoint", _checkpoint, fenced=True),
)}

#: Transport-level ops the service answers itself (liveness, counters,
#: token waits, WAL shipping): no store op behind them, all safe to
#: retry.
SERVICE_OPS = frozenset({
    "ping", "stats", "repl_status", "token_wait", "repl_handshake",
    "repl_fetch", "repl_dump"})

#: Ops a client may retry on a fresh connection.
IDEMPOTENT = SERVICE_OPS | {name for name, row in OPS.items()
                            if row.idempotent}


# ----------------------------------------------------------------------
# The log edge
# ----------------------------------------------------------------------

class _Forced:
    """The store as a logged command sees it: the same surface, except
    that the rows that mint surrogates mint the ones the command
    carries -- pin the allocator to exactly that sid (a sid freed by a
    rolled-back scope may come round again), apply, assert the store
    agreed."""

    def __init__(self, store, sids, resolve) -> None:
        self._store = store
        self._sids = iter(sids)
        self._resolve = resolve
        #: sid -> instance staged by the batch in flight (not yet live).
        self._staged: Dict[int, object] = {}

    def __getattr__(self, name):
        return getattr(self._store, name)

    def resolve(self, sid: int):
        """A row of a batch may reference an earlier row of it."""
        obj = self._staged.get(sid)
        return obj if obj is not None else self._resolve(sid)

    def _pin(self) -> int:
        sid = next(self._sids)
        if Surrogate(sid) in self._store._objects:
            raise StorageError(
                f"command mints @{sid}, which the store already holds")
        self._store._allocator._next = sid
        return sid

    @staticmethod
    def _agree(obj, sid: int) -> None:
        if obj.surrogate.id != sid:
            raise StorageError(
                f"store minted {obj.surrogate} for a command carrying "
                f"@{sid}")

    def create(self, class_name, check=None, **values):
        sid = self._pin()
        obj = self._store.create(class_name, check=check, **values)
        self._agree(obj, sid)
        return obj

    def bulk_load(self, rows, check):
        with self._store.bulk_session(check=check) as session:
            for classes, values in rows:
                sid = self._pin()
                obj = session._stage(classes, values)
                self._agree(obj, sid)
                self._staged[sid] = obj
        return session.report


def _minted(op: str, fields) -> Iterator[int]:
    """The sids a logged command's new objects carry, in minting
    order."""
    if op == "create":
        yield fields["sid"]
    elif op == "bulk":
        for row in fields["rows"]:
            yield row[0]
    elif op == "txn":
        for sub in fields["ops"]:
            yield from _minted(sub["op"], sub)


def _current(fields: Dict[str, object]) -> Dict[str, object]:
    """``fields`` in today's spelling.  Logs written before the journal
    spoke the wire's vocabulary say ``mode`` for ``check`` and write
    bulk rows as ``{"sid", "classes", "values"}``; they are supported
    input."""
    if "mode" in fields:
        fields = dict(fields)
        fields["check"] = fields.pop("mode")
    rows = fields.get("rows")
    if rows and isinstance(rows[0], dict):
        fields = dict(fields, rows=[
            [row["sid"], row["classes"], row["values"]] for row in rows])
    if "ops" in fields:
        fields = dict(fields, ops=[_current(sub) for sub in fields["ops"]])
    return fields


def replay(store, op: str, fields: Dict[str, object],
           resolve: Callable[[int], object]):
    """Run the table row for one logged (or routed) command against
    ``store`` and return its payload.

    ``fields`` is the command as journaled: the request, plus ``sid``
    on a ``create`` and in front of each ``bulk`` row.  The caller --
    recovery, a replica, a shard worker -- wraps what is its own around
    this: which errors it raises, which lock it holds, what it journals
    afterwards."""
    row = OPS.get(op)
    if row is None or not row.write:
        raise StorageError(f"unknown logged op {op!r}")
    fields = _current(fields)
    if op not in ("create", "bulk", "txn"):
        return row.run(store, fields, resolve)
    allocator = store._allocator
    high_water = allocator._next
    forced = _Forced(store, _minted(op, fields), resolve)
    try:
        return row.run(forced, fields, forced.resolve)
    finally:
        # A forced sid may sit below ids already handed out (a batch
        # staged before, and committed after, a create): never let the
        # allocator fall back under them.
        allocator._next = max(allocator._next, high_water)
