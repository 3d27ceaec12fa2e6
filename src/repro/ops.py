"""The op table: every wire operation of the store, defined once.

A served store answers the same vocabulary at three edges -- a single
store behind :class:`~repro.net.backends.ConcurrentBackend`, a sharded
router behind :class:`~repro.net.backends.ShardedBackend`, and one
shard behind :class:`~repro.sharding.worker.ShardServer`.  Each op is
one :class:`Op` row of :data:`OPS`: its name, the request fields it
requires and accepts (and the legal values of the enumerated ones),
how the transport must treat it (``write`` / ``idempotent`` /
``fenced`` / ``in_txn``), how a router reaches its shards with it, the
methods that issue it, and **one** body ``run(target, cmd, resolve) ->
payload`` written against ``ObjectStore``.  The edges derive their
handlers, dispatch sets and method stubs from this table: a router
routes a request by its row's ``reach`` rather than re-implementing the
store methods (:meth:`~repro.sharding.router.ShardedStore.execute`).
What an edge keeps of its own (ack tokens, the router lock, the
``foreign`` set) is a hook around a row, never a second copy of it.

The log is an edge too.  A durable store journals each committed
command in this vocabulary -- what a client would have sent, plus the
surrogate every new object was minted under -- and :func:`replay` runs
the row for such a command with those surrogates forced.  WAL
recovery, a replica applying a shipped record and a shard worker
executing a routed ``create`` / ``bulk`` all go through it, so
re-running a logged mutation *is* the live path.

``target`` is the store for a write and a snapshot-like view for a
read (``get`` / ``count`` / ``extent_surrogates`` / ``schema``, and
whatever a plan reads).  A ``query`` runs as a *wire plan*: the request
text is the plan-cache key (parsed on a miss only), and the generated
loop appends one flat row ``(sid, encoded values...)``, transposed once
into the reply's ``sids`` and ``cols`` (one list per select item); an
aggregate's reply is its values ``agg`` and fold states ``folds``.
``resolve(sid)`` maps a surrogate id to the entity the target's
mutators accept and raises :class:`~repro.errors.NoSuchObjectError` for
an id the store does not hold -- at every edge.  The payload carries no
ack: the edge that knows its commit position adds one.

A request is validated against its row *before* the body runs
(:func:`lookup`, :meth:`Op.check`): an unknown op, a missing required
field, a field of the wrong shape, an enumerated value the row does
not list or malformed ``query`` options is a typed
:class:`~repro.errors.StorageError`, an operation failure the
connection survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Tuple

from repro import codec
from repro.errors import StorageError
from repro.lang.loader import load_schema
from repro.lang.printer import print_schema
from repro.objects.pipeline import AlterClassCommand, CheckMode
from repro.objects.surrogate import Surrogate
from repro.query import planner
from repro.query.compiler import ON_UNSAFE, finish
from repro.sharding import wire

__all__ = ["EXECUTION_STAT_FIELDS", "IDEMPOTENT", "OPS", "Op",
           "SERVICE_OPS", "columns", "encode_request", "lookup", "replay",
           "request", "transact"]

#: ExecutionStats fields shipped back per query, in order.
EXECUTION_STAT_FIELDS: Tuple[str, ...] = (
    "rows_scanned", "rows_returned", "rows_skipped",
    "checks_executed", "rows_pruned", "index_lookups")


#: What a structural field must be (a null stands for an absent
#: optional field).  A logged or routed bulk row has its sid in front.
_SHAPES = {"sid": ("an int", lambda sid: type(sid) is int),
           "values": ("a mapping", lambda values: type(values) is dict),
           "rows": ("a list of [classes, values]", lambda rows: (
               type(rows) is list and all(
                   type(row) is list and len(row) in (2, 3)
                   and type(row[-2]) is list and type(row[-1]) is dict
                   for row in rows))),
           "ops": ("a list", lambda ops: type(ops) is list)}


@dataclass(frozen=True)
class Op:
    """One wire operation (module docstring)."""

    name: str
    run: Callable
    #: Request fields that must be present / may be present.
    required: Tuple[str, ...] = ()
    optional: Tuple[str, ...] = ()
    #: How a router takes the request to its shards: ``sid``, ``admit``,
    #: ``all``, ``meta``, ``query`` or ``txn`` (``ShardedStore.execute``).
    reach: str = "sid"
    #: The legal values of an enumerated field (null: the default).
    choices: Dict[str, tuple] = field(default_factory=dict)
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
    #: The ``StoreClient`` / ``ObjectStore`` methods that issue this op,
    #: each with the fields its name fixes (:func:`request`).
    stubs: Dict[str, Dict[str, object]] = field(default_factory=dict)
    methods: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def check(self, cmd: Dict[str, object]) -> None:
        for name in self.required:
            if name not in cmd:
                raise StorageError(
                    f"op {self.name!r} requires field {name!r}")
        for name, (shape, holds) in _SHAPES.items():
            value = cmd.get(name)
            if (name in cmd and not holds(value)
                    and (value is not None or name in self.required)):
                raise StorageError(f"op {self.name!r} field {name!r} "
                                   f"must be {shape}")
        for name, legal in self.choices.items():
            value = cmd.get(name)
            if value is not None and value not in legal:
                raise StorageError(f"op {self.name!r} field {name!r} "
                                   f"must be one of {legal}")


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


class _Query(Op):
    """The ``query`` row also checks ``options`` -- the planner's
    compile options, each of its default's type, a legal ``on_unsafe``
    -- so a malformed one is refused before anything runs, and before a
    router scatters."""

    def check(self, cmd: Dict[str, object]) -> None:
        super().check(cmd)
        options = cmd.get("options")
        if options is None or options == {}:
            return
        known = dict(planner._COMPILE_OPTION_DEFAULTS)
        if not isinstance(options, dict):
            problem = "not a mapping"
        elif options.keys() - known:
            problem = f"unknown {sorted(map(str, options.keys() - known))}"
        elif mistyped := [f"{name} must be a {type(known[name]).__name__}"
                          for name, value in options.items()
                          if type(value) is not type(known[name])]:
            problem = "; ".join(mistyped)
        elif options.get("on_unsafe", "skip") not in ON_UNSAFE:
            problem = f"on_unsafe must be one of {ON_UNSAFE}"
        else:
            return
        raise StorageError(f"op {self.name!r} field 'options': {problem}")


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

def columns(rows, width: int) -> list:
    """Flat rows ``(sid, v0, ...)`` as the sids and ``width`` columns."""
    return [list(col) for col in zip(*rows)] or [[] for _ in range(width + 1)]


def _query(view, cmd, resolve):
    plan = planner.plan_query(cmd["text"], view, wire=True,
                              **(cmd.get("options") or {}))
    rows, stats = planner.execute_plan(plan, view)
    stats_out = {name: getattr(stats, name)
                 for name in EXECUTION_STAT_FIELDS}
    if plan.compiled.aggregates is None:
        sids, *cols = columns(rows, len(plan.compiled.select))
        return {"sids": sids, "cols": cols, "stats": stats_out}
    functions = [function for function, _ in plan.compiled.aggregates]
    return {"agg": [codec.encode_value(v)
                    for v in finish(functions, rows[0])],
            "folds": rows[0], "stats": stats_out}


def _get(view, cmd, resolve):
    obj = view.get(Surrogate(cmd["sid"]))
    return {"classes": sorted(obj.memberships),
            "values": codec.encode_values(obj.values_snapshot())}


def _count(view, cmd, resolve):
    return {"count": view.count(cmd["cls"])}


def _extent(view, cmd, resolve):
    return {"extent": wire.encode_chunks(
        view.extent_surrogates(cmd["cls"]))}


def _schema(view, cmd, resolve):
    return {"schema": print_schema(view.schema)}


# ----------------------------------------------------------------------
# Writes (target: the store)
# ----------------------------------------------------------------------

def _create(store, cmd, resolve):
    # ``broadcast`` asks a router to replicate the entity to every
    # shard; a single store already holds the one copy there is.
    obj = store.create(cmd["cls"], check=cmd.get("check"),
                       **codec.decode_values(cmd.get("values") or {},
                                             resolve))
    return {"sid": obj.surrogate.id}


def _set(store, cmd, resolve):
    store.set_value(resolve(cmd["sid"]), cmd["attr"],
                    codec.decode_value(cmd["value"], resolve),
                    check=cmd.get("check"))
    return {}


def _unset(store, cmd, resolve):
    store.unset_value(resolve(cmd["sid"]), cmd["attr"],
                      check=cmd.get("check"))
    return {}


def _classify(store, cmd, resolve):
    store.classify(resolve(cmd["sid"]), cmd["cls"],
                   check=cmd.get("check"))
    return {}


def _declassify(store, cmd, resolve):
    store.declassify(resolve(cmd["sid"]), cmd["cls"],
                     check=cmd.get("check"))
    return {}


def _remove(store, cmd, resolve):
    store.remove(resolve(cmd["sid"]))
    return {}


def transact(store, subs, run) -> Dict[str, object]:
    """A pipelined batch of mutations as one atomic transaction: all or
    nothing, one token.  ``run`` is a row body in a single store (one
    WAL record), ``execute`` in a router (a scope per shard touched)."""
    created = []
    with store.transaction():
        for sub in subs:
            payload = run(sub)
            if "sid" in payload:
                created.append(payload["sid"])
    return {"created": created}


def _txn(store, cmd, resolve):
    return transact(store, cmd["ops"],
                    lambda sub: lookup(sub).run(store, sub, resolve))


def _bulk(store, cmd, resolve):
    # Rows are ``[classes, values]``; a logged or routed row has the
    # sid it was minted under in front (what `replay` forces, and
    # nothing a client can say).  Decoded as the batch stages them, so
    # a row may reference an earlier one.
    rows = ((tuple(row[-2]), codec.decode_values(row[-1], resolve))
            for row in cmd["rows"])
    report = store.bulk_load(rows, check=cmd.get("check") or "deferred")
    return {"objects": report.objects}


def _violations(problems) -> Dict[str, object]:
    return {"violations": [[obj.surrogate.id, codec.encode_violation(v)]
                           for obj, v in problems]}


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


def _read(name, run, required=(), optional=(), stub=None, row=Op,
          **flags) -> Op:
    return row(name, run, required, optional + ("token",),
               idempotent=True, stubs={stub or name: {}}, **flags)


def _write(name, run, required=(), optional=(), *, stubs=None, row=Op,
           **flags) -> Op:
    return row(name, run, required, optional, write=True,
               stubs=stubs or {name: {}}, **flags)


_INDEX_METHODS = {"create_index": {"action": "create"},
                  "drop_index": {"action": "drop"}}
#: A row write's ``check``: when conformance is enforced.
_CHECK = {"check": CheckMode.ALL}


def _routed(name, run, required, optional=(), *, method=None):
    method = {method or name: {}}
    return _write(name, run, required, optional, in_txn=True,
                  choices=_CHECK if "check" in optional else {},
                  stubs=method, methods=method)


#: The table.  Order is the documentation order (reads, row writes,
#: batch and design writes).
OPS: Dict[str, Op] = {row.name: row for row in (
    _read("query", _query, ("text",), ("options",), row=_Query,
          reach="query"),
    _read("get", _get, ("sid",)),
    _read("count", _count, ("cls",), reach="all",
          methods={"count": {}}),
    _read("extent", _extent, ("cls",), stub="extent_ids", reach="all",
          methods={"extent_surrogates": {}}),
    _read("schema", _schema, reach="meta"),
    _write("create", _create, ("cls",),
           ("values", "check", "broadcast"), reach="admit",
           choices=_CHECK, in_txn=True),
    _routed("set", _set, ("sid", "attr", "value"), ("check",),
            method="set_value"),
    _routed("unset", _unset, ("sid", "attr"), ("check",),
            method="unset_value"),
    _routed("classify", _classify, ("sid", "cls"), ("check",)),
    _routed("declassify", _declassify, ("sid", "cls"), ("check",)),
    _routed("remove", _remove, ("sid",)),
    _write("txn", _txn, ("ops",), row=_Envelope, reach="txn"),
    _write("bulk", _bulk, ("rows",), ("check",), reach="admit",
           fenced=True,
           choices={"check": CheckMode.BULK}),
    _write("alter", _alter, ("schema", "cls"), ("recheck",),
           reach="meta", choices={"recheck": AlterClassCommand.RECHECK}),
    _write("index", _index, ("attr",), ("action",), reach="all",
           choices={"action": ("create", "drop")},
           stubs=_INDEX_METHODS, methods=_INDEX_METHODS),
    _write("validate", _validate, (), ("scope",), reach="all",
           choices={"scope": ("all", "dirty")},
           methods={"validate_all": {}, "validate_dirty": {"scope": "dirty"}}),
    _write("checkpoint", _checkpoint, reach="all", fenced=True,
           methods={"checkpoint": {}}),
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
# Method calls as requests (the client's and the router's stubs)
# ----------------------------------------------------------------------

def _wire(value):
    # Plain values and wire forms (``codec.ref(sid)``, a read) pass as is.
    if type(value) in (int, str) or codec.is_encoded(value):
        return value
    return codec.encode_value(value)


def _wire_values(values) -> Dict[str, object]:
    return {name: value if type(value) in (int, str) else _wire(value)
            for name, value in (values or {}).items()}


def encode_request(cmd: Dict[str, object]) -> Dict[str, object]:
    """``cmd``, a new request, with its live values put in wire form."""
    if "value" in cmd:
        cmd["value"] = _wire(cmd["value"])
    if "values" in cmd:
        cmd["values"] = _wire_values(cmd["values"])
    if "rows" in cmd:
        cmd["rows"] = [[[classes] if isinstance(classes, str)
                        else list(classes), _wire_values(values)]
                       for classes, values in cmd["rows"]]
    if "ops" in cmd:
        cmd["ops"] = [encode_request(dict(sub)) if isinstance(sub, dict)
                      else sub for sub in cmd["ops"]]
    return cmd


def request(row: Op, fixed: Dict[str, object], args, kwargs
            ) -> Dict[str, object]:
    """The request a method call makes of ``row``: positional arguments
    fill its fields in order (``required + optional`` is the argument
    order ``ObjectStore`` and ``StoreClient`` share), keywords by name,
    ``fixed`` the fields the method's name implies."""
    cmd = dict(fixed, op=row.name, **kwargs)
    cmd.update(zip(row.required + row.optional, args))
    return encode_request(cmd)


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
