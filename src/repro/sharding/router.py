"""The sharded store: a router over N shard workers.

:class:`ShardedStore` presents (most of) the :class:`ObjectStore`
surface while partitioning the population across N shards, each a full
store -- pipeline, WAL, columnar extents -- behind the JSON command
protocol of :mod:`repro.sharding.wire`.  Shards run either as
``multiprocessing`` worker processes (:class:`ProcessBackend`, the real
deployment: writes scale across cores because each shard's conformance
checking, extent maintenance and journaling happen in its own process)
or in-process (:class:`LocalBackend`, same code and same JSON
round-trip, used by the equivalence property suite).

**Requests.**  The router routes op-table requests (:data:`repro.ops.OPS`)
by reach rather than re-implementing the store methods.  One entry,
:meth:`ShardedStore.execute`, takes a request with its values encoded
as a client sends them: ``sid`` goes to the owner shard (then the other
replicas of a broadcast entity), ``admit`` is placed and minted here,
``all`` is broadcast and merged, ``meta`` is checked on the meta store
and then broadcast, ``query`` is a pruned scatter, ``txn`` one router
transaction.  The ``ObjectStore``-like methods are request builders
derived from the rows.

**Routing.**  The router owns surrogate allocation, so a sharded store
mints exactly the ids the single store would.  New objects are placed
by *signature profile* (their direct-class signature): each profile
hashes to a home shard and spreads over a growing power-of-two span of
neighbors as its population grows -- small profiles stay clustered (so
profile-refuting queries prune whole shards), large profiles spread
(so bulk writes scale).  A create whose values reference already-routed
entities is pinned to their shard (references never cross shards);
entities that everything references -- lookup tables, the hospital the
patients point at -- are created with ``broadcast=True`` and replicated
to every shard, with exactly one shard (``sid % N``) *owning* each
replica for read purposes and the others masking it out of their
extents (``worker.MaskedSnapshot``), so scatter-gathered extents and
query results remain exact unions.

**Scatter-gather reads.**  A query text is parsed once per schema
version (a repeat is a cache hit), pruned against per-shard
signature-profile maps (:mod:`repro.sharding.pruning` -- the
non-membership deduction rule of :mod:`repro.query.deduction` applied
per profile), dispatched to the surviving shards in parallel, and
merged: per-row results are re-sorted by surrogate (shard extents are
disjoint), aggregate folds are combined componentwise (``avg`` is
rewritten to ``total``/``count`` before dispatch so the merged mean is
exact).  Schema commands -- ``alter_class`` / ``add_excuse`` /
``retract_excuse`` -- are validated once on an empty *meta* store (the
check is population-independent), then replicated to every shard over
the same ordered pipes as data commands, so each shard applies the epoch
between exactly the same mutations the router did.

**Transport.**  One ordered duplex pipe per process shard, at most one
command in flight on it: every send is matched by its receive before the
next, and multi-shard commands go through one scatter/gather that drains
exactly what it sent -- so when a shard dies (:class:`ShardCrashedError`)
the survivors still answer their own questions.

**Transactions.**  A router scope is one ``store.transaction()`` on
each shard it touches (:mod:`repro.sharding.worker`): the first command
to a shard inside the scope opens it there, and one scattered ``scope``
command commits or aborts every joined shard.  Commit is not two-phase:
a shard that fails its commit leaves the others' commits standing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple
from zlib import crc32

from repro import codec
from repro.columnar import SurrogateSet
from repro.errors import (
    NoSuchObjectError, QueryTypeError, ReproError, ShardCrashedError,
    ShardingError, StorageError, UnknownClassError,
)
from repro.lang.printer import print_schema
from repro.obs import ShardStats
from repro.objects.pipeline import AlterClassCommand, CheckMode
from repro.objects.store import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.ops import (
    EXECUTION_STAT_FIELDS, OPS, Op, encode_request, lookup, request,
    transact,
)
from repro.query.ast import Aggregate, Query
from repro.query.interpreter import ExecutionStats
from repro.query.indexes import PlanCache
from repro.query.parser import parse_query
from repro.sharding import wire
from repro.sharding.pruning import extract_facts, profile_refuted
from repro.sharding.worker import ShardServer, shard_worker_main
from repro.storage.shards import (
    read_shard_manifest, shard_directory, write_shard_manifest,
)
from repro.typesys.values import INAPPLICABLE

__all__ = ["LocalBackend", "ProcessBackend", "RemoteHandle",
           "ShardedStore"]

#: A profile spreads from 1 shard to a power-of-two span of shards as
#: its population crosses multiples of this threshold -- small (rare)
#: profiles stay on one shard so profile pruning skips whole workers;
#: big profiles spread so bulk writes use every core.
SPAN_THRESHOLD = 512


class RemoteHandle:
    """Router-side proxy for one sharded object.

    Implements the read side of the entity protocol (``memberships`` /
    ``get_value``, fetched from the owning shard on demand), carries the
    global ``surrogate``, and encodes on the wire exactly like a live
    instance (``codec.ref(sid)``), so handles can be passed as
    attribute values to any mutation.
    """

    __slots__ = ("_router", "surrogate")

    def __init__(self, router: "ShardedStore", surrogate: Surrogate) -> None:
        self._router = router
        self.surrogate = surrogate

    @property
    def shard_id(self) -> int:
        return self._router._owner_of(self.surrogate.id)

    def _state(self) -> Dict[str, object]:
        return self._router._call(
            self.shard_id, {"op": "get", "sid": self.surrogate.id})

    @property
    def memberships(self) -> frozenset:
        return frozenset(self._state()["classes"])

    def get_value(self, name: str):
        values = self._state()["values"]
        if name not in values:
            return INAPPLICABLE
        return codec.decode_value(values[name], self._router.handle)

    def value_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._state()["values"]))

    def __getitem__(self, name: str):
        return self.get_value(name)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RemoteHandle)
                and other.surrogate == self.surrogate)

    def __hash__(self) -> int:
        return hash(self.surrogate)

    def __repr__(self) -> str:
        return f"<RemoteHandle {self.surrogate} @shard{self.shard_id}>"


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

class LocalBackend:
    """A shard in this process: the same :class:`ShardServer` the worker
    runs, driven through the same JSON texts (send queues the result, so
    the router's send-all-then-receive-all pattern works unchanged)."""

    def __init__(self, shard_id: int, config: Dict[str, object]) -> None:
        self.shard_id = shard_id
        self.server = ShardServer(shard_id=shard_id, **config)
        self._pending: List[str] = []

    def send(self, text: str) -> None:
        self._pending.append(self.server.handle_json(text))

    def recv(self, timeout: Optional[float] = None) -> str:
        return self._pending.pop(0)

    def stop(self) -> None:
        self.server.close()


class ProcessBackend:
    """A shard in its own worker process behind one duplex pipe (a
    :class:`wire.PipeEnd`: a hop is one write, a poll and one read at
    each end); a dead worker is EOF or a broken pipe, so
    ShardCrashedError at once.  ``send`` refuses while a reply is owed
    (the ready handshake is the first): with one command in flight, no
    send blocks on a worker blocked sending, no read meets a second frame."""

    def __init__(self, shard_id: int, config: Dict[str, object],
                 ctx) -> None:
        self.shard_id = shard_id
        router_end, worker_end = ctx.Pipe()
        self._pipe = wire.PipeEnd(router_end)
        self._awaiting = True
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(shard_id, config, worker_end), daemon=True)
        self.process.start()
        worker_end.close()      # the worker holds the only copy: EOF works

    def send(self, text: str) -> None:
        if self._awaiting:
            raise ShardingError(
                f"shard {self.shard_id} still owes a reply; one command "
                "is in flight per shard")
        try:
            self._pipe.send(text)
        except OSError:
            raise ShardCrashedError(
                self.shard_id, "worker process died") from None
        self._awaiting = True

    def recv(self, timeout: float = 120.0) -> str:
        try:
            if not self._pipe.wait(timeout):    # a late reply stays owed
                raise ShardCrashedError(
                    self.shard_id, f"no result within {timeout:g}s")
            self._awaiting = False  # a reply, or EOF: a corpse owes nothing
            return self._pipe.recv()
        except (EOFError, OSError):
            raise ShardCrashedError(
                self.shard_id, "worker process died") from None

    def stop(self) -> None:
        """Ask for a clean shutdown (the worker flushes and closes its
        store before it answers); kill whatever cannot take it."""
        try:
            self.send(wire.encode_command({"op": "shutdown"}))
            self.recv(timeout=30)
        except ShardingError:
            self.process.kill()
        if self._pipe.wait(5):      # EOF: the worker has exited
            self.process.join()
        self._pipe.conn.close()


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------

class ShardedStore:
    """N shard stores behind one :class:`ObjectStore`-like face (module
    docstring).  Construct fresh with a schema; reopen a durable one
    with :meth:`open`."""

    def __init__(self, schema=None, n_shards: int = 2, *,
                 processes: bool = True,
                 directory: Optional[str] = None,
                 durability: Optional[str] = None,
                 sync: str = "group",
                 check_mode: str = CheckMode.EAGER,
                 start_method: Optional[str] = None,
                 _reopen: bool = False) -> None:
        if n_shards < 1:
            raise ShardingError("a sharded store needs at least 1 shard")
        self.n_shards = n_shards
        self.directory = directory
        self.stats_counters = ShardStats()
        self._closed = False
        # Routing state: the router is the single allocator.
        self._next_sid = 1
        self._owners: Dict[int, int] = {}       # routed sid -> shard
        self._broadcast: Set[int] = set()       # replicated sids
        self._profile_counts: Dict[str, int] = {}
        self._maps: List[List[tuple]] = [[] for _ in range(n_shards)]
        self._stale: Set[int] = set(range(n_shards))   # written since fetched
        self._queries = PlanCache()     # see _resolve_query
        self._handles: Dict[int, RemoteHandle] = {}
        #: Last observed commit position per shard (each result
        #: envelope carries the shard's WAL seq / epoch); composed into
        #: the vector epoch token by :meth:`position_token`.
        self._positions: Dict[int, int] = {i: 0 for i in range(n_shards)}
        #: The open transaction's joined shards (None = no scope), and
        #: the owner (None: broadcast) of each sid it removed.
        self._joined: Optional[Set[int]] = None
        self._removed: Dict[int, Optional[int]] = {}

        configs = self._shard_configs(
            schema, directory, durability, sync, check_mode, _reopen)
        self._start_backends(configs, processes, start_method)
        # The meta store: an empty population under the same schema,
        # used to validate + mint schema evolution steps exactly once
        # before replication (the alter validity check is
        # population-independent, so meta's verdict is every shard's).
        if _reopen:
            text = self._call(0, {"op": "schema"})["schema"]
            from repro.lang.loader import load_schema
            schema = load_schema(text)
        self._meta = ObjectStore(schema, check_mode=CheckMode.EAGER)
        if _reopen:
            self._rebuild_routing()

    # -- construction ---------------------------------------------------

    def _shard_configs(self, schema, directory, durability, sync,
                       check_mode, reopen):
        configs = []
        schema_text = None if schema is None else print_schema(schema)
        if schema is None and not reopen:
            raise ShardingError("a fresh sharded store needs a schema")
        for shard_id in range(self.n_shards):
            config: Dict[str, object] = {
                "n_shards": self.n_shards, "check_mode": check_mode}
            if not reopen:
                config["schema_text"] = schema_text
            if directory is not None:
                config["directory"] = shard_directory(directory, shard_id)
                config["durability"] = durability
                config["sync"] = sync
            configs.append(config)
        if directory is not None and not reopen:
            write_shard_manifest(directory, self.n_shards,
                                 durability or "wal", sync)
        return configs

    def _start_backends(self, configs, processes, start_method):
        if not processes:
            self._backends = [LocalBackend(i, config)
                              for i, config in enumerate(configs)]
            return
        import multiprocessing
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = multiprocessing.get_context(start_method)
        self._backends = [ProcessBackend(i, config, ctx)
                          for i, config in enumerate(configs)]
        for shard_id in range(self.n_shards):   # ready/recovered handshakes
            self._recv_ok(shard_id)

    @classmethod
    def open(cls, directory: str, *, processes: bool = True,
             check_mode: str = CheckMode.EAGER,
             start_method: Optional[str] = None) -> "ShardedStore":
        """Reopen a sharded directory: each worker recovers its own
        shard (checkpoint + WAL tail), then the router reconstructs
        routing state -- allocator high water, replica ownership,
        profile placement counts -- from what the shards report."""
        manifest = read_shard_manifest(directory)
        return cls(None, int(manifest["shards"]), processes=processes,
                   directory=directory,
                   durability=manifest.get("durability"),
                   sync=manifest.get("sync", "group"),
                   check_mode=check_mode, start_method=start_method,
                   _reopen=True)

    def _rebuild_routing(self) -> None:
        high = 0
        seen: Dict[int, int] = {}
        duplicated: Set[int] = set()
        for shard_id, payload in self._broadcast_cmd({"op": "ids"}):
            high = max(high, int(payload["high_water"]))
            for sid in wire.decode_chunks(payload["ids"]).ids():
                if sid in seen:
                    duplicated.add(sid)
                else:
                    seen[sid] = shard_id
        # high_water_mark is the *next* id a shard would mint, so the
        # router resumes at the max across shards (no gap).
        self._next_sid = max(high, 1)
        # A sid present on several shards is a broadcast replica; its
        # reader-side owner is deterministic (sid % N), matching what
        # create(broadcast=True) assigned originally.
        self._broadcast = duplicated
        for sid, shard_id in seen.items():
            if sid not in duplicated:
                self._owners[sid] = shard_id
        masks = [SurrogateSet() for _ in range(self.n_shards)]
        for sid in duplicated:
            owner = sid % self.n_shards
            for shard_id in range(self.n_shards):
                if shard_id != owner:
                    masks[shard_id].add(Surrogate(sid))
        self._scatter([
            (shard_id, {"op": "set_foreign",
                        "sids": wire.encode_chunks(mask)})
            for shard_id, mask in enumerate(masks)])
        # Profile counts seed future placement from the recovered maps.
        for shard_map in self._refresh_maps(range(self.n_shards)):
            for classes, _total, _clean, count in shard_map:
                key = self._profile_key(classes)
                self._profile_counts[key] = (
                    self._profile_counts.get(key, 0) + count)

    # -- plumbing -------------------------------------------------------

    @property
    def schema(self):
        return self._meta.schema

    def handle(self, sid: int) -> RemoteHandle:
        """The canonical proxy for a (global) surrogate id.  An id from
        outside (the wire) gets here only once the routing holds it."""
        handle = self._handles.get(sid)
        if handle is None:
            handle = self._handles[sid] = RemoteHandle(self, Surrogate(sid))
        return handle

    @staticmethod
    def _sid_of(obj) -> int:
        """Mutators take a handle, a surrogate or a bare id."""
        if hasattr(obj, "surrogate"):
            return obj.surrogate.id
        return obj.id if hasattr(obj, "id") else int(obj)

    def _owner_of(self, sid: int) -> int:
        if sid in self._broadcast:
            return sid % self.n_shards
        try:
            return self._owners[sid]
        except KeyError:
            raise NoSuchObjectError(
                f"surrogate {sid} is not routed by this store") from None

    def _send(self, shard_id: int, cmd: Dict[str, object]) -> None:
        if self._closed:
            raise ShardingError("store is closed")
        joined = self._joined
        if joined is not None and shard_id not in joined:
            joined.add(shard_id)
            cmd = dict(cmd, begin=True)
        self.stats_counters.commands_sent += 1
        self._backends[shard_id].send(wire.encode_command(cmd))

    def _recv_ok(self, shard_id: int):
        try:
            result = wire.decode_result(self._backends[shard_id].recv())
            if "seq" in result:     # the single choke point every result
                self._positions[shard_id] = int(result["seq"])
            if "error" in result:
                exc = codec.decode_error(result["error"], self.handle)
                exc.shard_id = shard_id     # routed: names its shard
                raise exc
            return result["ok"]
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ShardingError(    # typed: a gather drains the others
                f"shard {shard_id} sent an undecodable reply ({exc!r})"
            ) from None

    def _call(self, shard_id: int, cmd: Dict[str, object]):
        self._send(shard_id, cmd)
        return self._recv_ok(shard_id)

    def _scatter(self, commands: Sequence[Tuple[int, Dict[str, object]]]):
        """Send each ``(shard_id, cmd)`` first, then gather: the shards
        execute concurrently.  Sending goes on past a shard that cannot
        be reached (an abort must reach every survivor), and a reply is
        collected from exactly the shards sent to, whatever fails -- no
        shard is left with a command in flight, so no survivor answers
        the previous question later.  The first failure is raised after
        the gather."""
        sent, payloads, failure = [], [], None
        for shard_id, cmd in commands:
            try:
                self._send(shard_id, cmd)
            except ShardingError as exc:
                failure = failure or exc
                continue
            sent.append(shard_id)
        for shard_id in sent:
            try:
                payloads.append((shard_id, self._recv_ok(shard_id)))
            except ReproError as exc:   # a worker's error, or a crash
                failure = failure or exc
        if failure is not None:
            raise failure
        return payloads

    def _broadcast_cmd(self, cmd: Dict[str, object],
                       shard_ids: Optional[Sequence[int]] = None):
        """One command to every shard (or the given ones)."""
        self.stats_counters.broadcasts += 1
        return self._scatter([
            (shard_id, cmd) for shard_id in (
                range(self.n_shards) if shard_ids is None else shard_ids)])

    def _write(self, shard_id: int, cmd: Dict[str, object]):
        """A write to one shard: its map is stale from here on."""
        self._stale.add(shard_id)
        return self._call(shard_id, cmd)

    def _replicate(self, sid: int, cmd: Dict[str, object],
                   replica_cmd: Dict[str, object]) -> None:
        """Two-phase write of a broadcast entity: its owner replica
        takes the checked ``cmd`` (a rejection rolls back there and
        reaches no replica, keeping every shard identical), then every
        other shard takes ``replica_cmd``."""
        owner = sid % self.n_shards
        self._write(owner, cmd)
        others = [i for i in range(self.n_shards) if i != owner]
        self._stale.update(others)
        if others:
            self._broadcast_cmd(replica_cmd, others)

    # -- vector epoch position ------------------------------------------

    def position_token(self) -> Dict[str, int]:
        """The router-composed vector epoch token ``{shard_id: seq}``
        (:mod:`repro.net.tokens`): each component is that shard's last
        observed commit position -- its WAL seq when durable, so the
        token survives a clean shutdown + reopen.  Exact as of the last
        command each shard answered; the router is the only writer, so
        no shard can be ahead of what it has already acknowledged."""
        return {str(shard_id): seq
                for shard_id, seq in self._positions.items() if seq > 0}

    def refresh_positions(self) -> Dict[str, int]:
        """Force a position sweep (one ping broadcast): used after
        reopen and by backends that must publish an exact token before
        any command has flowed."""
        self._broadcast_cmd({"op": "ping"})
        self.stats_counters.position_refreshes += 1
        return self.position_token()

    # -- placement ------------------------------------------------------

    @staticmethod
    def _profile_key(classes: Sequence[str]) -> str:
        return "|".join(sorted(classes))

    def _span_of(self, count: int) -> int:
        span = 1
        while count >= SPAN_THRESHOLD * span and span < self.n_shards:
            span *= 2
        return min(span, self.n_shards)

    def _place(self, key: str) -> int:
        count = self._profile_counts.get(key, 0)
        self._profile_counts[key] = count + 1
        start = crc32(key.encode("utf-8")) % self.n_shards
        return (start + count % self._span_of(count)) % self.n_shards

    def _pin_of(self, values: Dict[str, object]) -> Optional[int]:
        """The shard the entities ``values`` (encoded) reference pin a
        create to (replicas resolve everywhere: they never pin)."""
        owners: Set[int] = set()
        codec.decode_values(values, lambda sid: sid in self._broadcast
                            or owners.add(self._owner_of(sid)))
        if len(owners) > 1:
            raise ShardingError(
                f"create references entities on shards {sorted(owners)}; "
                "co-locate them or make the shared entity a broadcast "
                "entity")
        return owners.pop() if owners else None

    def _guard_anchor(self, sid: Optional[int], classes, values) -> None:
        """Refuse a write that puts a broadcast replica in a virtual
        class (a membership on one shard only).  ``classes`` / encoded
        ``values`` are what the request writes; None is asked of the
        owner shard, once, if a virtual origin needs it."""
        broadcast = self._broadcast
        if values is not None and broadcast.isdisjoint(
                map(codec.ref_sid, values.values())):
            return
        schema, state = self.schema, {}

        def asked(key: str):
            if not state:
                state.update(self.handle(sid)._state())
            return state[key]

        def joins(members, owner: str) -> bool:
            return any(owner in schema.ancestors(name) for name in members)

        for cdef in schema.virtual_classes():
            origin = cdef.origin
            if origin is None or (classes is not None
                                  and not joins(classes, origin.owner_class)):
                continue
            written = asked("values") if values is None else values
            target = codec.ref_sid(written.get(origin.attribute))
            if target not in broadcast or (
                    classes is None
                    and not joins(asked("classes"), origin.owner_class)):
                continue
            raise ShardingError(
                f"this write would anchor broadcast entity @{target} into "
                f"virtual class {cdef.name!r} via {origin.attribute!r} on "
                "one shard only; route that entity instead of "
                "broadcasting it")

    def _admit(self, classes: Sequence[str], values: Dict[str, object],
               place: bool = True) -> Optional[int]:
        """Check a new object (known classes, no broadcast anchor) and
        find its shard: pinned by its references, else (``place``)
        placed by its profile."""
        for class_name in classes:
            if not self.schema.has_class(class_name):
                raise UnknownClassError(class_name)
        self._guard_anchor(None, classes, values)
        pin = self._pin_of(values)
        if pin is None and place:
            return self._place(self._profile_key(classes))
        return pin

    # -- requests -------------------------------------------------------

    def execute(self, cmd: Dict[str, object]) -> Dict[str, object]:
        """One op-table request, values encoded as a client sends them:
        checked against its row, routed by the row's ``reach``."""
        row = lookup(cmd)
        return getattr(self, "_reach_" + row.reach)(row, cmd)

    @staticmethod
    def _shard_cmd(row: Op, cmd: Dict[str, object]) -> Dict[str, object]:
        """The row's fields only: never a client's ``foreign``/``begin``."""
        return {name: cmd[name] for name in ("op",) + row.required
                + row.optional if name in cmd}

    def _reach_sid(self, row: Op, cmd: Dict[str, object]):
        sid = cmd["sid"]
        owner = self._owner_of(sid)
        cmd = self._shard_cmd(row, cmd)
        if not row.write:
            return self._call(owner, cmd)
        if codec.ref_sid(cmd.get("value")) in self._broadcast:
            self._guard_anchor(sid, None, {cmd["attr"]: cmd["value"]})
        elif row.name == "classify" and self.schema.has_class(cmd["cls"]):
            self._guard_anchor(sid, (cmd["cls"],), None)
        if sid in self._broadcast:
            self._replicate(sid, cmd, dict(cmd, check=CheckMode.NONE))
        else:
            self._write(owner, cmd)
        if row.name == "remove":
            if self._joined is not None:
                self._removed[sid] = self._owners.get(sid)
            self._forget(sid)
        return {}

    def _reach_admit(self, row: Op, cmd: Dict[str, object]):
        if row.name == "bulk":
            return self._load(cmd)
        class_name, values = cmd["cls"], cmd.get("values") or {}
        broadcast = cmd.get("broadcast")
        shard = self._admit((class_name,), values, place=not broadcast)
        if broadcast and shard is not None:
            raise ShardingError(
                "a broadcast create cannot reference routed "
                "entities (replicas could not resolve them)")
        # The single store burns a surrogate on a rejected create (the
        # allocator never rolls back); mirror that so the id sequences
        # stay aligned.
        sid = self._next_sid
        self._next_sid += 1
        cmd = {"op": "create", "sid": sid, "cls": class_name,
               "values": values, "check": cmd.get("check")}
        if broadcast:
            self._replicate(sid, cmd, dict(cmd, foreign=True))
            self._broadcast.add(sid)
        else:
            self._write(shard, cmd)
            self._owners[sid] = shard
        self.stats_counters.objects_routed += 1
        return {"sid": sid}

    def _load(self, cmd: Dict[str, object]):
        """One staged batch *per shard*, all shards at once: the write
        path that scales.  Rows may reference broadcast entities and
        committed objects, not each other; the batch is all-or-nothing
        (outside a transaction it runs in its own)."""
        if self._joined is None:
            with self.transaction():
                return self._load(cmd)
        per_shard: Dict[int, List[list]] = {}
        assigned: List[Tuple[int, int]] = []
        for row in cmd["rows"]:
            classes, values = row[-2], row[-1]
            shard = self._admit(classes, values)
            sid = self._next_sid
            self._next_sid += 1
            per_shard.setdefault(shard, []).append([sid, classes, values])
            assigned.append((sid, shard))
        self._stale.update(per_shard)
        self._scatter([
            (shard, {"op": "bulk", "rows": shard_rows,
                     "check": cmd.get("check")})
            for shard, shard_rows in per_shard.items()])
        self._owners.update(assigned)
        self.stats_counters.objects_routed += len(assigned)
        self.stats_counters.bulk_rows_routed += len(assigned)
        return {"objects": len(assigned)}

    def _reach_all(self, row: Op, cmd: Dict[str, object]):
        if row.name == "index":
            self._no_open_txn("an index change")
        elif row.name == "checkpoint" and self.directory is None:
            raise StorageError("store is not durable; nothing to checkpoint")
        return self._gather(self._shard_cmd(row, cmd))

    def _gather(self, cmd: Dict[str, object]) -> Dict[str, object]:
        """``cmd`` on every shard, the payloads merged: extents union
        (disjoint, so exact), counts add, violation lists concatenate."""
        merged: Dict[str, object] = {}
        for _shard_id, payload in self._broadcast_cmd(cmd):
            for key, value in payload.items():
                if key == "extent":
                    value = wire.decode_chunks(value)
                if key in merged:
                    value = (merged[key] | value if key == "extent"
                             else merged[key] + value)
                merged[key] = value
        if "extent" in merged:
            merged["extent"] = wire.encode_chunks(merged["extent"])
        return merged

    def _reach_meta(self, row: Op, cmd: Dict[str, object]):
        if not row.write:
            return row.run(self._meta, cmd, None)
        return self._evolve(
            cmd["cls"], cmd.get("recheck") or "affected",
            lambda meta: row.run(meta, dict(cmd, recheck="none"), None))

    def _reach_query(self, row: Op, cmd: Dict[str, object]):
        return self.query_wire(cmd["text"], cmd.get("options"))

    def _reach_txn(self, row: Op, cmd: Dict[str, object]):
        return transact(self, cmd["ops"], self.execute)

    def _reply(self, payload: Dict[str, object]):
        """What ``ObjectStore``'s method returns for a payload."""
        if "count" in payload:
            return payload["count"]
        if "extent" in payload:
            return wire.decode_chunks(payload["extent"])
        if "violations" in payload:
            return [(self.handle(sid), codec.decode_violation(v, self.handle))
                    for sid, v in payload["violations"]]
        return None

    # -- request builders (the rest are derived: ``_request``) ----------

    def create(self, class_name: str, check: Optional[str] = None,
               broadcast: bool = False, **values) -> RemoteHandle:
        return self.handle(self.execute(encode_request({
            "op": "create", "cls": class_name, "values": values,
            "check": check, "broadcast": broadcast}))["sid"])

    def bulk_load(self, rows: Iterable[Tuple[object, Dict[str, object]]],
                  check: str = CheckMode.DEFERRED) -> List[RemoteHandle]:
        """``(classes, values)`` rows as one batch (``_load``)."""
        first = self._next_sid
        self.execute(encode_request({"op": "bulk", "rows": rows,
                                     "check": check}))
        return [self.handle(sid) for sid in range(first, self._next_sid)]

    def get(self, surrogate) -> RemoteHandle:
        """A routed object's handle (else ``NoSuchObjectError``)."""
        sid = self._sid_of(surrogate)
        self._owner_of(sid)
        return self.handle(sid)

    def extent(self, class_name: str) -> Tuple[RemoteHandle, ...]:
        return tuple(self.handle(sid)
                     for sid in self.extent_surrogates(class_name).ids())

    def __len__(self) -> int:
        return len(self._owners) + len(self._broadcast)

    # -- schema evolution ----------------------------------------------

    def _no_open_txn(self, what: str) -> None:
        """Refuse ``what`` inside a transaction.  Schema changes are
        checked *before* the meta store mutates, so a rejection leaves
        meta and shards still in lockstep."""
        if self._joined is not None:
            raise ShardingError(
                f"{what} is not available inside a sharded transaction")

    def _evolve(self, class_name: str, recheck: str,
                change) -> Dict[str, object]:
        """``change`` on the meta store, then the class's definition to
        every shard in command order (module docstring)."""
        self._no_open_txn("a schema change")
        if recheck not in AlterClassCommand.RECHECK:
            raise ValueError(f"unknown recheck mode {recheck!r}")
        change(self._meta)
        self._stale.update(range(self.n_shards))
        payload = self._gather({
            "op": "alter", "schema": print_schema(self._meta.schema),
            "cls": class_name, "recheck": recheck})
        self.stats_counters.schema_replications += 1
        return payload

    def alter_class(self, new_def, *, recheck: str = "affected"):
        return self._reply(self._evolve(
            new_def.name, recheck,
            lambda meta: meta.alter_class(new_def, recheck="none")))

    def add_excuse(self, class_name: str, attribute: str, range_,
                   targets, *, recheck: str = "affected"):
        return self._reply(self._evolve(
            class_name, recheck, lambda meta: meta.add_excuse(
                class_name, attribute, range_, targets, recheck="none")))

    def retract_excuse(self, class_name: str, attribute: str, *,
                       targets=None, drop_attribute: bool = False,
                       recheck: str = "affected"):
        return self._reply(self._evolve(
            class_name, recheck, lambda meta: meta.retract_excuse(
                class_name, attribute, targets=targets,
                drop_attribute=drop_attribute, recheck="none")))


    # -- transactions ---------------------------------------------------

    @contextmanager
    def transaction(self):
        """An atomic multi-command scope: a store transaction on each
        shard it touches (module docstring), so each shard rolls back
        exactly.  An abort reaches every joined shard that can be
        reached, and the router restores its own state -- allocator,
        placement counters, the routing of each sid the scope created
        or removed -- so it mints what the single store would after its
        rollback.  Nesting, schema and index changes are refused."""
        self._no_open_txn("a nested transaction")
        joined = self._joined = set()
        self._removed = {}
        saved = self._next_sid, dict(self._profile_counts)
        try:
            yield self
        except BaseException:
            self._joined = None
            try:
                self._end_scope(joined, "abort")
            finally:
                for sid, owner in self._removed.items():
                    if owner is None:
                        self._broadcast.add(sid)
                    else:
                        self._owners[sid] = owner
                for sid in range(saved[0], self._next_sid):
                    self._forget(sid)
                self._next_sid, self._profile_counts = saved
                self._stale.update(range(self.n_shards))
                self.stats_counters.txn_rollbacks += 1
            raise
        self._joined = None
        self._end_scope(joined, "commit")

    def _end_scope(self, joined: Set[int], action: str) -> None:
        self._scatter([(shard_id, {"op": "scope", "action": action})
                       for shard_id in sorted(joined)])

    def _forget(self, sid: int) -> None:
        self._owners.pop(sid, None)
        self._broadcast.discard(sid)
        self._handles.pop(sid, None)

    # -- scatter-gather queries ----------------------------------------

    def _refresh_maps(self, shard_ids) -> List[List[tuple]]:
        """Each shard's profiles as ``(classes, total, clean, count)``,
        fetched for the stale ones, the sets frozen once per fetch."""
        for shard_id, payload in self._scatter([
                (i, {"op": "shard_map"}) for i in shard_ids
                if i in self._stale]):
            self._maps[shard_id] = [
                (frozenset(p["classes"]), frozenset(p["total"]),
                 bool(p["clean"]), p["count"]) for p in payload["profiles"]]
            self._stale.discard(shard_id)
            self.stats_counters.map_refreshes += 1
        return [self._maps[i] for i in shard_ids]

    def _select_shards(self, facts) -> List[int]:
        """The pruning pre-pass: decide each shard on the map held, then
        re-fetch the stale maps that prune and decide those again (only
        a refutation needs a current map: SEMANTICS.md section 14)."""
        schema = self.schema
        def verdict(shard_map):     # None: some profile survives facts
            deduced = False
            for classes, total, clean, _count in shard_map:
                refuted, via_deduction = profile_refuted(
                    schema, facts, classes, total, clean)
                if not refuted:
                    return None
                deduced = deduced or via_deduction
            return deduced
        verdicts = [verdict(shard_map) for shard_map in self._maps]
        stale = [i for i, pruned in enumerate(verdicts)
                 if pruned is not None and i in self._stale]
        for shard_id, shard_map in zip(stale, self._refresh_maps(stale)):
            verdicts[shard_id] = verdict(shard_map)
        selected = [i for i, pruned in enumerate(verdicts) if pruned is None]
        self.stats_counters.shards_pruned += self.n_shards - len(selected)
        self.stats_counters.deduction_prunes += verdicts.count(True)
        return selected

    @staticmethod
    def _rewrite_aggregates(query: Query):
        """``avg e`` folds don't merge; ``total e``/``count e`` pairs
        do, exactly.  Returns the dispatched text plus a merge spec."""
        items: List[Aggregate] = []
        spec: List[Tuple[str, object]] = []
        for item in query.select:
            if item.function == "avg":
                spec.append(("avg", (len(items), len(items) + 1)))
                items.append(Aggregate("total", item.operand))
                items.append(Aggregate("count", item.operand))
            else:
                spec.append((item.function, len(items)))
                items.append(item)
        return str(Query(query.var, query.source_class, query.where,
                         tuple(items))), spec

    def _merge_aggregates(self, spec, shard_rows) -> tuple:
        merged = []
        for function, where in spec:
            if function == "avg":
                total_at, count_at = where
                total = sum(row[total_at] for row in shard_rows)
                n = sum(row[count_at] for row in shard_rows)
                merged.append(INAPPLICABLE if n == 0 else total / n)
            elif function in ("count", "total"):
                merged.append(sum(row[where] for row in shard_rows))
            else:   # min / max over the per-shard partial folds
                partials = [row[where] for row in shard_rows
                            if row[where] is not INAPPLICABLE]
                fold = min if function == "min" else max
                merged.append(fold(partials) if partials else INAPPLICABLE)
        return tuple(merged)

    def query(self, query,
              **options) -> Tuple[List[tuple], ExecutionStats]:
        """Scatter-gather execution, returning ``(rows, stats)`` like
        ``execute_planned``: the decoded form of :meth:`query_wire`."""
        out = self.execute({"op": "query", "options": options, "text":
                            query if isinstance(query, str) else str(query)})
        stats = ExecutionStats()
        for field, value in out["stats"].items():
            setattr(stats, field, value)
        encoded = ([out["agg"]] if "agg" in out
                   else [values for _sid, values in out["rows"]])
        return [tuple([codec.decode_value(v, self.handle)   # tagged only
                       if type(v) is dict else v for v in values])
                for values in encoded], stats

    def _resolve_query(self, query) -> tuple:
        """``(facts, dispatched text, aggregate spec or None)``, cached
        on ``(text, schema version)``: a repeated text parses nothing."""
        text = query if isinstance(query, str) else str(query)
        key = (text, self.schema.version)
        resolved = self._queries.get(key)
        if resolved is None:
            query = parse_query(text)
            folds = [isinstance(item, Aggregate) for item in query.select]
            if any(folds) and not all(folds):
                raise QueryTypeError(
                    "aggregate and per-row select items cannot be mixed")
            text, spec = (self._rewrite_aggregates(query) if any(folds)
                          else (text, None))
            resolved = (extract_facts(query, self.schema), text, spec)
            self._queries.put(key, resolved)
        return resolved

    def query_wire(self, query,
                   options: Optional[Dict] = None) -> Dict[str, object]:
        """Scatter-gather at the wire level: resolve the text (once),
        prune shards, dispatch in parallel, merge rows (by surrogate) or
        aggregate folds.  The response has the shape the single-store
        service's ``query`` op produces (sid-tagged rows of *encoded*
        values, or a merged ``agg`` vector, plus the per-shard execution
        stats summed, ``rows_returned`` recomputed for aggregate merges)
        -- per-row values are merged without a decode/re-encode
        round-trip, so a network backend serving a sharded store pays
        routing, not re-serialization."""
        facts, text, spec = self._resolve_query(query)
        selected = self._select_shards(facts)
        self.stats_counters.queries_routed += 1
        self.stats_counters.shards_dispatched += len(selected)
        payloads = self._broadcast_cmd(
            {"op": "query", "text": text, "options": options or {}},
            selected)
        stats = {field: sum(payload["stats"][field]
                            for _shard_id, payload in payloads)
                 for field in EXECUTION_STAT_FIELDS}
        if spec is not None:
            shard_rows = [
                [codec.decode_value(value, self.handle)
                 for value in payload["agg"]]
                for _shard_id, payload in payloads]
            merged = self._merge_aggregates(spec, shard_rows)
            stats["rows_returned"] = 1
            self.stats_counters.rows_merged += 1
            return {"agg": [codec.encode_value(v) for v in merged],
                    "stats": stats}
        rows: List[List[object]] = []
        for _shard_id, payload in payloads:
            rows.extend(payload["rows"])
        # Shard extents are disjoint, so sorting by surrogate re-creates
        # the single store's extent order.
        rows.sort(key=lambda row: row[0])
        self.stats_counters.rows_merged += len(rows)
        return {"rows": rows, "stats": stats}

    # -- observability --------------------------------------------------

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard ``store.stats()`` dicts (each from its own process
        and its own injected bitset-counter sink), in shard order."""
        payloads = self._broadcast_cmd({"op": "stats"})
        return [payload for _sid, payload in payloads]

    def stats(self) -> Dict[str, object]:
        """Aggregate stats: numeric per-shard counters summed, plus the
        router's own ``shard.*`` routing/pruning/merge counters."""
        per_shard = self.shard_stats()
        aggregate: Dict[str, object] = {}
        for shard in per_shard:
            for name, value in shard.items():
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
                aggregate[name] = aggregate.get(name, 0) + value
        aggregate["shards"] = self.n_shards
        # "objects" sums per-shard residents (replicas counted once per
        # shard); this is the deduplicated routed population.
        aggregate["routed_objects"] = len(self)
        for name, value in self.stats_counters.snapshot().items():
            aggregate[f"shard.{name}"] = value
        return aggregate

    # -- lifecycle ------------------------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        """Test hook: make the worker die instantly (no flush, no
        shutdown), as a real process crash would."""
        backend = self._backends[shard_id]
        if not isinstance(backend, ProcessBackend):
            raise ShardingError("only process-backed shards can crash")
        try:
            self._call(shard_id, {"op": "crash"})
        except ShardCrashedError:   # EOF is the reply of a crash
            backend.process.join(timeout=10)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for backend in self._backends:
            backend.stop()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"<ShardedStore shards={self.n_shards} "
                f"objects={len(self)}>")


def _request(row: Op, method: str, fixed: Dict[str, object]):
    """``ObjectStore.<method>`` as :func:`repro.ops.request` over
    :meth:`ShardedStore.execute`, answered as ``ObjectStore`` answers."""

    def call(self, *args, **kwargs):
        cmd = request(row, fixed, args, kwargs)
        if "sid" in cmd:
            cmd["sid"] = self._sid_of(cmd["sid"])
        return self._reply(self.execute(cmd))

    call.__name__ = method
    call.__qualname__ = f"ShardedStore.{method}"
    return call


for _row in OPS.values():
    for _method, _fixed in _row.methods.items():
        setattr(ShardedStore, _method, _request(_row, _method, _fixed))
