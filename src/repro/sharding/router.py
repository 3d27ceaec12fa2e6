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

**Scatter-gather reads.**  Queries are parsed once, pruned against
per-shard signature-profile maps (:mod:`repro.sharding.pruning` -- the
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
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple
from zlib import crc32

from repro import codec
from repro.columnar import SurrogateSet
from repro.errors import (
    NoSuchObjectError, QueryTypeError, ShardCrashedError, ShardingError,
    ShardWorkerError, UnknownClassError,
)
from repro.lang.printer import print_schema
from repro.obs import ShardStats
from repro.objects.pipeline import CheckMode
from repro.objects.store import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.ops import EXECUTION_STAT_FIELDS
from repro.query.ast import Aggregate, Query
from repro.query.interpreter import ExecutionStats
from repro.query.parser import parse_query
from repro.sharding import wire
from repro.sharding.pruning import extract_facts, profile_refuted
from repro.sharding.worker import ShardServer, shard_worker_main
from repro.storage.shards import (
    read_shard_manifest, shard_directory, write_shard_manifest,
)
from repro.typesys.values import INAPPLICABLE, RecordValue, is_entity

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

    def values_snapshot(self) -> Dict[str, object]:
        return {name: codec.decode_value(value, self._router.handle)
                for name, value in self._state()["values"].items()}

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

    def alive(self) -> bool:
        return True

    def stop(self) -> None:
        self.server.close()


class ProcessBackend:
    """A shard in its own worker process, reached over one duplex pipe
    carrying the wire texts as bytes: one wake-up per hop, and a dead
    worker is EOF or a broken pipe -- :class:`ShardCrashedError` at
    once, not after a poll period.  A pipe ``send`` can block on a
    worker that is itself blocked sending, so at most one command is in
    flight: ``send`` refuses while a reply is outstanding (the worker's
    ready handshake is the first)."""

    def __init__(self, shard_id: int, config: Dict[str, object],
                 ctx) -> None:
        self.shard_id = shard_id
        self._conn, worker_end = ctx.Pipe()
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
            self._conn.send_bytes(text.encode("utf-8"))
        except OSError:
            raise ShardCrashedError(
                self.shard_id, "worker process died") from None
        self._awaiting = True

    def recv(self, timeout: float = 120.0) -> str:
        try:
            if not self._conn.poll(timeout):    # a late reply stays owed
                raise ShardCrashedError(
                    self.shard_id, f"no result within {timeout:.0f}s")
            self._awaiting = False  # a reply, or EOF: a corpse owes nothing
            return self._conn.recv_bytes().decode("utf-8")
        except (EOFError, OSError):
            raise ShardCrashedError(
                self.shard_id, "worker process died") from None

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        """Ask for a clean shutdown (the worker flushes and closes its
        store before it answers); terminate whatever cannot take it."""
        try:
            self.send(wire.encode_command({"op": "shutdown"}))
            self.recv(timeout=30)
        except ShardingError:
            self.process.terminate()
        self.process.join(timeout=5)
        self._conn.close()


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
        self._maps: List[Optional[List[dict]]] = [None] * n_shards
        self._handles: Dict[int, RemoteHandle] = {}
        #: Last observed commit position per shard (each result
        #: envelope carries the shard's WAL seq / epoch); composed into
        #: the vector epoch token by :meth:`position_token`.
        self._positions: Dict[int, int] = {i: 0 for i in range(n_shards)}
        #: Undo log of the open sharded transaction (None = no scope).
        self._txn_undo: Optional[List] = None

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
        for shard_id, shard_map in enumerate(self._refresh_maps(
                range(self.n_shards))):
            for profile in shard_map:
                key = "|".join(profile["classes"])
                self._profile_counts[key] = (
                    self._profile_counts.get(key, 0) + profile["count"])

    # -- plumbing -------------------------------------------------------

    @property
    def schema(self):
        return self._meta.schema

    def _routed(self, sid: int) -> bool:
        return sid in self._owners or sid in self._broadcast

    def handle(self, sid: int) -> RemoteHandle:
        """The canonical proxy for a (global) surrogate id.  Only a
        routed sid is cached: ids arrive from outside (the wire), and a
        proxy per bogus id would grow without bound."""
        handle = self._handles.get(sid)
        if handle is None:
            handle = RemoteHandle(self, Surrogate(sid))
            if self._routed(sid):
                self._handles[sid] = handle
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
            raise ShardingError(
                f"surrogate {sid} is not routed by this store") from None

    def _send(self, shard_id: int, cmd: Dict[str, object]) -> None:
        if self._closed:
            raise ShardingError("store is closed")
        self.stats_counters.commands_sent += 1
        self._backends[shard_id].send(wire.encode_command(cmd))

    def _recv_ok(self, shard_id: int):
        result = wire.decode_result(self._backends[shard_id].recv())
        if "seq" in result:     # the single choke point every result
            self._positions[shard_id] = int(result["seq"])
        if "error" in result:
            err = result["error"]
            raise ShardWorkerError(err["type"], err["msg"],
                                   shard_id=shard_id)
        return result["ok"]

    def _call(self, shard_id: int, cmd: Dict[str, object]):
        self._send(shard_id, cmd)
        return self._recv_ok(shard_id)

    def _scatter(self, commands: Sequence[Tuple[int, Dict[str, object]]]):
        """Send each ``(shard_id, cmd)`` first, then gather: the shards
        execute concurrently.  Sending stops at the first shard that
        cannot be reached and a reply is collected from exactly the
        shards that were, whatever fails -- no shard is left with a
        command in flight, so no survivor answers the previous question
        later.  The first failure is raised after the gather."""
        sent, payloads, failure = [], [], None
        for shard_id, cmd in commands:
            try:
                self._send(shard_id, cmd)
            except ShardingError as exc:
                failure = exc
                break
            sent.append(shard_id)
        for shard_id in sent:
            try:
                payloads.append((shard_id, self._recv_ok(shard_id)))
            except ShardingError as exc:    # worker error or crash
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

    def _invalidate(self, shard_id: int) -> None:
        self._maps[shard_id] = None

    def _replicate(self, sid: int, cmd: Dict[str, object],
                   replica_cmd: Dict[str, object]) -> None:
        """Two-phase write of a broadcast entity: its owner replica
        takes the checked ``cmd`` (a rejection rolls back there and
        reaches no replica, keeping every shard identical), then every
        other shard takes ``replica_cmd``."""
        owner = sid % self.n_shards
        self._invalidate(owner)
        self._call(owner, cmd)
        others = [i for i in range(self.n_shards) if i != owner]
        if others:
            for shard_id in others:
                self._invalidate(shard_id)
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
        """The shard routed entity references pin a create to (replicas
        resolve everywhere, so broadcast references never pin)."""
        pinned: Optional[int] = None

        def visit(value):
            nonlocal pinned
            if isinstance(value, RecordValue):
                for name in value.field_names():
                    visit(value.get_value(name))
                return
            if not is_entity(value):
                return
            sid = value.surrogate.id
            if sid in self._broadcast:
                return
            owner = self._owner_of(sid)
            if pinned is None:
                pinned = owner
            elif pinned != owner:
                raise ShardingError(
                    "create references entities on two shards "
                    f"({pinned} and {owner}); co-locate them or make "
                    "the shared entity a broadcast entity")
        for value in values.values():
            visit(value)
        return pinned

    def _guard_virtual_anchor(self, attribute: str, value,
                              classes) -> None:
        """Reject anchoring a broadcast replica into a virtual class:
        the membership would materialize only on the writer's shard,
        while the replica's reading owner is another shard -- the
        scatter-gathered virtual extent would silently miss it.  Fires
        only when the written object is (becoming) a member of the
        virtual class's origin owner, i.e. when the write would anchor.
        ``classes()`` names the written object's direct classes; it is
        asked (for a set, of the worker) only when the schema says
        ``attribute`` is some virtual class's origin.
        """
        if not (is_entity(value)
                and value.surrogate.id in self._broadcast):
            return
        anchored = [cdef for cdef in self.schema.virtual_classes()
                    if cdef.origin is not None
                    and cdef.origin.attribute == attribute]
        if not anchored:
            return
        closure = set().union(*map(self.schema.ancestors, classes()))
        for cdef in anchored:
            if cdef.origin.owner_class in closure:
                raise ShardingError(
                    f"setting {attribute!r} would anchor broadcast "
                    f"entity {value.surrogate} into virtual class "
                    f"{cdef.name!r} on one shard only; route the "
                    "entity instead of broadcasting it")

    def _guard_virtual_classify(self, obj, class_name: str) -> None:
        """The classify-side of the anchoring guard: joining the origin
        owner of a virtual class anchors every already-set origin value
        -- reject if any of those values is a broadcast replica."""
        origins = [cdef.origin for cdef in self.schema.virtual_classes()
                   if cdef.origin is not None
                   and cdef.origin.owner_class
                   in self.schema.ancestors(class_name)]
        if not origins:
            return
        sid = self._sid_of(obj)
        values = self.handle(sid)._state()["values"]
        for origin in origins:
            target = codec.ref_sid(values.get(origin.attribute))
            if target in self._broadcast:
                raise ShardingError(
                    f"classifying {sid} as {class_name!r} would anchor "
                    f"broadcast entity @{target} into a virtual "
                    f"class via {origin.attribute!r}; route that entity "
                    "instead of broadcasting it")

    # -- mutations ------------------------------------------------------

    def _admit(self, classes: Sequence[str],
               values: Dict[str, object]) -> Optional[int]:
        """The router's own checks on a new object -- known classes, no
        broadcast anchor -- and the shard its references pin it to."""
        for class_name in classes:
            if not self.schema.has_class(class_name):
                raise UnknownClassError(class_name)
        for attribute, value in values.items():
            self._guard_virtual_anchor(attribute, value, lambda: classes)
        return self._pin_of(values)

    def create(self, class_name: str, check: Optional[str] = None,
               broadcast: bool = False, **values) -> RemoteHandle:
        pin = self._admit((class_name,), values)
        sid = self._next_sid
        cmd = {"op": "create", "sid": sid, "cls": class_name,
               "values": codec.encode_values(values), "check": check}
        if broadcast:
            if pin is not None:
                raise ShardingError(
                    "a broadcast create cannot reference routed "
                    "entities (replicas could not resolve them)")
            self._next_sid += 1
            self._replicate(sid, cmd, dict(cmd, foreign=True))
            self._broadcast.add(sid)
        else:
            shard = pin if pin is not None else self._place(
                self._profile_key((class_name,)))
            # The single store burns a surrogate on a rejected create
            # (the allocator never rolls back); mirror that so the id
            # sequences stay aligned.
            self._next_sid += 1
            self._invalidate(shard)
            self._call(shard, cmd)
            self._owners[sid] = shard
        self.stats_counters.objects_routed += 1
        if self._txn_undo is not None:
            self._txn_undo.append(
                lambda sid=sid: self.remove(self.handle(sid)))
        return self.handle(sid)

    def bulk_load(self, rows: Iterable[Tuple[object, Dict[str, object]]],
                  check: str = CheckMode.DEFERRED) -> List[RemoteHandle]:
        """Stage ``(classes, values)`` rows as one batch *per shard*,
        executing across all shard processes concurrently -- this is
        the write path that scales with shard count.  Rows may
        reference broadcast entities and previously committed objects,
        not other rows of the same batch."""
        if self._txn_undo is not None:
            raise ShardingError(
                "bulk_load is not available inside a sharded "
                "transaction (batches are all-or-nothing per shard, "
                "not undoable row by row)")
        per_shard: Dict[int, List[list]] = {}
        assigned: List[Tuple[int, int]] = []
        # Decoded in full before anything is minted: a row that does
        # not decode must not move the allocator.
        for classes, values in list(rows):
            if isinstance(classes, str):
                classes = (classes,)
            pin = self._admit(classes, values)
            shard = pin if pin is not None else self._place(
                self._profile_key(classes))
            sid = self._next_sid
            self._next_sid += 1
            per_shard.setdefault(shard, []).append(
                [sid, list(classes), codec.encode_values(values)])
            assigned.append((sid, shard))
        for shard in per_shard:
            self._invalidate(shard)
        # Each batch is all-or-nothing per shard, not across shards: on
        # a failure, shards whose batches committed keep them, and none
        # of this call's rows are registered as routed.
        self._scatter([
            (shard, {"op": "bulk", "rows": shard_rows, "check": check})
            for shard, shard_rows in per_shard.items()])
        self._owners.update(assigned)
        self.stats_counters.objects_routed += len(assigned)
        self.stats_counters.bulk_rows_routed += len(assigned)
        return [self.handle(sid) for sid, _shard in assigned]

    def _txn_capture_undo(self, sid: int, cmd: Dict[str, object]):
        """The inverse of one mutation, captured *before* it applies
        (a ``set`` undo needs the prior value) but journaled only after
        it succeeds (a rejected sub-op applied nothing, so its inverse
        must not replay).  Inverses replay through :meth:`_mutate`
        itself check-free (``_txn_undo`` is already detached during
        rollback, so they do not re-log), which keeps broadcast
        replicas converged through an undo exactly as through the
        forward write."""
        op = cmd["op"]
        if op == "remove":
            # Undoing a remove needs the full prior state *and* every
            # inbound reference; out of the supported envelope.
            raise ShardingError(
                "remove is not supported inside a sharded transaction "
                "(its undo cannot be replayed exactly); remove outside "
                "the transaction scope")
        if op in ("set", "unset"):
            attr = cmd["attr"]
            prior = self.handle(sid)._state()["values"].get(attr)
            if prior is None:
                undo = {"op": "unset", "attr": attr}
            else:
                undo = {"op": "set", "attr": attr, "value": prior}
        elif op == "classify":
            undo = {"op": "declassify", "cls": cmd["cls"]}
        elif op == "declassify":
            undo = {"op": "classify", "cls": cmd["cls"]}
        else:
            raise ShardingError(
                f"cannot undo {op!r} inside a sharded transaction")
        return lambda: self._mutate(sid, undo, CheckMode.NONE)

    @contextmanager
    def transaction(self):
        """An atomic multi-command scope over the sharded population.

        The single store undoes through in-process copy-on-write
        pre-images; shards cannot share those, so the router keeps a
        logical **undo journal**: each create/set/unset/classify/
        declassify inside the scope logs its exact inverse first, and an
        exception replays the inverses in reverse order (check-free --
        they restore previously conformant state) before re-raising.
        The allocator and profile placement
        counters are restored too, so an aborted transaction leaves the
        router minting the same sids and placements the single store
        would after its rollback.  Supported scope: create / set /
        unset / classify / declassify; ``remove``, ``bulk_load`` and
        schema/index commands are rejected inside the scope (their
        inverses cannot be replayed exactly).

        Unlike the single store's transaction this scope is atomic but
        not isolated: a concurrent reader of the *same router* could
        observe intermediate states.  The router is single-writer by
        contract (it is not thread-safe), so within the supported
        envelope this distinction is unobservable.
        """
        if self._txn_undo is not None:
            raise ShardingError("sharded transactions do not nest")
        self._txn_undo = []
        saved_next = self._next_sid
        saved_profiles = dict(self._profile_counts)
        try:
            yield self
        except BaseException:
            undos, self._txn_undo = self._txn_undo, None
            for undo in reversed(undos):
                try:
                    undo()
                except Exception:   # pragma: no cover - best effort
                    pass
            self._next_sid = saved_next
            self._profile_counts = saved_profiles
            self.stats_counters.txn_rollbacks += 1
            raise
        else:
            self._txn_undo = None

    def _mutate(self, obj, cmd: Dict[str, object],
                check: Optional[str]) -> None:
        sid = self._sid_of(obj)
        cmd = dict(cmd, sid=sid)
        undo = (self._txn_capture_undo(sid, cmd)
                if self._txn_undo is not None else None)
        if sid in self._broadcast:
            self._replicate(sid, dict(cmd, check=check),
                            dict(cmd, check=CheckMode.NONE))
            if cmd["op"] == "remove":
                self._broadcast.discard(sid)
        else:
            shard = self._owner_of(sid)
            self._invalidate(shard)
            self._call(shard, dict(cmd, check=check))
            if cmd["op"] == "remove":
                self._owners.pop(sid, None)
                self._handles.pop(sid, None)
        if undo is not None:
            self._txn_undo.append(undo)

    def set_value(self, obj, attribute: str, value,
                  check: Optional[str] = None) -> None:
        self._guard_virtual_anchor(
            attribute, value,
            lambda: self.handle(self._sid_of(obj)).memberships)
        self._mutate(obj, {"op": "set", "attr": attribute,
                           "value": codec.encode_value(value)}, check)

    def unset_value(self, obj, attribute: str,
                    check: Optional[str] = None) -> None:
        self._mutate(obj, {"op": "unset", "attr": attribute}, check)

    def classify(self, obj, class_name: str,
                 check: Optional[str] = None) -> None:
        if self.schema.has_class(class_name):
            self._guard_virtual_classify(obj, class_name)
        self._mutate(obj, {"op": "classify", "cls": class_name}, check)

    def declassify(self, obj, class_name: str,
                   check: Optional[str] = None) -> None:
        self._mutate(obj, {"op": "declassify", "cls": class_name}, check)

    def remove(self, obj) -> None:
        self._mutate(obj, {"op": "remove"}, None)

    # -- schema evolution ----------------------------------------------

    def _no_open_txn(self) -> None:
        """Schema changes are checked *before* the meta store mutates,
        so a rejection leaves meta and shards still in lockstep."""
        if self._txn_undo is not None:
            raise ShardingError(
                "schema changes are not available inside a sharded "
                "transaction (a replicated epoch cannot be undone)")

    def _replicate_schema(self, class_name: str,
                          recheck: str) -> List[Tuple[RemoteHandle, str]]:
        text = print_schema(self._meta.schema)
        cmd = {"op": "alter", "schema": text, "cls": class_name,
               "recheck": recheck}
        for shard_id in range(self.n_shards):
            self._invalidate(shard_id)
        payloads = self._broadcast_cmd(cmd)
        self.stats_counters.schema_replications += 1
        return self._violations(payloads)

    def _violations(self, payloads) -> List[Tuple[RemoteHandle, str]]:
        return [(self.handle(int(sid)), message)
                for _shard_id, payload in payloads
                for sid, message in payload["violations"]]

    def alter_class(self, new_def, *, recheck: str = "affected"):
        """Validated once against the meta store (rejection aborts
        before any shard hears of it), then replicated to every shard
        in command order -- each shard's ordered pipe guarantees the
        epoch lands between the same mutations everywhere."""
        self._no_open_txn()
        self._meta.alter_class(new_def, recheck="none")
        return self._replicate_schema(new_def.name, recheck)

    def add_excuse(self, class_name: str, attribute: str, range_,
                   targets, *, recheck: str = "affected"):
        self._no_open_txn()
        self._meta.add_excuse(class_name, attribute, range_, targets,
                              recheck="none")
        return self._replicate_schema(class_name, recheck)

    def retract_excuse(self, class_name: str, attribute: str, *,
                       targets=None, drop_attribute: bool = False,
                       recheck: str = "affected"):
        self._no_open_txn()
        self._meta.retract_excuse(class_name, attribute, targets=targets,
                                  drop_attribute=drop_attribute,
                                  recheck="none")
        return self._replicate_schema(class_name, recheck)

    # -- physical design ------------------------------------------------

    def _index(self, attribute: str, action: str) -> None:
        if self._txn_undo is not None:
            raise ShardingError(
                "index changes are not available inside a sharded "
                "transaction")
        self._broadcast_cmd({"op": "index", "attr": attribute,
                             "action": action})

    def create_index(self, attribute: str) -> None:
        self._index(attribute, "create")

    def drop_index(self, attribute: str) -> None:
        self._index(attribute, "drop")

    # -- reads ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._owners) + len(self._broadcast)

    def get(self, surrogate) -> RemoteHandle:
        """The handle of a routed object; like ``ObjectStore.get``,
        an id this store does not hold is ``NoSuchObjectError``."""
        sid = self._sid_of(surrogate)
        if not self._routed(sid):
            raise NoSuchObjectError(
                f"surrogate {sid} is not routed by this store")
        return self.handle(sid)

    def count(self, class_name: str) -> int:
        payloads = self._broadcast_cmd({"op": "count",
                                        "cls": class_name})
        return sum(payload["count"] for _sid, payload in payloads)

    def extent_surrogates(self, class_name: str) -> SurrogateSet:
        """The union of the per-shard masked extents, gathered as chunk
        arrays (disjoint by construction, so the union is exact)."""
        payloads = self._broadcast_cmd({"op": "extent",
                                        "cls": class_name})
        union = SurrogateSet()
        for _sid, payload in payloads:
            union |= wire.decode_chunks(payload["extent"])
        return union

    def extent(self, class_name: str) -> Tuple[RemoteHandle, ...]:
        return tuple(self.handle(sid)
                     for sid in self.extent_surrogates(class_name).ids())

    def validate_all(self) -> List[Tuple[RemoteHandle, str]]:
        return self._violations(self._broadcast_cmd({"op": "validate"}))

    def validate_dirty(self) -> List[Tuple[RemoteHandle, str]]:
        """Re-check only objects each shard marked dirty since its last
        sweep (each worker keeps its own dirty set)."""
        return self._violations(self._broadcast_cmd(
            {"op": "validate", "scope": "dirty"}))

    # -- scatter-gather queries ----------------------------------------

    def _refresh_maps(self, shard_ids) -> List[List[dict]]:
        for shard_id, payload in self._scatter([
                (i, {"op": "shard_map"}) for i in shard_ids
                if self._maps[i] is None]):
            self._maps[shard_id] = payload["profiles"]
            self.stats_counters.map_refreshes += 1
        return [self._maps[i] for i in shard_ids]

    def _select_shards(self, query: Query) -> List[int]:
        """The pruning pre-pass: refresh shard maps, refute profiles,
        dispatch only to shards still holding a live profile."""
        schema = self.schema
        facts = extract_facts(query, schema)
        maps = self._refresh_maps(range(self.n_shards))
        selected: List[int] = []
        for shard_id, shard_map in enumerate(maps):
            dispatch = False
            used_deduction = False
            for profile in shard_map:
                refuted, via_deduction = profile_refuted(
                    schema, facts, frozenset(profile["classes"]),
                    frozenset(profile["total"]), bool(profile["clean"]))
                if not refuted:
                    dispatch = True
                    break
                used_deduction = used_deduction or via_deduction
            if dispatch:
                selected.append(shard_id)
            else:
                self.stats_counters.shards_pruned += 1
                if used_deduction:
                    self.stats_counters.deduction_prunes += 1
        return selected

    @staticmethod
    def _rewrite_aggregates(select):
        """``avg e`` folds don't merge; ``total e``/``count e`` pairs
        do, exactly.  Returns the dispatched select plus a merge spec."""
        items: List[Aggregate] = []
        spec: List[Tuple[str, object]] = []
        for item in select:
            if item.function == "avg":
                spec.append(("avg", (len(items), len(items) + 1)))
                items.append(Aggregate("total", item.operand))
                items.append(Aggregate("count", item.operand))
            else:
                spec.append((item.function, len(items)))
                items.append(item)
        return tuple(items), spec

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
                if not partials:
                    merged.append(INAPPLICABLE)
                elif function == "min":
                    merged.append(min(partials))
                else:
                    merged.append(max(partials))
        return tuple(merged)

    def query(self, query,
              **options) -> Tuple[List[tuple], ExecutionStats]:
        """Scatter-gather execution, returning ``(rows, stats)`` like
        ``execute_planned``: the decoded form of :meth:`query_wire`."""
        out = self.query_wire(query, options)
        stats = ExecutionStats()
        for field, value in out["stats"].items():
            setattr(stats, field, value)
        encoded = ([out["agg"]] if "agg" in out
                   else [values for _sid, values in out["rows"]])
        return [tuple(codec.decode_value(value, self.handle)
                      for value in values) for values in encoded], stats

    def query_wire(self, query,
                   options: Optional[Dict] = None) -> Dict[str, object]:
        """Scatter-gather at the wire level: parse once, prune shards,
        dispatch in parallel, merge rows (by surrogate) or aggregate
        folds.  The response has the shape the single-store service's
        ``query`` op produces (sid-tagged rows of *encoded* values, or
        a merged ``agg`` vector, plus the per-shard execution stats
        summed, ``rows_returned`` recomputed for aggregate merges) --
        per-row values are merged without a decode/re-encode
        round-trip, so a network backend serving a sharded store pays
        routing, not re-serialization."""
        if isinstance(query, str):
            query = parse_query(query)
        has_aggregates = any(isinstance(item, Aggregate)
                             for item in query.select)
        if has_aggregates and not all(isinstance(item, Aggregate)
                                      for item in query.select):
            raise QueryTypeError(
                "aggregate and per-row select items cannot be mixed")
        selected = self._select_shards(query)
        self.stats_counters.queries_routed += 1
        self.stats_counters.shards_dispatched += len(selected)
        if has_aggregates:
            dispatched, spec = self._rewrite_aggregates(query.select)
            query = Query(query.var, query.source_class, query.where,
                          dispatched)
        payloads = self._broadcast_cmd(
            {"op": "query", "text": str(query),
             "options": options or {}}, selected)
        stats = {field: sum(payload["stats"][field]
                            for _shard_id, payload in payloads)
                 for field in EXECUTION_STAT_FIELDS}
        if has_aggregates:
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

    def checkpoint(self) -> None:
        """Each durable shard checkpoints its own directory; in-memory
        shards have nothing to write."""
        if self.directory is not None:
            self._broadcast_cmd({"op": "checkpoint"})

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
