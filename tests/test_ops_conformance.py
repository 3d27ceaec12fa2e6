"""One vocabulary, every edge: each row of ``repro.ops.OPS`` answers
the same command with the same payload, the same ack shape and the
same error type whether it is served by a single store
(``ConcurrentBackend``), a sharded router (``ShardedBackend``,
in-process shards, N in {1, 2}) or one shard directly (``ShardServer``)
-- and leaves the same state behind when it is read back from the log
(``LogEdge``: the directory closed and recovered, and the record
shipped to a ``Replica``).

The edges are durable (``checkpoint`` needs a directory) and driven at
the ``op_<name>(cmd)`` / ``handle(cmd)`` seam, below the socket; that a
rejection keeps its type across the socket and across the shard hop is
asserted at the end through ``RemoteOpError`` and ``ShardWorkerError``.
The walk is parametrised over the table, so a write row the journal
skipped fails its own case of the log test.
"""

from __future__ import annotations

import pytest

from repro.errors import RemoteOpError, ShardWorkerError
from repro.lang import print_schema
from repro.net.backends import ConcurrentBackend, ShardedBackend
from repro.net.client import StoreClient
from repro.net.replication import LocalShipSource, Replica
from repro.net.server import StoreService
from repro.objects.store import ObjectStore
from repro.ops import OPS
from repro.scenarios import build_hospital_schema
from repro.sharding.router import ShardedStore
from repro.sharding.worker import ShardServer

from tests.faultfs import store_digest

SCHEMA = build_hospital_schema()
SCHEMA_TEXT = print_schema(SCHEMA)
#: A real change for ``alter`` (a no-op alter is not journaled).
EVOLVED_TEXT = SCHEMA_TEXT + "\nclass Convalescent is-a Patient with\nend\n"
ACK = {"token", "epoch"}


class BackendEdge:
    """A ``StoreBackend`` driven at its ``op_<name>`` seam."""

    extras = frozenset()

    def __init__(self, backend) -> None:
        self.backend = backend
        self.acks = True

    def call(self, cmd):
        return getattr(self.backend, "op_" + cmd["op"])(cmd)

    def close(self) -> None:
        self.backend.close()


class ShardEdge:
    """One ``ShardServer`` driven directly, playing the router's part:
    it mints the sid every create/bulk row carries."""

    #: Sharding details the router strips before a reply leaves it.
    extras = frozenset({"foreign"})

    def __init__(self, directory: str) -> None:
        self.server = ShardServer(0, 1, schema_text=SCHEMA_TEXT,
                                  directory=directory)
        self.acks = False
        self.next_sid = 1

    def _mint(self) -> int:
        self.next_sid += 1
        return self.next_sid - 1

    def _routed(self, cmd):
        if not isinstance(cmd, dict):
            return cmd
        if cmd.get("op") == "create":
            return dict(cmd, sid=self._mint())
        if cmd.get("op") == "bulk" and "rows" in cmd:
            return dict(cmd, rows=[[self._mint(), classes, values]
                                   for classes, values in cmd["rows"]])
        if cmd.get("op") == "txn" and "ops" in cmd:
            return dict(cmd, ops=[self._routed(sub) for sub in cmd["ops"]])
        return cmd

    def call(self, cmd):
        before = self.next_sid
        try:
            return self.server.handle(self._routed(cmd))
        except Exception:
            self.next_sid = before      # the router's rollback
            raise

    def close(self) -> None:
        self.server.close()


class LogEdge(BackendEdge):
    """The log as an edge: a durable single store whose state is read
    only after :meth:`reopen` -- what a command did must be what its
    WAL record replays."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        super().__init__(ConcurrentBackend(
            ObjectStore.open(directory, SCHEMA)))

    def reopen(self) -> None:
        self.backend.close()
        self.backend = ConcurrentBackend(ObjectStore.open(self.directory))


def _sharded(n):
    return lambda directory: BackendEdge(ShardedBackend(ShardedStore(
        SCHEMA, n, processes=False, directory=directory,
        durability="wal")))


EDGES = {
    "concurrent": lambda directory: BackendEdge(ConcurrentBackend(
        ObjectStore.open(directory, SCHEMA))),
    "sharded-1": _sharded(1),
    "sharded-2": _sharded(2),
    "shard-server": ShardEdge,
    "log": LogEdge,
}


@pytest.fixture()
def edges(tmp_path):
    opened = {name: make(str(tmp_path / name))
              for name, make in EDGES.items()}
    yield opened
    for edge in opened.values():
        edge.close()


#: Every edge starts from the same two objects: sid 1 a Patient, sid 2
#: a Ward (nothing references it, so it can be removed anywhere).
SEED = [
    {"op": "create", "cls": "Patient",
     "values": {"name": "ann", "age": 30}},
    {"op": "create", "cls": "Ward",
     "values": {"floor": 1, "name": "w"}},
]

#: op -> (commands run first, the command under test).
SCRIPT = {
    "query": ([], {"op": "query", "text":
                   "for p in Patient where p.age >= 20 select p.name"}),
    "get": ([], {"op": "get", "sid": 1}),
    "count": ([], {"op": "count", "cls": "Patient"}),
    "extent": ([], {"op": "extent", "cls": "Patient"}),
    "schema": ([], {"op": "schema"}),
    "create": ([], {"op": "create", "cls": "Ward",
                    "values": {"floor": 2, "name": "v"}}),
    "set": ([], {"op": "set", "sid": 1, "attr": "age", "value": 31}),
    "unset": ([], {"op": "unset", "sid": 1, "attr": "age"}),
    "classify": ([], {"op": "classify", "sid": 1, "cls": "Alcoholic"}),
    "declassify": ([{"op": "classify", "sid": 1, "cls": "Alcoholic"}],
                   {"op": "declassify", "sid": 1, "cls": "Alcoholic"}),
    "remove": ([], {"op": "remove", "sid": 2}),
    "txn": ([], {"op": "txn", "ops": [
        {"op": "create", "cls": "Ward",
         "values": {"floor": 3, "name": "t"}},
        {"op": "set", "sid": 1, "attr": "age", "value": 32}]}),
    "bulk": ([], {"op": "bulk", "rows": [
        [["Ward"], {"floor": 4, "name": "b0"}],
        [["Ward"], {"floor": 5, "name": "b1"}]]}),
    "alter": ([], {"op": "alter", "schema": EVOLVED_TEXT,
                   "cls": "Convalescent"}),
    "index": ([], {"op": "index", "attr": "age"}),
    "validate": ([], {"op": "validate", "scope": "dirty"}),
    "checkpoint": ([], {"op": "checkpoint"}),
}


def test_script_covers_the_table():
    assert set(SCRIPT) == set(OPS)


def _comparable(edge, payload):
    """The payload without what legitimately differs per edge: the ack
    (positions), sharding extras, and execution counters (pruning
    changes how many rows a shard scans, never which it returns)."""
    out = {key: value for key, value in payload.items()
           if key not in ACK and key not in edge.extras}
    if "stats" in out:
        out["stats"] = sorted(out["stats"])
    return out


def _error_type(edge, cmd):
    with pytest.raises(Exception) as exc_info:
        edge.call(cmd)
    exc = exc_info.value
    return getattr(exc, "remote_type", type(exc).__name__), str(exc)


def _seed(edges, extra=()):
    for edge in edges.values():
        for cmd in list(SEED) + list(extra):
            edge.call(cmd)


@pytest.mark.parametrize("name", list(OPS))
def test_same_command_same_payload_and_ack(edges, name):
    prelude, cmd = SCRIPT[name]
    _seed(edges, prelude)
    reference = None
    for label, edge in edges.items():
        payload = edge.call(cmd)
        if edge.acks:      # a write is acked with a vector token
            assert (ACK <= set(payload)) == OPS[name].write, label
            assert isinstance(payload.get("token", {}), dict), label
        seen = _comparable(edge, payload)
        if reference is None:
            reference = seen
        assert seen == reference, label


#: What a client can see of the state a command left behind.
READS = [
    {"op": "count", "cls": "Patient"},
    {"op": "count", "cls": "Ward"},
    {"op": "extent", "cls": "Ward"},
    {"op": "get", "sid": 1},
    {"op": "schema"},
    {"op": "query", "text": "for p in Patient select p.name, p.age"},
    {"op": "query", "text":
     "for w in Ward where w.floor >= 2 select w.name"},
]


def _state(store):
    """Everything recovery and replication must reproduce."""
    return (print_schema(store.schema), store_digest(store),
            store.indexes.attributes(), store._allocator._next)


@pytest.mark.parametrize("name", [n for n, row in OPS.items()
                                  if row.write])
def test_the_log_replays_what_every_edge_ran(edges, name):
    prelude, cmd = SCRIPT[name]
    _seed(edges, prelude)
    log = edges["log"]
    primary = log.backend.store
    # Bootstrapped before the command, so it arrives as a record.
    replica = Replica(LocalShipSource(primary))
    seq = primary._journal.wal.last_seq
    generation = primary._manifest["generation"]
    for edge in edges.values():
        edge.call(cmd)
    if name == "checkpoint":        # the log's own rotation
        assert primary._manifest["generation"] == generation + 1
    else:                           # one command, one record
        assert primary._journal.wal.last_seq == seq + 1
    live = _state(primary)
    replica.sync()
    assert _state(replica.store) == live
    log.reopen()
    assert _state(log.backend.store) == live
    seen = {label: [_comparable(edge, edge.call(read)) for read in READS]
            for label, edge in edges.items()}
    assert all(view == seen["log"] for view in seen.values()), seen


@pytest.mark.parametrize("name", [n for n, row in OPS.items()
                                  if "sid" in row.required])
def test_unknown_sid_is_no_such_object(edges, name):
    """Drift 1: a sharded store used to leak ``ShardingError`` for every
    op but ``get``."""
    _seed(edges)
    cmd = dict(SCRIPT[name][1], sid=10**6)
    for label, edge in edges.items():
        assert _error_type(edge, cmd)[0] == "NoSuchObjectError", label


def test_unknown_sid_inside_txn_and_values(edges):
    _seed(edges)
    dangling = {"$": "ref", "id": 10**6}
    for label, edge in edges.items():
        assert _error_type(edge, {"op": "txn", "ops": [
            {"op": "set", "sid": 10**6, "attr": "age", "value": 1}]}
        )[0] == "NoSuchObjectError", label
        assert _error_type(edge, {
            "op": "create", "cls": "Patient",
            "values": {"name": "x", "age": 30, "treatedBy": dangling}}
        )[0] == "NoSuchObjectError", label


def test_bogus_sids_do_not_grow_the_router(edges):
    _seed(edges)
    router = edges["sharded-2"].backend.router
    before = len(router._handles)
    for sid in range(10**6, 10**6 + 100):
        for op in ("get", "remove"):
            _error_type(edges["sharded-2"], dict(SCRIPT[op][1], sid=sid))
    assert len(router._handles) == before


@pytest.mark.parametrize("name", [
    n for n, row in OPS.items()
    # Leaving a class the object is not in is a no-op in every store,
    # whatever the name.
    if "cls" in row.required and n != "declassify"])
def test_unknown_class_same_type(edges, name):
    _seed(edges)
    cmd = dict(SCRIPT[name][1], cls="Nope")
    types = {label: _error_type(edge, cmd)[0]
             for label, edge in edges.items()}
    assert set(types.values()) == {"UnknownClassError"}, types


@pytest.mark.parametrize("name,field", [
    (n, f) for n, row in OPS.items() for f in row.required])
def test_missing_field_is_a_typed_storage_error(edges, name, field):
    """Drift 2: this used to answer ``KeyError: 'sid'``."""
    _seed(edges)
    cmd = dict(SCRIPT[name][1])
    del cmd[field]
    for label, edge in edges.items():
        etype, message = _error_type(edge, cmd)
        assert etype == "StorageError", label
        assert message == f"op {name!r} requires field {field!r}", label


def test_malformed_txn_sub_ops_roll_back(edges):
    _seed(edges)
    ward = {"op": "create", "cls": "Ward",
            "values": {"floor": 9, "name": "x"}}
    refused = [
        {"op": "set", "attr": "age", "value": 1},          # no sid
        {"cls": "Ward"},                                   # no op
        "remove",                                          # no object
        {"op": "bulk", "rows": []},
        {"op": "alter", "schema": SCHEMA_TEXT, "cls": "Ward"},
        {"op": "index", "attr": "age"},
        {"op": "query", "text": "for w in Ward select w.name"},
    ]
    for label, edge in edges.items():
        for sub in refused:
            etype, _ = _error_type(edge, {"op": "txn",
                                          "ops": [ward, sub]})
            assert etype == "StorageError", (label, sub)
        # Every refused transaction rolled its create back.
        assert edge.call({"op": "count", "cls": "Ward"})["count"] == 1


def test_conformance_rejection_keeps_its_type(edges, tmp_path):
    _seed(edges)
    bad = {"op": "create", "cls": "Patient",
           "values": {"name": "old", "age": 999}}
    for label, edge in edges.items():
        assert _error_type(edge, bad)[0] == "ConformanceError", label
    # ... and across the hops: the shard transport relays it as
    # ShardWorkerError, the socket as RemoteOpError, both carrying the
    # original type name.
    router = edges["sharded-2"].backend.router
    with pytest.raises(ShardWorkerError) as shard_exc:
        router.create("Patient", name="old", age=999)
    assert shard_exc.value.remote_type == "ConformanceError"
    for label in ("concurrent", "sharded-2"):
        service = StoreService(edges[label].backend)
        service.run_background()
        client = StoreClient(*service.address, timeout=5.0)
        try:
            with pytest.raises(RemoteOpError) as net_exc:
                client.create("Patient", {"name": "old", "age": 999})
            assert net_exc.value.remote_type == "ConformanceError", label
            # A malformed request is an op error: same connection,
            # next request answered.
            with pytest.raises(RemoteOpError) as net_exc:
                client.call("set", attr="age", value=1)
            assert net_exc.value.remote_type == "StorageError", label
            assert "requires field 'sid'" in str(net_exc.value)
            with pytest.raises(RemoteOpError) as net_exc:
                client.call(None)
            assert net_exc.value.remote_type == "StorageError", label
            assert client.count("Patient") == 1
            assert client.stats()["net.connections_opened"] == 1
        finally:
            client.close()
            service.shutdown()
