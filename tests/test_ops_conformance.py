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
rejection arrives as itself -- type, message and ``Violation`` record --
across the socket and across the shard hop is asserted at the end.
The walk is parametrised over the table, so a write row the journal
skipped fails its own case of the log test.

The last section holds the ``query`` row to the formulation wire plans
replaced (``tests/reference_query.reference_query_op``) in-process,
served and sharded, and pins what a repeated request no longer costs.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.errors import ConformanceError, StorageError
from repro.lang import print_schema
from repro.net.backends import ConcurrentBackend, ShardedBackend
from repro.net.client import StoreClient
from repro.net.replication import LocalShipSource, Replica
from repro.net.server import StoreService
from repro.objects.store import ObjectStore
from repro.ops import OPS
from repro.query import compiler
from repro.query.compiler import ON_UNSAFE
from repro.query.parser import parse_query
from repro.scenarios import build_hospital_schema
from repro.sharding import router as router_module
from repro.sharding.router import ShardedStore
from repro.sharding.worker import ShardServer
from repro.typesys import EnumSymbol

from tests.faultfs import store_digest
from tests.reference_query import query_trees, reference_query_op

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
        if cmd.get("op") == "bulk" and isinstance(cmd.get("rows"), list):
            return dict(cmd, rows=[[self._mint()] + row
                                   if isinstance(row, list) else row
                                   for row in cmd["rows"]])
        if cmd.get("op") == "txn" and isinstance(cmd.get("ops"), list):
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
    return type(exc).__name__, str(exc)


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


@contextmanager
def _served(backend):
    """A client of ``backend`` behind a real socket."""
    service = StoreService(backend)
    service.run_background()
    client = StoreClient(*service.address, timeout=5.0)
    try:
        yield client
    finally:
        client.close()
        service.shutdown()


@pytest.mark.parametrize("options", [
    {"bogus": 1}, [1], "x", {"on_unsafe": "explode"},
    {"eliminate_checks": []}, {"eliminate_checks": "no"}])
def test_malformed_query_options_are_a_typed_storage_error(edges, options):
    """Drift 3: these used to answer ``TypeError`` / ``ValueError`` from
    inside the planner -- and a router asked its shards first.  A flag
    that is not a bool used to be read for its truth value."""
    _seed(edges)
    cmd = dict(SCRIPT["query"][1], options=options)
    router = edges["sharded-2"].backend.router
    sent = router.stats_counters.commands_sent
    for label, edge in edges.items():
        etype, message = _error_type(edge, cmd)
        assert etype == "StorageError", label
        assert message.startswith("op 'query' field 'options': "), label
    for label in ("concurrent", "sharded-2"):   # served, served-sharded
        with _served(edges[label].backend) as client:
            with pytest.raises(StorageError) as net_exc:
                client.call("query", text=cmd["text"], options=options)
        assert type(net_exc.value) is StorageError, label
        assert str(net_exc.value).startswith("op 'query' field 'options': "), \
            label
    assert router.stats_counters.commands_sent == sent


#: A value the paper's rule forbids: ``Ward.floor`` is an int.
_NONCONFORMING = {"op": "set", "sid": 2, "attr": "floor",
                  "value": "notanint", "check": "bogus"}


@pytest.mark.parametrize("cmd", [pytest.param(cmd, id=name) for name, cmd in {
    "txn-ops-5": {"op": "txn", "ops": 5},
    "bulk-rows-5": {"op": "bulk", "rows": 5},
    "bulk-row-5": {"op": "bulk", "rows": [5]},
    "create-values-5": {"op": "create", "cls": "Ward", "values": 5},
    "get-sid-abc": {"op": "get", "sid": "abc"},
    "remove-sid-null": {"op": "remove", "sid": None},
    "set-check-bogus": _NONCONFORMING,
    "txn-set-check-bogus": {"op": "txn", "ops": [_NONCONFORMING]},
    "bulk-check-bogus": {"op": "bulk", "check": "bogus",
                         "rows": [[["Ward"], {"floor": 4, "name": "b"}]]},
    "index-action-bogus": {"op": "index", "attr": "age",
                           "action": "bogus"},
    "validate-scope-bogus": {"op": "validate", "scope": "bogus"},
    "alter-recheck-bogus": {"op": "alter", "schema": EVOLVED_TEXT,
                            "cls": "Convalescent", "recheck": "bogus"},
}.items()])
def test_malformed_request_is_a_typed_storage_error(edges, cmd):
    """A field the row does not allow is refused before anything runs,
    and before a router asks a shard.  These used to be obeyed as
    something else -- a ``check`` other than ``eager`` ran deferred and
    stored the value, a bogus ``action`` built an index, a bogus
    ``scope`` swept everything -- or to escape untyped (``TypeError``,
    ``AttributeError``, ``ValueError``)."""
    _seed(edges)
    router = edges["sharded-2"].backend.router
    sent = router.stats_counters.commands_sent
    for label, edge in edges.items():
        etype, message = _error_type(edge, cmd)
        assert etype == "StorageError", (label, message)
        assert re.match(r"op '\w+' field '\w+' must be ", message), label
    assert router.stats_counters.commands_sent == sent
    for label, edge in edges.items():
        ward = edge.call({"op": "get", "sid": 2})
        assert ward["values"]["floor"] == 1, label
        assert edge.call({"op": "schema"})["schema"] == SCHEMA_TEXT, label


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
    for label in ("concurrent", "sharded-2"):
        with _served(edges[label].backend) as client:
            with pytest.raises(ConformanceError):
                client.create("Patient", {"name": "old", "age": 999})
            # A malformed request is an op error: same connection,
            # next request answered.
            with pytest.raises(StorageError) as net_exc:
                client.call("set", attr="age", value=1)
            assert str(net_exc.value) == "op 'set' requires field 'sid'"
            with pytest.raises(StorageError) as net_exc:
                client.call(None)
            assert type(net_exc.value) is StorageError, label
            assert client.count("Patient") == 1
            assert client.stats()["net.connections_opened"] == 1


def test_a_rejection_crosses_every_edge_as_itself(edges):
    """The same rejected create, in-process, served, sharded and served
    sharded: one type, one message, one ``Violation`` record -- no edge
    prefixes its name or flattens the record to text.  Each edge has
    its own store, seeded alike, so the burnt sid is the same."""
    _seed(edges)
    bad = {"name": "old", "age": 999}
    calls = {
        "in-process": lambda: edges["concurrent"].backend.store.create(
            "Patient", **bad),
        "sharded": lambda: edges["sharded-1"].backend.router.create(
            "Patient", **bad),
    }
    seen = {}
    for label, call in calls.items():
        with pytest.raises(ConformanceError) as caught:
            call()
        seen[label] = caught.value
    for label, edge in (("served", "log"), ("served-sharded", "sharded-2")):
        with _served(edges[edge].backend) as client:
            with pytest.raises(ConformanceError) as caught:
                client.create("Patient", bad)
        seen[label] = caught.value
    reference = seen["in-process"]
    assert reference.violation.value == 999
    assert reference.violation.attribute == "age"
    for label, exc in seen.items():
        assert (type(exc), str(exc), exc.violation, exc.sid) == (
            ConformanceError, str(reference), reference.violation,
            reference.sid), label
    # A routed error also names the shard that refused it.
    assert seen["sharded"].shard_id == 0


def test_a_non_library_exception_arrives_as_a_storage_error(edges):
    """A bug in a worker (anything not a ``ReproError``) arrives as a
    ``StorageError`` whose message names its type -- at the router and
    through the socket."""
    _seed(edges)
    router = edges["sharded-2"].backend.router
    for backend in router._backends:
        honest = backend.server.handle

        def broken(cmd, honest=honest):
            if cmd.get("op") == "count":
                raise KeyError("boom")
            return honest(cmd)
        backend.server.handle = broken
    with pytest.raises(StorageError) as caught:
        router.count("Patient")
    assert (type(caught.value), str(caught.value)) == (
        StorageError, "KeyError: 'boom'")
    with _served(edges["sharded-2"].backend) as client:
        with pytest.raises(StorageError) as caught:
            client.count("Patient")
    assert (type(caught.value), str(caught.value)) == (
        StorageError, "KeyError: 'boom'")


def test_validation_reports_the_same_violation_records():
    """A deferred violation: the router's ``validate_all()`` yields the
    ``Violation`` records the single store's does, and a client's
    ``validate`` carries them encoded."""
    single = ObjectStore(SCHEMA)
    router = ShardedStore(SCHEMA, 2, processes=False)
    try:
        for store in (single, router):
            store.create("Ward", floor=1, name="w")
            store.create("Patient", check="deferred", name="old", age=999)
        local = [(obj.surrogate.id, v) for obj, v in single.validate_all()]
        routed = [(h.surrogate.id, v) for h, v in router.validate_all()]
        assert local and routed == local
        assert local[0][1].value == 999
        with _served(ConcurrentBackend(single)) as client:
            assert client.validate("all")["violations"] == [
                [sid, codec.encode_violation(v)] for sid, v in local]
    finally:
        router.close()


# ----------------------------------------------------------------------
# Wire plans: the reply the op row answered before them, at every edge
# ----------------------------------------------------------------------

WIRE_CLASSES = ("Patient", "Person", "Alcoholic", "Hemorrhaging_Patient",
                "Physician")
WIRE_ATTRIBUTES = ("age", "name", "treatedBy", "bloodPressure", "specialty")
_wire_consts = st.one_of(
    st.sampled_from((30, 41, 78)), st.sampled_from(("p1", "doc")),
    st.sampled_from(("Low_BP", "General")).map(EnumSymbol))
#: Shared query trees (many ill-typed: errors compare by type), plus
#: well-typed per-row and aggregate texts that prune through the index.
_wire_texts = st.one_of(
    query_trees(("p",), WIRE_CLASSES, WIRE_ATTRIBUTES, _wire_consts).map(str),
    st.sampled_from((
        "for p in Patient where p.age = 41 select p.name",
        "for p in Hemorrhaging_Patient where p.age = 30 select p, p.age",
        "for p in Patient select p, p.treatedBy, p.bloodPressure, p.age",
        "for p in Patient where p.age > 35 select count, avg p.age, "
        "min p.name, max p.age, total p.age")))
_wire_options = st.one_of(st.just({}), st.fixed_dictionaries({
    "on_unsafe": st.sampled_from(ON_UNSAFE),
    "eliminate_checks": st.booleans()}))


def _populate(store) -> None:
    """Index on ``age``, two reference entities, twelve patients: plain,
    hemorrhaging, alcoholic (the excuse branch) and without an age."""
    kw = {"broadcast": True} if isinstance(store, ShardedStore) else {}
    store.create_index("age")
    doc = store.create("Physician", name="doc", age=50,
                       specialty=EnumSymbol("General"), **kw)
    psy = store.create("Psychologist", name="psy", age=60,
                       therapyStyle=EnumSymbol("CBT"), **kw)
    rows = []
    for i in range(12):
        values = {"name": f"p{i}", "age": (30, 41, 78)[i % 3],
                  "treatedBy": doc}
        if i % 4 == 1:
            rows.append((("Patient", "Hemorrhaging_Patient"), dict(
                values, bloodPressure=EnumSymbol("Low_BP"))))
        elif i % 4 == 2:
            rows.append((("Alcoholic",), dict(values, treatedBy=psy)))
        else:
            if i % 4 == 3:
                del values["age"]
            rows.append((("Patient",), values))
    store.bulk_load(rows, check="eager")


@pytest.fixture(scope="module")
def wire_edges():
    single, served = ObjectStore(SCHEMA), ObjectStore(SCHEMA)
    router = ShardedStore(SCHEMA, 2, processes=False)
    for store in (single, served, router):
        _populate(store)
    service = StoreService(served)
    service.run_background()
    client = StoreClient(*service.address, timeout=5.0)
    yield {
        "in-process": ConcurrentBackend(single).op_query,
        "served": lambda cmd: client.call(
            "query", text=cmd["text"], options=cmd["options"]),
        "sharded": ShardedBackend(router).op_query,
    }
    client.close()
    service.shutdown()
    router.close()


@contextmanager
def _parent_formulation():
    """The ``query`` row running :func:`reference_query_op` instead."""
    row = OPS["query"]
    wired = row.run
    object.__setattr__(row, "run", reference_query_op)
    try:
        yield
    finally:
        object.__setattr__(row, "run", wired)


def _outcome(call, cmd):
    try:
        return call(cmd)
    except Exception as exc:     # compared by type
        return type(exc).__name__


@settings(max_examples=80, deadline=None)
@given(text=_wire_texts, options=_wire_options)
def test_wire_plans_answer_what_the_rewrite_answered(wire_edges, text,
                                                     options):
    """Replies -- rows, order, all six stats, or the error type -- equal
    the parent's formulation (``Var`` prepended, ``execute_planned``,
    encode) through the same edge."""
    cmd = {"op": "query", "text": text, "options": options}
    for label, call in wire_edges.items():
        wired = _outcome(call, cmd)
        with _parent_formulation():
            assert _outcome(call, cmd) == wired, (label, text, options)


PER_ROW = "for p in Patient where p.age = 41 select p.name, p"
AGGREGATE = "for p in Patient select count, avg p.age"


@pytest.mark.parametrize("text", [PER_ROW, AGGREGATE])
def test_a_repeated_request_is_a_plan_hit_without_parse_or_wrapper(
        monkeypatch, text):
    store = ObjectStore(SCHEMA)
    _populate(store)
    backend = ConcurrentBackend(store)
    parses = []
    monkeypatch.setattr(compiler, "parse_query",
                        lambda t: parses.append(t) or parse_query(t))
    cmd = {"op": "query", "text": text}
    first = backend.op_query(cmd)
    assert parses == [text]             # the miss parses, once
    snap, qstats = store.snapshot(wait=False), store.indexes.qstats
    hits, misses = qstats.plan_hits, qstats.plan_misses
    assert backend.op_query(cmd) == first
    assert (qstats.plan_hits, qstats.plan_misses) == (hits + 1, misses)
    assert parses == [text]
    assert snap._wrappers == {}         # rows never became entities


def test_a_repeated_text_costs_the_router_no_parse_and_no_frozenset(
        monkeypatch):
    router = ShardedStore(SCHEMA, 2, processes=False)
    try:
        _populate(router)
        calls = {"parse": 0, "frozenset": 0}

        def parse(text):
            calls["parse"] += 1
            return parse_query(text)

        def frozen(*args):
            calls["frozenset"] += 1
            return frozenset(*args)

        monkeypatch.setattr(router_module, "parse_query", parse)
        monkeypatch.setattr(router_module, "frozenset", frozen,
                            raising=False)
        first = router.query_wire(AGGREGATE)
        assert calls["parse"] == 1 and calls["frozenset"] > 0
        calls.update(parse=0, frozenset=0)
        assert router.query_wire(AGGREGATE) == first
        assert calls == {"parse": 0, "frozenset": 0}
    finally:
        router.close()
