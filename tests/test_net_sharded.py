"""Sharded stores behind the networked service, fast tier: in-process
shard servers (``processes=False``) over real loopback sockets, so
tier-1 covers the backend seam -- routed writes, scatter-gather reads,
vector epoch tokens, routed-op counters, txn envelope, the alter fence
-- without paying process start-up.  Multi-process equivalence and
property suites live in ``test_net_sharded_properties.py`` under the
``net_sharded`` marker.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    ConformanceError, NoSuchObjectError, ReplicaLagError, StorageError,
    StoreBusyError,
)
from repro.net import tokens as epoch_tokens
from repro.net.backends import ConcurrentBackend, ShardedBackend
from repro.net.client import StoreClient, ref
from repro.net.server import StoreService
from repro.scenarios import build_hospital_schema
from repro.sharding.router import ShardedStore
from repro.storage.recovery import open_store

SCHEMA = build_hospital_schema()
IO_TIMEOUT = 5.0


@pytest.fixture()
def sharded_service():
    store = ShardedStore(SCHEMA, 2, processes=False)
    service = StoreService(store)
    service.run_background()
    yield service, store
    service.shutdown()
    store.close()


@pytest.fixture()
def client(sharded_service):
    service, _ = sharded_service
    c = StoreClient(*service.address, timeout=IO_TIMEOUT)
    yield c
    c.close()


class TestShardedServing:
    def test_hello_and_ping_report_topology(self, client):
        assert client.ping()["shards"] == 2
        assert client.ping()["role"] == "primary"

    def test_crud_round_trip(self, client):
        ack = client.create("Patient", {"name": "ann", "age": 30})
        sid = ack["sid"]
        assert isinstance(ack["token"], dict)
        client.set_value(sid, "age", 31)
        got = client.get(sid)
        assert got["values"]["age"] == 31
        assert got["classes"] == ["Patient"]
        client.classify(sid, "Alcoholic")
        assert "Alcoholic" in client.get(sid)["classes"]
        client.declassify(sid, "Alcoholic")
        client.unset_value(sid, "age")
        assert "age" not in client.get(sid)["values"]
        client.remove(sid)
        assert client.count("Patient") == 0

    def test_get_unrouted_is_typed(self, client):
        with pytest.raises(NoSuchObjectError):
            client.get(10**6)

    def test_broadcast_create_and_refs(self, client):
        doc = client.create("Psychologist",
                            {"name": "dr", "age": 50},
                            broadcast=True)["sid"]
        sid = client.create("Patient", {"name": "fay", "age": 35}
                            )["sid"]
        client.classify(sid, "Alcoholic")
        client.set_value(sid, "treatedBy", ref(doc))
        assert client.get(sid)["values"]["treatedBy"] == doc
        # The excuse machinery holds across shards: a plain Patient
        # treated by a Psychologist is still a conformance error.
        with pytest.raises(ConformanceError) as exc_info:
            client.create("Patient", {"name": "eve", "age": 33,
                                      "treatedBy": ref(doc)})
        assert exc_info.value.violation.value == doc

    def test_scatter_gather_query_and_counters(self, client,
                                               sharded_service):
        # Profile-affinity placement co-locates each profile below the
        # span threshold: plain Patients land on one shard, plain
        # Physicians on the other.
        _, store = sharded_service
        doc = client.create("Physician", {"name": "doc", "age": 21},
                            broadcast=True)["sid"]
        for i in range(4):
            # treatedBy is set on every Patient so the shard map's
            # profile is *total* on it -- the precondition for the
            # deduction-backed refutation below.
            client.create("Patient", {"name": f"p{i}", "age": 20 + i,
                                      "treatedBy": ref(doc)})
        for i in range(4):
            client.create("Physician",
                          {"name": f"d{i}", "age": 40 + i})
        assert client.stats()["net.writes_routed"] == 9

        def deltas(text):
            before = client.stats()
            out = client.query(text)
            after = client.stats()
            return (out,
                    after["net.shards_scattered"]
                    - before["net.shards_scattered"],
                    after["net.shards_pruned"]
                    - before["net.shards_pruned"])

        # Person spans both profiles: full scatter, nothing pruned.
        out, scattered, pruned = deltas(
            "for x in Person where x.age >= 23 select x.name")
        assert sorted(v[0] for _, v in out["rows"]) \
            == ["d0", "d1", "d2", "d3", "p3"]
        assert (scattered, pruned) == (2, 0)
        # Patient-only: one shard dispatched, the other refuted by its
        # shard map before any bytes cross the wire.
        out, scattered, pruned = deltas(
            "for p in Patient where p.age >= 22 select p.name")
        assert sorted(v[0] for _, v in out["rows"]) == ["p2", "p3"]
        assert (scattered, pruned) == (1, 1)
        # Deduction-refuted on every shard: scatters nowhere.
        out, scattered, pruned = deltas(
            "for y in Patient where y.treatedBy not in Physician "
            "and y.treatedBy not in Psychologist select y.name")
        assert out["rows"] == []
        assert (scattered, pruned) == (0, 2)
        assert client.stats()["net.position"] == store.position_token()

    def test_aggregate_queries_merge(self, client):
        for i in range(6):
            client.create("Patient", {"name": f"p{i}", "age": 30 + i})
        out = client.query("for p in Patient select count(p), "
                           "min(p.age), max(p.age), avg(p.age)")
        assert "agg" in out
        count, lo, hi, mean = out["agg"]
        assert (count, lo, hi) == (6, 30, 35)
        assert mean == pytest.approx(32.5)
        assert out["stats"]["rows_returned"] == 1

    def test_vector_token_read_your_writes(self, client):
        acks = [client.create("Patient",
                              {"name": f"t{i}", "age": 20 + i})["token"]
                for i in range(4)]
        merged = {}
        for ack in acks:
            merged = epoch_tokens.merge(merged, ack)
        # A write acked with a vector token is immediately readable
        # via token_wait on that token.
        out = client.token_wait(merged, timeout=IO_TIMEOUT)
        assert epoch_tokens.covers(out["position"], merged)
        for earlier, later in zip(acks, acks[1:]):
            assert epoch_tokens.covers(later, earlier)

    def test_token_wait_future_token_times_out(self, client):
        with pytest.raises(ReplicaLagError) as exc_info:
            client.call("token_wait", token={"0": 10**9}, timeout=0.1)
        assert exc_info.value.token == {"0": 10**9}

    def test_txn_atomic_across_shards(self, client):
        ack = client.txn([
            {"op": "create", "cls": "Ward",
             "values": {"floor": 2, "name": "W1"}},
            {"op": "create", "cls": "Ward",
             "values": {"floor": 3, "name": "W2"}},
        ])
        assert len(ack["created"]) == 2
        before = client.count("Ward")
        with pytest.raises(ConformanceError):
            client.txn([
                {"op": "create", "cls": "Ward",
                 "values": {"floor": 4, "name": "W3"}},
                {"op": "create", "cls": "Patient",
                 "values": {"name": "bad", "age": 999}},
            ])
        assert client.count("Ward") == before    # rolled back

    def test_remove_inside_a_txn(self, client):
        kept, gone = (client.create("Ward", {"floor": 1, "name": name})["sid"]
                      for name in ("kept", "gone"))
        with pytest.raises(ConformanceError):
            client.txn([
                {"op": "remove", "sid": kept},
                {"op": "create", "cls": "Patient",
                 "values": {"name": "bad", "age": 999}},
            ])
        assert client.get(kept)["values"]["name"] == "kept"   # back
        assert client.count("Ward") == 2
        client.txn([{"op": "remove", "sid": gone}])
        assert client.count("Ward") == 1
        with pytest.raises(NoSuchObjectError):
            client.get(gone)

    def test_bulk_alter_index_validate_checkpoint(self, client):
        out = client.bulk([[["Ward"], {"floor": 1 + i, "name": f"B{i}"}]
                           for i in range(6)])
        assert out["objects"] == 6
        assert client.count("Ward") == 6
        client.create_index("floor")
        schema_text = client.schema()
        assert "Ward" in schema_text
        assert client.validate("all")["violations"] == []
        assert client.validate("dirty")["violations"] == []
        # Online alter replicated to every shard, over the wire.
        altered = schema_text.replace(
            "class Ward", "class Ward_unused", 1)
        assert "Ward" in altered       # only sanity: alter uses schema
        ack = client.alter(schema_text, "Ward")
        assert ack["violations"] == []
        client.drop_index("floor")
        # Refused as the in-memory single store refuses it.
        with pytest.raises(StorageError, match="not durable") as refused:
            client.checkpoint()
        assert type(refused.value) is StorageError

    def test_extent_ids_union_all_shards(self, client):
        sids = [client.create("Patient",
                              {"name": f"e{i}", "age": 20})["sid"]
                for i in range(5)]
        assert client.extent_ids("Patient") == sorted(sids)


class TestAlterFence:
    def _blocking_service(self, store_or_backend, release, started):
        service = StoreService(store_or_backend)
        original = service.backend.op_bulk

        def slow_bulk(cmd):
            started.set()
            if not release.wait(timeout=IO_TIMEOUT):
                raise RuntimeError("fence test deadlock")
            return original(cmd)

        service.backend.op_bulk = slow_bulk
        service.run_background()
        return service

    def test_alter_fenced_while_bulk_runs(self, tmp_path):
        """Regression: ``alter`` used to interleave with an in-flight
        executor bulk load; now it is refused with a typed
        ``StoreBusyError`` until the job drains."""
        store = open_store(str(tmp_path / "p"), SCHEMA,
                           durability="wal", sync="group")
        release, started = threading.Event(), threading.Event()
        service = self._blocking_service(store, release, started)
        try:
            c1 = StoreClient(*service.address, timeout=IO_TIMEOUT)
            c2 = StoreClient(*service.address, timeout=IO_TIMEOUT)
            schema_text = c2.schema()
            errors = []

            def run_bulk():
                try:
                    c1.bulk([[["Ward"], {"floor": 1, "name": "w"}]])
                except Exception as exc:          # pragma: no cover
                    errors.append(exc)

            loader = threading.Thread(target=run_bulk)
            loader.start()
            assert started.wait(timeout=IO_TIMEOUT)
            with pytest.raises(StoreBusyError):
                c2.alter(schema_text, "Ward")
            release.set()
            loader.join(timeout=IO_TIMEOUT)
            assert not errors
            assert c2.stats()["net.alter_fences"] == 1
            # Once the bulk drains, the same alter goes through.
            assert c2.alter(schema_text, "Ward")["violations"] == []
            c1.close()
            c2.close()
        finally:
            service.shutdown()
            store.close()

    def test_store_busy_error_is_exported(self):
        assert issubclass(StoreBusyError, Exception)


class TestBackendSeam:
    def test_explicit_backend_construction(self, tmp_path):
        store = open_store(str(tmp_path / "b"), SCHEMA,
                           durability="wal", sync="group")
        backend = ConcurrentBackend(store)
        service = StoreService(backend)
        service.run_background()
        try:
            c = StoreClient(*service.address, timeout=IO_TIMEOUT)
            ack = c.create("Patient", {"name": "x", "age": 30})
            assert epoch_tokens.covers(backend.position(),
                                       ack["token"])
            c.close()
        finally:
            service.shutdown()
            store.close()

    def test_sharded_backend_wraps_router(self):
        router = ShardedStore(SCHEMA, 2, processes=False)
        backend = ShardedBackend(router)
        try:
            out = backend.op_create({"cls": "Patient",
                                     "values": {}, "check": None})
            assert epoch_tokens.covers(backend.position(),
                                       out["token"])
            assert backend.describe() == {"shards": 2}
            assert backend.object_count() == 1
        finally:
            backend.close()
