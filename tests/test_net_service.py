"""End-to-end service tests over real loopback sockets.

One durable primary service, one WAL-shipped replica service, pooled
clients: the full read/write surface (queries, mutations, transactions,
bulk, online alter, indexes), request pipelining, epoch-token
read-your-writes against a lagging replica, the
:class:`~repro.net.client.ReplicaSetClient` routing tier, and the
observability counters the benchmark relies on.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ConformanceError,
    FrameTooLargeError,
    NotPrimaryError,
    ReplicaLagError,
    UnknownClassError,
)
from repro.lang import print_schema
from repro.net import tokens as epoch_tokens
from repro.net.client import ReplicaSetClient, StoreClient, ref
from repro.net.replication import BATCH_RECORDS, NetShipSource, Replica
from repro.net.server import StoreService
from repro.scenarios import build_hospital_schema
from repro.storage.recovery import open_store

from tests.faultfs import store_digest

IO_TIMEOUT = 5.0


@pytest.fixture()
def primary_service(tmp_path):
    store = open_store(str(tmp_path / "primary"),
                       build_hospital_schema(), durability="wal",
                       sync="group")
    service = StoreService(store)
    service.run_background()
    yield service
    service.shutdown()
    store.close()


@pytest.fixture()
def client(primary_service):
    client = StoreClient(*primary_service.address, timeout=IO_TIMEOUT)
    yield client
    client.close()


def _replica_service(primary_service, directory=None, poll=0.01):
    ship_client = StoreClient(*primary_service.address,
                              timeout=IO_TIMEOUT)
    replica = Replica(NetShipSource(ship_client), directory=directory)
    service = StoreService(replica=replica, poll_interval=poll)
    service.run_background()
    return service, replica, ship_client


class TestPrimaryOps:
    def test_crud_round_trip(self, client):
        ack = client.create("Patient", {"name": "ann", "age": 30})
        sid = ack["sid"]
        assert epoch_tokens.token_total(ack["token"]) > 0
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

    def test_query_and_extent(self, client):
        for i in range(4):
            client.create("Patient", {"name": f"p{i}", "age": 20 + i})
        out = client.query(
            "for p in Patient where p.age >= 22 select p.name")
        assert sorted(v[0] for _, v in out["rows"]) == ["p2", "p3"]
        assert out["stats"]["rows_scanned"] == 4
        assert len(client.extent_ids("Patient")) == 4

    def test_conformance_errors_are_typed_and_non_fatal(self, client):
        with pytest.raises(ConformanceError) as exc_info:
            client.create("Patient", {"name": "x", "age": 999})
        assert exc_info.value.violation.value == 999
        with pytest.raises(UnknownClassError) as exc_info:
            client.create("NoSuchClass", {})
        assert exc_info.value.name == "NoSuchClass"
        # The connection (and server) survive op failures.
        assert client.ping()["role"] == "primary"

    def test_entity_refs_and_excuse_semantics(self, client):
        """The paper's excuse flow end-to-end over the wire: entity
        references travel as ``ref(sid)``, a plain Patient treated by
        a Psychologist is rejected, the Alcoholic excuse admits it,
        and declassifying the excusing class is rejected intact."""
        psy = client.create("Psychologist",
                            {"name": "dr", "age": 50})["sid"]
        with pytest.raises(ConformanceError) as exc_info:
            client.create("Patient", {"name": "eve", "age": 33,
                                      "treatedBy": ref(psy)})
        # The offending entity arrives as its surrogate id.
        assert exc_info.value.violation.value == psy
        sid = client.create("Patient", {"name": "fay", "age": 35}
                            )["sid"]
        client.classify(sid, "Alcoholic")
        client.set_value(sid, "treatedBy", ref(psy))
        assert client.get(sid)["values"]["treatedBy"] == psy
        with pytest.raises(ConformanceError):
            client.declassify(sid, "Alcoholic")
        got = client.get(sid)
        assert sorted(got["classes"]) == ["Alcoholic", "Patient"]
        # Refs work inside transactions too (atomic on rejection).
        with pytest.raises(ConformanceError):
            client.txn([
                {"op": "create", "cls": "Patient",
                 "values": {"name": "gil", "age": 30,
                            "treatedBy": ref(psy)}},
            ])
        assert client.count("Patient") == 1

    def test_txn_atomicity(self, client):
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

    def test_bulk_alter_index_validate(self, client):
        client.bulk([[["Ward"], {"floor": 1 + i, "name": f"B{i}"}]
                     for i in range(5)])
        assert client.count("Ward") == 5
        client.create_index("floor")
        schema_text = client.schema()
        assert "Ward" in schema_text
        out = client.validate("all")
        assert out["violations"] == []
        client.drop_index("floor")

    def test_pipelining_preserves_order(self, client):
        requests = [{"op": "create", "cls": "Ward",
                     "values": {"floor": 1 + i, "name": f"P{i}"}}
                    for i in range(8)]
        requests.append({"op": "count", "cls": "Ward"})
        results = client.pipeline(requests)
        sids = [r["sid"] for r in results[:8]]
        assert sids == sorted(sids)
        assert results[8]["count"] >= 8

    def test_pipeline_carries_op_errors_in_slot(self, client):
        results = client.pipeline([
            {"op": "create", "cls": "Ward",
             "values": {"floor": 1, "name": "ok"}},
            {"op": "create", "cls": "Nope", "values": {}},
            {"op": "count", "cls": "Ward"},
        ])
        assert "sid" in results[0]
        assert isinstance(results[1], UnknownClassError)
        assert results[2]["count"] >= 1

    def test_an_oversize_reply_is_a_typed_error_not_a_dead_connection(
            self, tmp_path):
        """A reply over the frame limit would make the client's decoder
        lose the stream; the server answers the same request with the
        typed ``FrameTooLargeError`` instead, and the connection lives."""
        store = open_store(str(tmp_path / "primary"),
                           build_hospital_schema())
        service = StoreService(store, max_frame=4096)
        service.run_background()
        client = StoreClient(*service.address, timeout=IO_TIMEOUT,
                             max_frame=4096)
        try:
            client.pipeline([{"op": "create", "cls": "Ward",
                              "values": {"floor": 1, "name": "w" * 60}}
                             for _ in range(80)])
            with pytest.raises(FrameTooLargeError) as caught:
                client.query("for w in Ward select w.name")
            assert caught.value.limit == 4096
            assert caught.value.length > 4096
            assert client.count("Ward") == 80
            assert service.stats.connections_opened == 1
        finally:
            client.close()
            service.shutdown()
            store.close()

    def test_tokens_are_monotonic(self, client):
        tokens = [client.create("Ward",
                                {"floor": 1 + i, "name": f"T{i}"}
                                )["token"]
                  for i in range(4)]
        # Vector tokens: each ack covers every earlier one, and the
        # scalar gauges strictly advance (four distinct commits).
        for earlier, later in zip(tokens, tokens[1:]):
            assert epoch_tokens.covers(later, earlier)
            assert not epoch_tokens.covers(earlier, later)
        totals = [epoch_tokens.token_total(t) for t in tokens]
        assert totals == sorted(totals)
        assert len(set(totals)) == 4


class TestReplicaServing:
    def test_replica_serves_reads_refuses_writes(self, primary_service,
                                                 client):
        ack = client.create("Patient", {"name": "ann", "age": 30})
        service, replica, ship = _replica_service(primary_service)
        try:
            rclient = StoreClient(*service.address, timeout=IO_TIMEOUT)
            rclient.token_wait(ack["token"], timeout=IO_TIMEOUT)
            assert rclient.count("Patient", token=ack["token"]) == 1
            assert rclient.ping()["role"] == "replica"
            with pytest.raises(NotPrimaryError):
                rclient.create("Ward", {"floor": 1, "name": "x"})
            rclient.close()
        finally:
            service.shutdown()
            replica.close()
            ship.close()

    def test_read_your_writes_token_gate(self, primary_service,
                                         client):
        # poll=None disables the background pull, freezing the replica
        # so the lag window is deterministic.
        service, replica, ship = _replica_service(primary_service,
                                                  poll=None)
        try:
            rclient = StoreClient(*service.address, timeout=IO_TIMEOUT)
            ack = client.create("Patient", {"name": "zoe", "age": 44})
            with pytest.raises(ReplicaLagError) as exc_info:
                rclient.count("Patient", token=ack["token"])
            assert exc_info.value.token == ack["token"]
            # Untokened reads serve the stale epoch (monotonic, never
            # failing) ...
            assert rclient.count("Patient") == 0
            # ... and once the replica replays, the token admits.
            replica.sync()
            assert rclient.count("Patient",
                                 token=ack["token"]) == 1
            rclient.close()
        finally:
            service.shutdown()
            replica.close()
            ship.close()

    def test_replica_digest_matches_primary(self, primary_service,
                                            client, tmp_path):
        for i in range(6):
            client.create("Patient", {"name": f"p{i}", "age": 20 + i})
        ack = client.txn([{"op": "create", "cls": "Ward",
                           "values": {"floor": 1, "name": "w"}}])
        service, replica, ship = _replica_service(
            primary_service, directory=str(tmp_path / "replica"))
        try:
            rclient = StoreClient(*service.address, timeout=IO_TIMEOUT)
            rclient.token_wait(ack["token"], timeout=IO_TIMEOUT)
            primary_store = primary_service._store
            assert store_digest(replica.store) == \
                store_digest(primary_store)
            assert print_schema(replica.store.schema) == \
                print_schema(primary_store.schema)
            rclient.close()
        finally:
            service.shutdown()
            replica.close()
            ship.close()

    def test_fetch_is_clamped_to_one_batch(self, primary_service, client):
        """A ``repl_fetch`` asking for 10**6 records gets at most
        ``BATCH_RECORDS`` of them; a replica pulling with a larger
        ``batch_records`` still catches up, one batch per round."""
        ship = StoreClient(*primary_service.address, timeout=IO_TIMEOUT)
        replica = Replica(NetShipSource(ship))
        try:
            writes = BATCH_RECORDS + 8
            for i in range(writes):
                client.create("Ward", {"floor": 1 + i % 40,
                                       "name": f"w{i}"})
            reply = client.call("repl_fetch", after_seq=0,
                                max_records=10 ** 6)
            assert len(reply["records"]) == BATCH_RECORDS
            assert replica.sync(batch_records=10 ** 6) == writes
            assert replica.stats.sync_rounds == 2
            assert store_digest(replica.store) == \
                store_digest(primary_service._store)
        finally:
            replica.close()
            ship.close()

    def test_replica_set_client_routing(self, primary_service, client):
        service, replica, ship = _replica_service(primary_service)
        try:
            rs = ReplicaSetClient(
                StoreClient(*primary_service.address,
                            timeout=IO_TIMEOUT),
                [StoreClient(*service.address, timeout=IO_TIMEOUT)])
            ack = rs.create("Patient", {"name": "ann", "age": 30})
            assert rs.last_token == ack["token"]
            # Read-your-writes through the routing tier: the replica
            # either serves at the token or the read falls back to the
            # primary -- the count is correct immediately either way.
            assert rs.count("Patient") == 1
            rs.wait_all(timeout=IO_TIMEOUT)
            assert rs.count("Patient") == 1
            rs.close()
        finally:
            service.shutdown()
            replica.close()
            ship.close()

    def test_replica_set_client_covers_every_write(self,
                                                   primary_service):
        """Regression (drift 3): bulk / alter / index / validate /
        checkpoint had no ``ReplicaSetClient`` stub, so their ack
        tokens were never merged and a replica read right after
        ``primary.bulk()`` carried a stale token."""
        service, replica, ship = _replica_service(primary_service,
                                                  poll=0)
        try:
            rs = ReplicaSetClient(
                StoreClient(*primary_service.address,
                            timeout=IO_TIMEOUT),
                [StoreClient(*service.address, timeout=IO_TIMEOUT)])
            ack = rs.bulk([[["Ward"], {"floor": 1 + i, "name": f"w{i}"}]
                           for i in range(5)])
            assert ack["objects"] == 5
            assert rs.last_token == ack["token"]
            # The replica is not pulling (poll=0), so it is provably
            # behind the bulk: the read carries the merged token, the
            # replica answers lag, and the fallback serves the rows.
            with pytest.raises(ReplicaLagError):
                rs.replicas[0].count("Ward", token=rs.last_token)
            assert rs.count("Ward") == 5
            for write in (lambda: rs.create_index("floor"),
                          lambda: rs.validate("dirty"),
                          lambda: rs.alter(rs.schema(), "Ward"),
                          lambda: rs.drop_index("floor"),
                          lambda: rs.checkpoint()):
                ack = write()
                assert epoch_tokens.covers(rs.last_token, ack["token"])
            replica.sync()
            rs.wait_all(timeout=IO_TIMEOUT)
            assert rs.count("Ward") == 5
            rs.close()
        finally:
            service.shutdown()
            replica.close()
            ship.close()

    def test_dump_pages_past_frame_limit(self, tmp_path):
        """A catch-up dump larger than one frame ships as pages behind
        a ``dump_id`` cursor; a replica reassembles and bootstraps.
        Regression: the dump used to travel as a single frame, so any
        store whose dump JSON exceeded the frame ceiling could never
        bootstrap a replica."""
        store = open_store(str(tmp_path / "primary"),
                           build_hospital_schema(), durability="wal",
                           sync="group")
        service = StoreService(store, max_frame=4096)
        service.run_background()
        try:
            client = StoreClient(*service.address, timeout=IO_TIMEOUT)
            for i in range(40):
                client.create("Patient", {"name": f"patient-{i:03d}",
                                          "age": 20 + i % 60})
            # The dump exceeds one chunk (max_frame // 4) ...
            page = client.call("repl_dump")
            assert page["size"] > len(page["chunk"])
            assert not page["eof"]
            # ... and the replica walks the cursor to an identical
            # store.
            ship = StoreClient(*service.address, timeout=IO_TIMEOUT)
            replica = Replica(NetShipSource(ship))
            try:
                assert store_digest(replica.store) == \
                    store_digest(store)
            finally:
                replica.close()
                ship.close()
                client.close()
        finally:
            service.shutdown()
            store.close()

    def test_rebootstrap_refreshes_served_store(self, primary_service,
                                                client):
        """After a stale-rotation re-bootstrap swaps in a fresh store,
        every handler must follow the swap.  Regression: the service
        captured ``replica.store`` at construction, so ping/schema/
        stats kept reading the closed pre-bootstrap store forever."""
        service, replica, ship = _replica_service(primary_service,
                                                  poll=None)
        try:
            rclient = StoreClient(*service.address, timeout=IO_TIMEOUT)
            client.create("Patient", {"name": "one", "age": 30})
            replica.sync()
            assert rclient.ping()["objects"] == 1
            # Advance the primary past the replica, then rotate its
            # WAL: the replica's next fetch is stale and re-bootstraps.
            client.create("Patient", {"name": "two", "age": 31})
            ack = client.create("Patient", {"name": "three", "age": 32})
            client.checkpoint()
            replica.sync()
            assert replica.stats.stale_restarts >= 1
            assert service._store is replica.store
            out = rclient.ping()
            assert out["objects"] == 3
            assert out["seq"] == epoch_tokens.token_seq(ack["token"])
            rclient.close()
        finally:
            service.shutdown()
            replica.close()
            ship.close()

    def test_sync_failures_surface_in_stats(self, tmp_path):
        """A failing background pull is counted, not swallowed: the
        replica's ``sync_failures`` climbs while the primary is
        unreachable, and transient unavailability leaves the endpoint
        healthy (only permanent divergence marks a fault)."""
        import time
        store = open_store(str(tmp_path / "primary"),
                           build_hospital_schema(), durability="wal",
                           sync="group")
        pservice = StoreService(store)
        pservice.run_background()
        service = replica = ship = rclient = None
        try:
            service, replica, ship = _replica_service(pservice,
                                                      poll=0.01)
            rclient = StoreClient(*service.address, timeout=IO_TIMEOUT)
            assert rclient.ping()["healthy"] is True
            pservice.shutdown()
            deadline = time.monotonic() + IO_TIMEOUT
            while (replica.stats.sync_failures == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert replica.stats.sync_failures >= 1
            assert rclient.stats()["repl.sync_failures"] >= 1
            assert rclient.ping()["healthy"] is True
        finally:
            if rclient is not None:
                rclient.close()
            if service is not None:
                service.shutdown()
            if replica is not None:
                replica.close()
            if ship is not None:
                ship.close()
            pservice.shutdown()
            store.close()

    def test_counters_track_service_traffic(self, primary_service,
                                            client):
        client.create("Ward", {"floor": 1, "name": "w"})
        client.count("Ward")
        stats = client.stats()
        assert stats["net.requests_served"] >= 2
        assert stats["net.writes_served"] >= 1
        assert stats["net.reads_served"] >= 1
        assert stats["net.frames_in"] >= 2
        assert stats["net.bytes_in"] > 0
        assert stats["net.bytes_out"] > 0
        service, replica, ship = _replica_service(primary_service)
        try:
            rclient = StoreClient(*service.address, timeout=IO_TIMEOUT)
            status = rclient.repl_status()
            assert status["applied_seq"] >= 1
            rstats = rclient.stats()
            assert rstats["repl.bootstraps"] == 1
            assert rstats["net.role"] == "replica"
            # The primary counted the dump + ship traffic.
            pstats = client.stats()
            assert pstats["net.dumps_served"] >= 1
            rclient.close()
        finally:
            service.shutdown()
            replica.close()
            ship.close()


class TestClientRobustness:
    def test_retry_reconnects_after_service_restart(self,
                                                    primary_service):
        client = StoreClient(*primary_service.address,
                             timeout=IO_TIMEOUT, retries=2)
        assert client.ping()["role"] == "primary"
        # Poison the pooled connection from the client side; the next
        # idempotent call retries on a fresh connection.
        with client._lock:
            for conn in client._pool:
                conn.sock.close()
        assert client.ping()["role"] == "primary"
        client.close()

    def test_timeout_is_bounded(self, primary_service):
        client = StoreClient(*primary_service.address, timeout=0.5,
                             retries=0)
        # token_wait blocks server-side until the deadline; client and
        # server timeouts compose without hanging.
        import time
        start = time.monotonic()
        with pytest.raises(Exception):
            client.call("token_wait", token=10**9, timeout=0.1)
        assert time.monotonic() - start < IO_TIMEOUT
        client.close()
