"""Sustained-load stress for the networked service (CI `net` job).

Loopback-only, multi-threaded clients against live services: write
storms with concurrent snapshot readers, replica convergence under
sustained mutation, connection churn, and deep pipelines.  These run
longer than tier-1 allows, so the whole module carries the ``net``
marker (``pytest -m net``).
"""

from __future__ import annotations

import threading

import pytest

from repro.net.client import ReplicaSetClient, StoreClient
from repro.net.replication import NetShipSource, Replica
from repro.net.server import StoreService
from repro.scenarios import build_hospital_schema
from repro.storage.recovery import open_store

from tests.faultfs import store_digest

pytestmark = pytest.mark.net

IO_TIMEOUT = 15.0


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


def _client(service):
    return StoreClient(*service.address, timeout=IO_TIMEOUT)


def test_concurrent_writers_and_readers(primary_service):
    """4 writer threads x 50 creates race 4 reader threads; every
    write lands exactly once and no read ever errors or tears."""
    n_writers, n_per = 4, 50
    errors = []

    def write(worker):
        client = _client(primary_service)
        try:
            for i in range(n_per):
                client.create("Ward", {"floor": 1 + (i % 40),
                                       "name": f"w{worker}-{i}"})
        except Exception as exc:       # pragma: no cover
            errors.append(exc)
        finally:
            client.close()

    stop = threading.Event()

    def read():
        client = _client(primary_service)
        try:
            last = 0
            while not stop.is_set():
                count = client.count("Ward")
                assert count >= last   # snapshots are monotonic
                last = count
        except Exception as exc:       # pragma: no cover
            errors.append(exc)
        finally:
            client.close()

    readers = [threading.Thread(target=read) for _ in range(4)]
    writers = [threading.Thread(target=write, args=(w,))
               for w in range(n_writers)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    for thread in readers:
        thread.join()
    assert not errors
    client = _client(primary_service)
    assert client.count("Ward") == n_writers * n_per
    client.close()


def test_replicas_converge_under_sustained_writes(primary_service,
                                                  tmp_path):
    """Two replicas pull while 200 writes stream in; both converge to
    the primary's digest and the epoch-token barrier holds."""
    services = []
    replicas = []
    ships = []
    try:
        for i in range(2):
            ship = _client(primary_service)
            replica = Replica(
                NetShipSource(ship),
                directory=str(tmp_path / f"replica{i}"))
            service = StoreService(replica=replica, poll_interval=0.01)
            service.run_background()
            services.append(service)
            replicas.append(replica)
            ships.append(ship)

        rs = ReplicaSetClient(
            _client(primary_service),
            [_client(s) for s in services])
        for i in range(200):
            if i % 10 == 9:
                rs.txn([{"op": "create", "cls": "Patient",
                         "values": {"name": f"t{i}", "age": 30}}])
            else:
                rs.create("Ward", {"floor": 1 + (i % 40),
                                   "name": f"w{i}"})
        rs.wait_all(timeout=IO_TIMEOUT)
        primary_store = primary_service._store
        for replica in replicas:
            assert store_digest(replica.store) == \
                store_digest(primary_store)
            # No sequence gap, no stale re-bootstrap under the burst.
            assert (replica.stats.gaps_detected,
                    replica.stats.stale_restarts) == (0, 0)
        status = [c.repl_status() for c in rs.replicas]
        assert all(s["lag"] == 0 for s in status)
        rs.close()
    finally:
        for service in services:
            service.shutdown()
        for replica in replicas:
            replica.close()
        for ship in ships:
            ship.close()


def test_connection_churn(primary_service):
    """300 connect/request/disconnect cycles across threads: no leaks
    of server request capacity, counters stay coherent."""
    def churn():
        for _ in range(100):
            client = StoreClient(*primary_service.address,
                                 timeout=IO_TIMEOUT, pool_size=0)
            assert client.ping()["role"] == "primary"
            client.close()

    threads = [threading.Thread(target=churn) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = primary_service.stats
    assert stats.connections_opened >= 300
    # Every churned connection is torn down server-side too; the last
    # close is asynchronous to the client's, so allow it a moment.
    import time
    deadline = time.monotonic() + 5.0
    while (stats.connections_closed < 300
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert stats.connections_closed >= 300
    assert stats.protocol_errors == 0


def test_deep_pipeline(primary_service):
    """A 500-request pipeline on one connection answers in order."""
    client = _client(primary_service)
    requests = [{"op": "create", "cls": "Ward",
                 "values": {"floor": 1 + (i % 40), "name": f"p{i}"}}
                for i in range(500)]
    results = client.pipeline(requests)
    sids = [r["sid"] for r in results]
    assert sids == sorted(sids)
    assert len(set(sids)) == 500
    assert client.count("Ward") == 500
    client.close()
