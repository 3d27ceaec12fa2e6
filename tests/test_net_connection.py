"""The connection discipline of ``net/server.py``, over real sockets.

One ``asyncio.BufferedProtocol`` per connection serves every complete
frame already buffered, in order; a request that leaves the event loop
holds the connection's later frames back; a peer that stops reading
stops being read; ``idle_timeout`` cuts idle peers only; ``shutdown``
closes what it accepted; ``token_wait`` is woken, not polled.  The
client half: a failed hello never leaks its socket.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.errors import (
    ConnectionLostError,
    FrameTruncatedError,
    ReplicaLagError,
    RequestTimeoutError,
)
from repro.net import server as server_module
from repro.net import tokens
from repro.net.client import Connection, StoreClient
from repro.net.protocol import FrameDecoder, encode_frame
from repro.net.server import StoreService
from repro.objects.store import ObjectStore
from repro.scenarios import build_hospital_schema

IO_TIMEOUT = 5.0


def _service(**kwargs):
    service = StoreService(ObjectStore(build_hospital_schema()), **kwargs)
    service.run_background()
    return service


@pytest.fixture()
def service():
    service = _service()
    yield service
    service.shutdown()


@pytest.fixture()
def client(service):
    client = StoreClient(*service.address, timeout=IO_TIMEOUT)
    yield client
    client.close()


def _until(condition, timeout=IO_TIMEOUT):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _wards(n, prefix="w"):
    return [[["Ward"], {"floor": 1 + i % 40, "name": f"{prefix}{i}"}]
            for i in range(n)]


def _hold(service, op):
    """Make ``op`` park on its executor thread: returns ``(entered,
    release)`` events."""
    entered, release = threading.Event(), threading.Event()
    handler = getattr(service.backend, "op_" + op)

    def held(cmd):
        entered.set()
        assert release.wait(IO_TIMEOUT)
        return handler(cmd)

    setattr(service.backend, "op_" + op, held)
    return entered, release


# ----------------------------------------------------------------------
# Order: an off-loop request holds later frames, not other connections
# ----------------------------------------------------------------------

def test_pipeline_keeps_order_across_an_offloaded_request(service, client):
    first = client.create("Ward", {"floor": 1, "name": "first"})["sid"]
    entered, release = _hold(service, "bulk")
    results = []
    worker = threading.Thread(target=lambda: results.extend(
        client.pipeline([
            {"op": "bulk", "rows": _wards(10)},
            {"op": "get", "sid": first},
            {"op": "create", "cls": "Ward",
             "values": {"floor": 2, "name": "last"}},
            {"op": "count", "cls": "Ward"}])))
    worker.start()
    try:
        assert entered.wait(IO_TIMEOUT)
        served = service.stats.requests_served
        other = StoreClient(*service.address, timeout=IO_TIMEOUT)
        assert other.ping()["objects"] == 1      # served during the bulk
        other.close()
        # ... while the pipeline's later frames are held back.
        assert service.stats.requests_served == served + 1
    finally:
        release.set()
        worker.join(IO_TIMEOUT)
    bulk, get, create, count = results
    assert bulk["objects"] == 10
    assert get["values"]["name"] == "first"
    assert create["sid"] > first
    assert count["count"] == 12                  # bulk, then create


# ----------------------------------------------------------------------
# Framing: any split, any batching, exact counters
# ----------------------------------------------------------------------

def _raw(service):
    sock = socket.create_connection(service.address, timeout=IO_TIMEOUT)
    decoder = FrameDecoder()
    assert _next(sock, decoder)["proto"] == "repro-net"
    return sock, decoder


def _next(sock, decoder):
    while True:
        message = decoder.next_message()
        if message is not None:
            return message
        chunk = sock.recv(1 << 16)
        assert chunk, "server closed the connection"
        decoder.feed(chunk)


def test_frames_split_at_every_byte_and_batched_in_one_send(service):
    sock, decoder = _raw(service)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    stats = service.stats
    before = (stats.frames_in, stats.frames_out, stats.bytes_in)
    sent = frames = 0
    try:
        frame = encode_frame({"op": "count", "cls": "Ward", "id": 0})
        for cut in range(1, len(frame)):
            frame = encode_frame({"op": "count", "cls": "Ward",
                                  "id": cut})
            sock.sendall(frame[:cut])
            time.sleep(0.001)                    # two reads, not one
            sock.sendall(frame[cut:])
            assert _next(sock, decoder) == {"id": cut,
                                            "ok": {"count": 0}}
            sent += len(frame)
            frames += 1
        batch = b"".join(encode_frame({"op": "ping", "id": 1000 + i})
                         for i in range(200))
        sock.sendall(batch)
        assert [_next(sock, decoder)["id"] for _ in range(200)] == [
            1000 + i for i in range(200)]
        sent += len(batch)
        frames += 200
    finally:
        sock.close()
    assert (stats.frames_in, stats.frames_out, stats.bytes_in) == (
        before[0] + frames, before[1] + frames, before[2] + sent)


# ----------------------------------------------------------------------
# Backpressure: a peer that never reads stops being read
# ----------------------------------------------------------------------

def test_unread_replies_stall_only_their_own_connection(service, client):
    client.bulk(_wards(1500))
    text = "for w in Ward select w.name, w.floor"
    reply = len(encode_frame({"id": 1, "ok": client.query(text)}))
    assert reply > 20_000
    sock = socket.socket()
    # A small receive window, so the kernel cannot absorb the replies.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(IO_TIMEOUT)
    sock.connect(service.address)
    sock.setblocking(False)
    request = encode_frame({"op": "query", "text": text, "id": 7})
    n_sent, read_before = 0, service.stats.bytes_in
    try:
        for _ in range(3000):                    # ~3000 x reply bytes
            try:
                n_sent += sock.send(request) == len(request)
            except BlockingIOError:
                break
        stats = service.stats

        def stalled():
            seen = stats.requests_served
            time.sleep(0.1)
            return stats.requests_served == seen
        _until(stalled)
        assert stats.requests_served < n_sent    # it stopped serving
        assert stats.bytes_in - read_before < n_sent * len(request)
        buffered = max(connection.transport.get_write_buffer_size()
                       for connection in list(service._connections))
        assert buffered <= 2 * server_module.WRITE_HIGH + 2 * reply
        assert client.ping()["role"] == "primary"    # others stay live
        assert client.count("Ward") == 1500
    finally:
        sock.close()
    _until(lambda: len(service._connections) <= 1)


# ----------------------------------------------------------------------
# Lifecycle: shutdown closes what it accepted; idle_timeout cuts idlers
# ----------------------------------------------------------------------

def test_shutdown_closes_idle_torn_and_parked_connections():
    service = _service()
    stopped = False
    idle, torn, parked = (Connection(*service.address,
                                     timeout=IO_TIMEOUT)
                          for _ in range(3))
    try:
        torn.sock.sendall(encode_frame({"op": "ping", "id": 1})[:7])
        parked.send({"op": "token_wait", "token": 10 ** 9,
                     "timeout": 30, "id": 2})
        _until(lambda: len(service._waiters) == 1
               and service.stats.bytes_in >= 7)
        start = time.monotonic()
        service.shutdown()
        stopped = True
        assert time.monotonic() - start < 1.0
        for connection in (idle, torn, parked):
            with pytest.raises(ConnectionLostError):
                connection.recv()
        assert not service._connections
        assert (service.stats.connections_closed
                == service.stats.connections_opened == 3)
    finally:
        for connection in (idle, torn, parked):
            connection.close()
        if not stopped:
            service.shutdown()


def _closed_after(sock, decoder):
    """Seconds until the server closes ``sock`` (nothing else arrives)."""
    start = time.monotonic()
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            decoder.feed(chunk)
    except ConnectionError:
        pass
    return time.monotonic() - start


def test_idle_timeout_cuts_silent_and_stalled_peers_only():
    service = _service(idle_timeout=0.5)
    try:
        # A silent peer.
        sock, decoder = _raw(service)
        assert 0.3 < _closed_after(sock, decoder) < 2.0
        sock.close()
        # A peer stalled mid-frame: the partial frame does not re-arm.
        sock, decoder = _raw(service)
        start = time.monotonic()
        time.sleep(0.35)
        sock.sendall(encode_frame({"op": "ping", "id": 1})[:9])
        _closed_after(sock, decoder)
        assert time.monotonic() - start < 0.8    # 0.5, not 0.35 + 0.5
        sock.close()
        # Complete frames re-arm it; a running request suspends it.
        conn = Connection(*service.address, timeout=IO_TIMEOUT)
        for i in range(4):
            time.sleep(0.2)
            conn.send({"op": "ping", "id": i})
            assert conn.recv(i)["ok"]["role"] == "primary"
        conn.send({"op": "token_wait", "token": 10 ** 9,
                   "timeout": 0.9, "id": 9})
        assert conn.recv(9)["error"]["type"] == "ReplicaLagError"
        entered, release = _hold(service, "checkpoint")
        conn.send({"op": "checkpoint", "id": 10})
        assert entered.wait(IO_TIMEOUT)
        time.sleep(0.7)
        release.set()
        assert conn.recv(10)["id"] == 10
        # ... and idle again, it is cut.
        with pytest.raises(ConnectionLostError):
            conn.recv()
        conn.close()
    finally:
        service.shutdown()


# ----------------------------------------------------------------------
# token_wait: woken by writes, re-checked coarsely, clamped
# ----------------------------------------------------------------------

def _next_position(client):
    """A token the next write reaches and nothing so far covers."""
    token = client.create("Ward", {"floor": 1, "name": "seed"})["token"]
    return {shard: seq + 1 for shard, seq in token.items()}


def test_one_write_releases_every_parked_token_wait(service, client,
                                                    monkeypatch):
    # No coarse re-check can release them: only the wake-up can.
    monkeypatch.setattr(server_module, "TOKEN_RECHECK", 30.0)
    token = _next_position(client)
    n, done, errors = 50, [], []

    def wait():
        waiter = StoreClient(*service.address, timeout=IO_TIMEOUT)
        try:
            done.append(waiter.token_wait(token, timeout=IO_TIMEOUT))
        except Exception as exc:          # pragma: no cover
            errors.append(exc)
        finally:
            waiter.close()

    threads = [threading.Thread(target=wait) for _ in range(n)]
    for thread in threads:
        thread.start()
    _until(lambda: len(service._waiters) == n)
    assert not done
    start = time.monotonic()
    client.create("Ward", {"floor": 1, "name": "wake"})
    for thread in threads:
        thread.join(IO_TIMEOUT)
    assert not errors and len(done) == n
    assert time.monotonic() - start < 2.0
    assert service.stats.token_waits == n
    assert not service._waiters


def test_token_wait_sees_a_write_made_behind_the_service(service, client):
    token = _next_position(client)
    done = []
    thread = threading.Thread(target=lambda: done.append(
        client.token_wait(token, timeout=IO_TIMEOUT)))
    thread.start()
    _until(lambda: len(service._waiters) == 1)
    service.concurrent.create("Ward", floor=1, name="embedder")
    thread.join(IO_TIMEOUT)
    assert done and tokens.covers(done[0]["position"], token)


def test_token_wait_timeout_is_clamped(service, client, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_TOKEN_WAIT", 0.2)
    start = time.monotonic()
    with pytest.raises(ReplicaLagError):
        client.token_wait(10 ** 9, timeout=10 ** 6)
    assert time.monotonic() - start < 2.0
    assert service.stats.token_wait_timeouts == 1


# ----------------------------------------------------------------------
# Client: a failed hello closes its socket
# ----------------------------------------------------------------------

@pytest.mark.parametrize("hello, error", [
    (None, RequestTimeoutError),                 # accepts, says nothing
    (encode_frame({"proto": "repro-net"})[:-3], FrameTruncatedError),
])
def test_failed_hello_closes_the_socket(monkeypatch, hello, error):
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    made = []
    connect = socket.create_connection

    def recording(*args, **kwargs):
        made.append(connect(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(socket, "create_connection", recording)
    accepted = []

    def accept():
        peer, _ = listener.accept()
        accepted.append(peer)
        if hello is not None:
            peer.sendall(hello)
            peer.close()

    thread = threading.Thread(target=accept)
    thread.start()
    try:
        with pytest.raises(error):
            Connection(*listener.getsockname(), timeout=0.3)
        assert len(made) == 1 and made[0].fileno() == -1
    finally:
        thread.join(IO_TIMEOUT)
        for sock in accepted + [listener]:
            sock.close()
