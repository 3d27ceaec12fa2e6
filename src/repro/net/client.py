"""The client side: pooled blocking connections, timeouts, bounded
retry, and replica-set routing.

:class:`StoreClient` talks to one endpoint.  It keeps a small pool of
connections (each one request outstanding when checked out, so
responses pair with requests positionally), applies a per-request
timeout, and retries **reads only** -- a write retried across a
connection failure could double-apply, so connection loss mid-write
surfaces as :class:`~repro.errors.ConnectionLostError` for the caller
to reconcile (the ``txn`` op plus an idempotent probe is the usual
recipe).  :meth:`StoreClient.pipeline` sends a batch of requests
before reading any response -- the protocol's pipelining right.

:class:`ReplicaSetClient` is the routing tier the benchmark and the
read-your-writes tests use: writes go to the primary and record the
returned epoch token; reads round-robin across replicas carrying that
token, so a replica that has not replayed your write yet answers
:class:`~repro.errors.ReplicaLagError` and the read falls back to the
primary (monotonic read-your-writes without blocking the replica).

Typed remote errors: an ``{"error": ...}`` response re-raises as the
server's own exception (:func:`repro.codec.decode_error`: same class,
message and fields; entity values as surrogate ids); a ``fatal`` frame
(the server rejected our framing) raises its
:class:`~repro.errors.ProtocolError` and poisons the connection.
"""

from __future__ import annotations

import itertools
import socket
import threading
from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    NetError,
    ProtocolError,
    ReplicaLagError,
    ReproError,
    RequestTimeoutError,
)
from repro import codec
from repro.codec import ref
from repro.net import protocol, tokens
from repro.ops import IDEMPOTENT, OPS, request
from repro.sharding import wire

__all__ = ["Connection", "ReplicaSetClient", "StoreClient", "ref"]


DEFAULT_TIMEOUT = 5.0
DEFAULT_POOL = 2
DEFAULT_RETRIES = 2


class Connection:
    """One blocking socket speaking the framed protocol.

    The server talks first: the constructor reads and validates the
    hello frame, so connecting to the wrong port fails immediately
    with a typed error instead of deadlocking two listeners.
    """

    def __init__(self, host: str, port: int,
                 timeout: float = DEFAULT_TIMEOUT,
                 max_frame: int = protocol.MAX_FRAME) -> None:
        try:
            self.sock = socket.create_connection((host, port),
                                                 timeout=timeout)
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot connect to {host}:{port}: {exc}") from exc
        self.sock.settimeout(timeout)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP,
                                 socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self.decoder = protocol.FrameDecoder(max_frame)
        self.alive = True
        try:
            self.hello = self.recv()
            if self.hello.get("proto") != protocol.PROTO_NAME:
                raise ProtocolError(
                    f"peer at {host}:{port} is not a repro-net server "
                    f"(hello: {self.hello!r})")
            if self.hello.get("version") != protocol.PROTO_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: server speaks "
                    f"{self.hello.get('version')}, client speaks "
                    f"{protocol.PROTO_VERSION}")
        except BaseException:
            self.close()        # every failed hello, not just a wrong one
            raise
        self.role = self.hello.get("role")
        self.server_max_frame = self.hello.get("max_frame", protocol.MAX_FRAME)

    def _lost(self, exc: OSError, doing: str) -> NetError:
        """The typed error for a socket failure; the connection dies."""
        self.alive = False
        if isinstance(exc, socket.timeout):
            return RequestTimeoutError(f"timed out {doing}")
        return ConnectionLostError(f"connection lost {doing}: {exc}")

    def send(self, *messages: Dict[str, object]) -> None:
        """Write ``messages`` in one send; one over the ``max_frame`` the
        hello announced is refused before any byte: the connection lives."""
        frames = [protocol.encode_frame(message) for message in messages]
        for data in frames:
            length = len(data) - protocol.HEADER_SIZE
            if length > self.server_max_frame:
                raise FrameTooLargeError(length, self.server_max_frame)
        try:
            self.sock.sendall(b"".join(frames))
        except OSError as exc:
            raise self._lost(exc, "sending a request") from exc

    def recv(self, rid=None) -> Dict[str, object]:
        """The next message, in arrival order (pipelining-safe); given
        ``rid``, it must be the response to that request."""
        decoder = self.decoder
        try:
            while True:
                message = decoder.next_message()
                if message is not None:
                    if message.get("fatal"):    # framing lost: dies
                        self.alive = False
                        raise codec.decode_error(message["error"])
                    if rid is not None and message.get("id") != rid:
                        raise ProtocolError(
                            f"response id {message.get('id')!r} does "
                            f"not match request id {rid!r}")
                    return message
                if not self.alive:      # EOF seen, and no torn tail
                    raise ConnectionLostError(
                        "server closed the connection")
                chunk = self.sock.recv(1 << 16)
                if chunk:
                    decoder.feed(chunk)
                else:
                    self.alive = False
                    decoder.close()
        except OSError as exc:
            raise self._lost(exc, "waiting for a response") from exc
        except ProtocolError:
            self.alive = False
            raise

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass


class StoreClient:
    """A pooled client for one endpoint (see module docstring)."""

    def __init__(self, host: str, port: int, *,
                 pool_size: int = DEFAULT_POOL,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 max_frame: int = protocol.MAX_FRAME) -> None:
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.timeout = timeout
        self.retries = retries
        self.max_frame = max_frame
        self._pool: deque = deque()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False

    # -- connection pool ----------------------------------------------

    def _acquire(self) -> Connection:
        with self._lock:
            if self._closed:
                raise NetError("client is closed")
            while self._pool:
                conn = self._pool.popleft()
                if conn.alive:
                    return conn
                conn.close()
        return Connection(self.host, self.port, timeout=self.timeout,
                          max_frame=self.max_frame)

    def _release(self, conn: Connection) -> None:
        with self._lock:
            if (conn.alive and not self._closed
                    and len(self._pool) < self.pool_size):
                self._pool.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            while self._pool:
                self._pool.popleft().close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- request machinery --------------------------------------------

    @staticmethod
    def _result(response: Dict[str, object]):
        error = response.get("error")
        if error is not None:
            raise codec.decode_error(error)
        return response["ok"]

    def call(self, op: str, **fields):
        """One request, one response; transport failures on idempotent
        ops retry on a fresh connection (bounded by ``retries``)."""
        message = dict(fields)
        message["op"] = op
        attempts = 1 + (self.retries if op in IDEMPOTENT else 0)
        last_exc: Optional[Exception] = None
        for _ in range(attempts):
            message["id"] = next(self._ids)
            try:
                conn = self._acquire()
            except ConnectionLostError as exc:
                last_exc = exc
                continue
            try:
                conn.send(message)
                response = conn.recv(message["id"])
            except (ConnectionLostError, RequestTimeoutError) as exc:
                conn.close()
                last_exc = exc
                continue
            except Exception:
                # A refused send leaves it alive; recv's errors kill it.
                self._release(conn)
                raise
            self._release(conn)
            return self._result(response)
        raise last_exc    # type: ignore[misc]

    def pipeline(self, requests: Sequence[Dict[str, object]]
                 ) -> List[object]:
        """Send every request before reading any response (one
        connection, strict FIFO).  Results come back in request order;
        a failed op yields its exception object in the slot rather
        than aborting the batch."""
        if not requests:
            return []
        messages = []
        for request in requests:
            message = dict(request)
            message["id"] = next(self._ids)
            messages.append(message)
        conn = self._acquire()
        try:
            conn.send(*messages)
        except Exception:
            self._release(conn)     # alive iff nothing was written
            raise
        try:
            results: List[object] = []
            for message in messages:
                response = conn.recv(message["id"])
                try:
                    results.append(self._result(response))
                except ReproError as exc:
                    results.append(exc)
        except Exception:
            conn.close()
            raise
        self._release(conn)
        return results

    # -- reads ---------------------------------------------------------

    def ping(self):
        return self.call("ping")

    def _read_at(self, op: str, token, **fields):
        """A read at (or after) an epoch token, when one is given."""
        if token is not None:
            fields["token"] = token
        return self.call(op, **fields)

    def query(self, text: str, token=None, **options):
        """The ``query`` reply; a per-row one also carries ``rows``: its
        columns zipped into ``(sid, encoded values tuple)`` pairs."""
        fields = {"options": options} if options else {}
        out = self._read_at("query", token, text=text, **fields)
        if "sids" in out:
            out["rows"] = list(zip(out["sids"], zip(*out["cols"])))
        return out

    def get(self, sid: int, token=None):
        out = self._read_at("get", token, sid=sid)
        out["values"] = codec.decode_values(out["values"], lambda s: s)
        return out

    def count(self, cls: str, token=None) -> int:
        return self._read_at("count", token, cls=cls)["count"]

    def extent_ids(self, cls: str, token=None) -> List[int]:
        chunks = self._read_at("extent", token, cls=cls)["extent"]
        return wire.decode_chunks(chunks).ids()

    def schema(self, token=None) -> str:
        return self._read_at("schema", token)["schema"]

    def stats(self) -> Dict[str, object]:
        return self.call("stats")

    def repl_status(self) -> Dict[str, object]:
        return self.call("repl_status")

    def token_wait(self, token, timeout: float = 1.0):
        """Block until the endpoint's position covers ``token`` (a
        plain seq or a vector token -- :mod:`repro.net.tokens`)."""
        return self.call("token_wait", token=token, timeout=timeout)

    # The writes (``create`` ... ``checkpoint``) are derived: ``_stub``.


class ReplicaSetClient:
    """Primary + replicas as one endpoint with read-your-writes.

    Writes go to the primary and accumulate the returned epoch tokens
    (vector tokens merged componentwise -- the least token covering
    every acked write, :mod:`repro.net.tokens`).  Reads round-robin
    across the replicas, carrying the token; a lagging replica's
    :class:`ReplicaLagError` falls the read back to the primary.  With
    no replicas configured every read also goes to the primary.
    """

    def __init__(self, primary: StoreClient,
                 replicas: Sequence[StoreClient] = ()) -> None:
        self.primary = primary
        self.replicas = list(replicas)
        self.last_token: Dict[str, int] = {}
        self._rr = itertools.count()
        self._lock = threading.Lock()

    def _record(self, ack):
        if isinstance(ack, dict) and "token" in ack:
            with self._lock:
                self.last_token = tokens.merge(self.last_token,
                                               ack["token"])
        return ack

    def _read(self, method: str, *args, **kwargs):
        token = self.last_token or None
        if self.replicas:
            replica = self.replicas[next(self._rr) %
                                    len(self.replicas)]
            try:
                return getattr(replica, method)(*args, token=token,
                                                **kwargs)
            except (ReplicaLagError, ConnectionLostError,
                    RequestTimeoutError):
                pass        # fall back to the primary
        return getattr(self.primary, method)(*args, **kwargs)

    def wait_all(self, timeout: float = 5.0) -> None:
        """Block until every replica has replayed the last write this
        client issued (test/benchmark convergence barrier)."""
        for replica in self.replicas:
            replica.token_wait(self.last_token, timeout=timeout)

    def close(self) -> None:
        self.primary.close()
        for replica in self.replicas:
            replica.close()


def _forward(method: str, write: bool):
    """The :class:`ReplicaSetClient` face of one ``StoreClient`` method:
    a write goes to the primary and its ack token is merged; a read
    round-robins over the replicas carrying that token."""
    if write:
        def stub(self, *args, **kwargs):
            return self._record(
                getattr(self.primary, method)(*args, **kwargs))
    else:
        def stub(self, *args, **kwargs):
            return self._read(method, *args, **kwargs)
    stub.__name__ = method
    return stub


def _stub(row, method: str, fixed: Dict[str, object]):
    """``StoreClient.<method>``: the request the call makes of ``row``
    (:func:`repro.ops.request`), answered with the ack."""
    def stub(self, *args, **kwargs):
        cmd = request(row, fixed, args, kwargs)
        return self.call(cmd.pop("op"), **cmd)
    stub.__name__ = method
    return stub


for _row in OPS.values():
    for _method, _fixed in _row.stubs.items():
        if _row.write:
            setattr(StoreClient, _method, _stub(_row, _method, _fixed))
        setattr(ReplicaSetClient, _method, _forward(_method, _row.write))
