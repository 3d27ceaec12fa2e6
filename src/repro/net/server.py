"""The asyncio service: framed requests over a store backend.

One :class:`StoreService` owns one listening socket and one
:class:`~repro.net.backends.StoreBackend`, which supplies every data
operation (``op_query`` ... ``op_checkpoint``) while the service keeps
the transport concerns: framing, pipelining, backpressure, role
enforcement, epoch-token waits, and WAL shipping.  The backend gives
the service its role (:mod:`repro.net.backends` describes the three):
**primary** over a single store (MVCC snapshot reads, serialized
writes, and -- when WAL-durable -- the ``repl_*`` ops that ship the
committed log); **primary** over a sharded store (every op off the
event loop: the router blocks on worker IPC); **replica** (reads at the
replay position, honoring epoch tokens; mutations refused with
:class:`~repro.errors.NotPrimaryError`; a background task keeps pulling
the primary's WAL tail).

Write acks carry **vector epoch tokens** (:mod:`repro.net.tokens`):
``{shard_id: seq}`` maps composed from the backend's commit positions.
``token_wait`` blocks until the backend's position *covers* a token,
which generalizes read-your-writes to sharded primaries where no
single number orders the writes.

Connection discipline:

* the server speaks first (a hello frame: protocol, version, role), so
  a client can fail fast on a wrong port;
* requests carry a client-chosen ``id`` echoed in the response;
  **pipelining** is the client's right -- it may write any number of
  requests before reading; the server processes them strictly in
  order per connection and writes responses in the same order;
* a connection is one :class:`asyncio.BufferedProtocol` over the one
  :class:`~repro.net.protocol.FrameDecoder`: reads land in a reused
  buffer and every complete frame already buffered is served at once,
  a loop-safe request inside the read callback, and replies to frames
  read together share one write.  A request that must leave the loop
  (a fenced row, any row of a ``blocking`` backend, ``token_wait``,
  ``repl_dump``) becomes a task, and the connection stops reading and
  **holds its later frames** until that reply is written;
* **backpressure** is per connection, both ways: when a peer stops
  reading its replies the transport passes its high-water mark
  (``pause_writing``) and the connection neither serves nor reads
  until it drains (``resume_writing``); TCP flow control carries the
  stall to the sender, and no other connection notices;
* ``idle_timeout`` is armed when a connection goes **idle** (every
  buffered request answered) and cancelled when a complete frame is
  taken: it cuts a silent peer and one stalled mid-frame, never a
  connection whose bulk load, checkpoint or ``token_wait`` still runs;
* an *operation* failure (a conformance rejection, an unknown class)
  travels back as a typed error response and the connection lives on;
  a *protocol* failure (torn/corrupt/oversized frame) poisons only
  that connection -- best-effort error frame, then close -- and is
  counted on ``NetStats.protocol_errors``.  The server never dies on
  input.

One cross-op fence: ``alter`` is refused with
:class:`~repro.errors.StoreBusyError` while a bulk load, checkpoint,
or catch-up dump runs on the executor -- those jobs hold the store
off the event loop, and a schema swap interleaved with a half-applied
batch or a paged dump would tear both.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from typing import Dict, List, Optional, Set, Tuple

from repro import codec
from repro.codec import dumps
from repro.errors import (
    FrameTooLargeError,
    NetError,
    NotPrimaryError,
    ProtocolError,
    ReplicaLagError,
    ReplicationError,
    StorageError,
    StoreBusyError,
)
from repro.net import protocol, tokens
from repro.net.backends import (
    ConcurrentBackend,
    ReplicaBackend,
    ShardedBackend,
    StoreBackend,
)
from repro.net.replication import BATCH_RECORDS, Replica, encode_record
from repro.obs import NetStats
from repro.ops import OPS, SERVICE_OPS

__all__ = ["StoreService", "serve"]

logger = logging.getLogger("repro.net")

#: How long a replica service sleeps between WAL-tail pulls.
DEFAULT_POLL_INTERVAL = 0.05

#: In-flight paged catch-up dumps kept server-side (oldest evicted).
DUMP_CACHE_LIMIT = 4

#: Per-connection read buffer, and the buffered output past which a
#: connection stops serving a peer that is not reading its replies.
READ_BUFFER = WRITE_HIGH = 1 << 16

#: Ceiling on a client-chosen ``token_wait`` timeout, and how often a
#: parked wait looks anyway (an embedder may move the store unseen).
MAX_TOKEN_WAIT = 60.0
TOKEN_RECHECK = 0.05


def _wrap_backend(store, replica) -> StoreBackend:
    if (store is None) == (replica is None):
        raise NetError(
            "pass exactly one of store= (primary) or replica=")
    if replica is not None:
        return ReplicaBackend(replica)
    if isinstance(store, StoreBackend):
        return store
    # A sharded router walks in through the same front door as a plain
    # store: duck-typed on the attributes only a router has.
    if hasattr(store, "n_shards") and hasattr(store, "position_token"):
        return ShardedBackend(store)
    return ConcurrentBackend(store)


def _release(waiter: asyncio.Future) -> None:
    if not waiter.done():
        waiter.set_result(None)


class StoreService:
    """One listening endpoint over one backend (see module docstring).

    Primary::

        service = StoreService(store)        # ObjectStore or ShardedStore
        service.run_background()             # or: await start()

    Replica::

        replica = Replica(NetShipSource(client), directory=...)
        service = StoreService(replica=replica)
    """

    def __init__(self, store=None, *, replica: Optional[Replica] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = protocol.MAX_FRAME,
                 idle_timeout: Optional[float] = None,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 net_stats: Optional[NetStats] = None) -> None:
        self.backend = _wrap_backend(store, replica)
        self.replica = replica
        self.role = "primary" if self.backend.writable else "replica"
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.idle_timeout = idle_timeout
        self.poll_interval = poll_interval
        self.stats = net_stats or NetStats()
        self.backend.net_stats = self.stats
        self._ship = self.backend.ship
        if self._ship is not None:
            self._ship.net_stats = self.stats
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._sync_task: Optional[asyncio.Task] = None
        self._thread = None
        self.address: Optional[Tuple[str, int]] = None
        #: Executor jobs in flight (bulk loads, checkpoints, dumps,
        #: sharded ops): the alter fence refuses schema changes while
        #: any of them holds the store.
        self._busy_jobs = 0
        #: Paged catch-up dumps in flight: dump_id -> canonical-JSON
        #: text (ASCII, so character offsets are byte offsets).
        self._dumps: Dict[int, str] = {}
        self._dump_ids = itertools.count(1)
        #: Message of a permanent replication fault (seq-chain
        #: divergence, replay failure); None while the sync loop is
        #: healthy.  Surfaced by ping / repl_status.
        self._sync_fault: Optional[str] = None
        #: Accepted connections (``stop`` closes them itself) and the
        #: futures of parked ``token_wait`` requests.
        self._connections: Set["_Connection"] = set()
        self._waiters: Set[asyncio.Future] = set()

    @property
    def _store(self):
        """The store this endpoint serves *right now* (the backend
        dereferences per access: a re-bootstrapping replica swaps its
        store, and every handler must follow the swap)."""
        return self.backend.store

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving on the running loop; returns the
        bound ``(host, port)`` (an ephemeral port is resolved here)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.address = (self.host, self.port)
        if self.role == "replica" and self.poll_interval:
            self._sync_task = self._loop.create_task(self._sync_loop())
        return self.address

    async def stop(self) -> None:
        if self._sync_task is not None:
            self._sync_task.cancel()
            await asyncio.wait([self._sync_task])
            self._sync_task = None
        if self._server is not None:
            self._server.close()
            # Server.close() stops listening; before 3.13 it leaves the
            # accepted transports open.
            for connection in list(self._connections):
                connection.transport.abort()
            await self._server.wait_closed()
            self._server = None
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self, started=None) -> None:
        """Start (if needed), call ``started()``, and serve until
        :meth:`shutdown`."""
        if self._server is None:
            await self.start()
        if started is not None:
            started()
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    def run_background(self) -> Tuple[str, int]:
        """Run the service on a dedicated thread with its own event
        loop (tests and embedded use); returns the bound address."""
        import threading
        started = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve_forever(started.set)),
            name=f"repro-net-{self.role}", daemon=True)
        self._thread.start()
        if not started.wait(timeout=10):
            raise NetError("service failed to start within 10s")
        return self.address

    def shutdown(self) -> None:
        """Stop a background service from any thread."""
        if self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass            # the loop is already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    # ------------------------------------------------------------------
    # Replica pull loop
    # ------------------------------------------------------------------

    async def _sync_loop(self) -> None:
        """Keep the replica converged: pull the primary's WAL tail on
        the executor (the fetch blocks on its socket).  Every failed
        pass is counted (``repl.sync_failures``).  A
        :class:`ReplicationError` is *permanent* -- the seq chain
        diverged or a shipped record refused to replay -- so it stops
        the loop and marks the endpoint unhealthy (``ping`` /
        ``repl_status`` report the fault) instead of serving ever-staler
        data in silence.  Anything else is transient primary
        unavailability: log once per pass and keep polling."""
        while True:
            try:
                await self._loop.run_in_executor(
                    None, self.replica.sync, 4)
            except asyncio.CancelledError:
                raise
            except ReplicationError as exc:
                self.replica.stats.sync_failures += 1
                self._sync_fault = str(exc)
                logger.error(
                    "replica sync diverged permanently, stopping the "
                    "pull loop: %s", exc)
                return
            except Exception as exc:
                self.replica.stats.sync_failures += 1
                logger.warning("replica sync pass failed "
                               "(will retry): %s", exc)
            self._position_moved()
            await asyncio.sleep(self.poll_interval)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _hello(self) -> Dict[str, object]:
        """The first frame on every connection: protocol identity,
        version, role, and where the endpoint stands."""
        hello = {"proto": protocol.PROTO_NAME,
                 "version": protocol.PROTO_VERSION, "role": self.role,
                 "epoch": self.backend.epoch(),
                 "last_seq": self.backend.last_seq(),
                 "position": self.backend.position()}
        hello.update(self.backend.describe())
        return hello

    async def _offload(self, fn, *args, fenced: bool = False):
        """Run a blocking backend job on the executor.  Only ``fenced``
        jobs (bulk loads, checkpoints, catch-up dumps: they hold the
        store for their whole run) count on the busy gauge the alter
        fence reads, so a sharded backend's ordinary reads and row
        writes never starve schema changes."""
        if fenced:
            self._busy_jobs += 1
        try:
            return await self._loop.run_in_executor(None, fn, *args)
        finally:
            if fenced:
                self._busy_jobs -= 1
            self._position_moved()

    def _dispatch(self, message: Dict[str, object]):
        """Serve one request: its response, or -- for a request that
        must leave the event loop -- a coroutine resolving to it."""
        rid = message.get("id")
        op = message.get("op")
        name = op if isinstance(op, str) else None
        row = OPS.get(name)
        try:
            if row is not None:
                if row.write and self.role != "primary":
                    raise NotPrimaryError(
                        f"replica does not accept {op!r}; write to "
                        "the primary")
                if op == "alter" and self._busy_jobs:
                    self.stats.alter_fences += 1
                    raise StoreBusyError(
                        "alter refused: an in-flight bulk load, "
                        "checkpoint, or catch-up dump holds the "
                        "store; retry once it drains")
                handler = getattr(self.backend, "op_" + name)
                if row.fenced or self.backend.blocking:
                    return self._settle(rid, row, self._offload(
                        handler, message, fenced=row.fenced))
                result = handler(message)
            elif name in SERVICE_OPS:
                result = getattr(self, "_op_" + name)(message)
                if asyncio.iscoroutine(result):
                    return self._settle(rid, row, result)
            else:
                raise StorageError(f"unknown request op {op!r}")
        except Exception as exc:
            return self._reply(rid, row, None, exc)
        return self._reply(rid, row, result)

    async def _settle(self, rid, row, pending):
        try:
            return self._reply(rid, row, await pending)
        except Exception as exc:
            return self._reply(rid, row, None, exc)

    def _reply(self, rid, row, result, exc=None) -> Dict[str, object]:
        stats = self.stats
        stats.requests_served += 1
        if exc is None:
            if row is not None and row.write:
                stats.writes_served += 1
                self._position_moved()
            else:
                stats.reads_served += 1
            return {"id": rid, "ok": result}
        stats.op_errors += 1
        return {"id": rid, "error": codec.encode_error(exc)}

    def _position_moved(self) -> None:
        """``backend.position()`` may have advanced (a served write, an
        executor job, a replica sync pass): let every parked
        ``token_wait`` look again."""
        for waiter in self._waiters:
            _release(waiter)

    # ------------------------------------------------------------------
    # Service-level ops (transport, liveness, replication)
    # ------------------------------------------------------------------

    def _op_ping(self, cmd):
        out = {"role": self.role, "epoch": self.backend.epoch(),
               "objects": self.backend.object_count(),
               "seq": self.backend.last_seq(),
               "position": self.backend.position()}
        out.update(self.backend.describe())
        if self.role == "replica":
            out.update(self._health(), lag=self.replica.lag)
        return out

    def _health(self) -> Dict[str, object]:
        if self._sync_fault is None:
            return {"healthy": True}
        return {"healthy": False, "sync_fault": self._sync_fault}

    def _op_stats(self, cmd):
        out = dict(self._store.stats())
        for name, value in self.stats.snapshot().items():
            out[f"net.{name}"] = value
        if self.replica is not None:
            for name, value in self.replica.stats.snapshot().items():
                out[f"repl.{name}"] = value
        out["net.role"] = self.role
        out["net.seq"] = self.backend.last_seq()
        out["net.position"] = self.backend.position()
        return out

    def _op_repl_status(self, cmd):
        if self.replica is None:
            return {"applied_seq": self.backend.last_seq(), "lag": 0,
                    "primary_seq": self.backend.last_seq()}
        stats = self.replica.stats
        return dict(self._health(), lag=stats.lag,
                    applied_seq=self.replica.applied_seq,
                    primary_seq=stats.primary_seq)

    async def _op_token_wait(self, cmd):
        """Park (bounded) until this endpoint's position covers an
        epoch token -- the read-your-writes wait.  Accepts a plain seq
        or a vector token; the covering test is per component.  Woken
        by :meth:`_position_moved`, and every ``TOKEN_RECHECK`` anyway."""
        want = tokens.as_token(cmd.get("token"))
        loop = self._loop
        deadline = loop.time() + min(float(cmd.get("timeout", 1.0)),
                                     MAX_TOKEN_WAIT)
        while not tokens.covers(self.backend.position(), want):
            remaining = deadline - loop.time()
            if remaining <= 0:
                self.stats.token_wait_timeouts += 1
                raise ReplicaLagError(cmd.get("token"),
                                      self.backend.last_seq())
            waiter = loop.create_future()
            timer = loop.call_later(min(remaining, TOKEN_RECHECK),
                                    _release, waiter)
            self._waiters.add(waiter)
            try:
                await waiter
            finally:
                timer.cancel()
                self._waiters.discard(waiter)
        self.stats.token_waits += 1
        return {"applied_seq": self.backend.last_seq(),
                "position": self.backend.position()}

    # ------------------------------------------------------------------
    # Replication ops (primary, WAL-durable only)
    # ------------------------------------------------------------------

    def _require_ship(self):
        if self._ship is None:
            raise StorageError(
                "this endpoint cannot ship its WAL (not a WAL-durable "
                "primary)")
        return self._ship

    def _op_repl_handshake(self, cmd):
        return self._require_ship().handshake()

    def _op_repl_fetch(self, cmd):
        # The reply is one frame: a replica asks for at most one batch.
        wanted = int(cmd.get("max_records") or BATCH_RECORDS)
        batch = self._require_ship().fetch(
            int(cmd["after_seq"]),
            max_records=min(max(wanted, 1), BATCH_RECORDS))
        return {"records": [encode_record(r) for r in batch.records],
                "primary_seq": batch.primary_seq,
                "base_seq": batch.base_seq,
                "stale": batch.stale}

    def _op_repl_dump(self, cmd):
        # Taking the dump serializes the store under its write lock and
        # the result can be huge: run off the event loop so pings,
        # token waits, and other connections stay live during a replica
        # bootstrap against a large primary.
        return self._offload(self._repl_dump_sync, cmd, fenced=True)

    def _repl_dump_sync(self, cmd):
        """One page of a catch-up dump.  A dump routinely exceeds the
        frame ceiling, so the first request serializes the store to
        canonical-JSON text (ASCII: character offsets are byte
        offsets), caches it under a ``dump_id`` and answers the first
        chunk; the replica walks the rest with ``(dump_id, offset)``
        cursors (:meth:`NetShipSource.dump`).  Chunks are a quarter of
        the frame ceiling, so a page fits even after worst-case JSON
        escaping doubles it.  Finished dumps stay cached until
        ``DUMP_CACHE_LIMIT`` transfers displace them: retried tail
        fetches stay idempotent without unbounded memory."""
        chunk_size = max(1, self.max_frame // 4)
        dump_id = cmd.get("dump_id")
        if dump_id is None:
            text = dumps(self._require_ship().dump())
            dump_id = next(self._dump_ids)
            self._dumps[dump_id] = text
            while len(self._dumps) > DUMP_CACHE_LIMIT:
                self._dumps.pop(next(iter(self._dumps)), None)
            offset = 0
        else:
            text = self._dumps.get(int(dump_id))
            if text is None:
                raise StorageError(
                    f"unknown or expired dump id {dump_id}; restart "
                    "the dump transfer")
            dump_id = int(dump_id)
            offset = int(cmd.get("offset") or 0)
        piece = text[offset:offset + chunk_size]
        return {"dump_id": dump_id, "size": len(text),
                "offset": offset, "chunk": piece,
                "eof": offset + len(piece) >= len(text)}


class _Connection(asyncio.BufferedProtocol):
    """One accepted connection (module docstring, "Connection
    discipline").  Reading is paused exactly while ``_task`` is set or
    ``_writable`` is not; ``_closing`` means no further input will be
    served (end of stream, or a framing error), so the connection
    closes once everything buffered is answered."""

    def __init__(self, service: StoreService) -> None:
        self.service = service
        self.stats = service.stats
        self.decoder = protocol.FrameDecoder(service.max_frame)
        self._view = memoryview(bytearray(READ_BUFFER))
        #: The off-loop request that holds later frames back.
        self._task: Optional[asyncio.Task] = None
        #: The ``idle_timeout`` timer, armed only while idle.
        self._idle: Optional[asyncio.TimerHandle] = None
        self._writable = True
        self._closing = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.stats.connections_opened += 1
        self.service._connections.add(self)
        transport.set_write_buffer_limits(high=WRITE_HIGH)
        self._pump([self._encode(self.service._hello())])

    def connection_lost(self, exc) -> None:
        self.stats.connections_closed += 1
        self.service._connections.discard(self)
        self._disarm()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view

    def buffer_updated(self, nbytes: int) -> None:
        self.stats.bytes_in += nbytes
        self.decoder.feed(self._view[:nbytes])
        self._pump([])

    def eof_received(self) -> bool:
        self._closing = True
        self.decoder.close()        # a torn tail now raises, typed
        self._pump([])
        return True                 # _pump closes once all is answered

    def pause_writing(self) -> None:
        self._writable = False
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._writable = True
        self._pump([])

    def _encode(self, message: Dict[str, object]) -> bytes:
        data = protocol.encode_frame(message)
        length = len(data) - protocol.HEADER_SIZE
        if length > self.service.max_frame:
            # The peer's decoder would refuse it and lose the stream:
            # answer the request with the typed error instead.
            error = FrameTooLargeError(length, self.service.max_frame)
            data = protocol.encode_frame(
                {"id": message.get("id"), "error": codec.encode_error(error)})
        self.stats.frames_out += 1
        self.stats.bytes_out += len(data)
        return data

    def _disarm(self) -> None:
        if self._idle is not None:
            self._idle.cancel()
            self._idle = None

    def _pump(self, out: List[bytes]) -> None:
        """Write ``out``, then the reply to every complete frame
        buffered, in order -- until one leaves the loop or the peer
        stops reading."""
        transport, service = self.transport, self.service
        if transport.is_closing():
            return
        unsent, idle = 0, False
        try:
            while self._writable and self._task is None:
                message = self.decoder.next_message()
                if message is None:
                    idle = True
                    break
                self._disarm()
                self.stats.frames_in += 1
                reply = service._dispatch(message)
                if not isinstance(reply, dict):
                    self._task = service._loop.create_task(
                        self._finish(reply))
                    transport.pause_reading()
                    break
                out.append(self._encode(reply))
                unsent += len(out[-1])
                if unsent >= WRITE_HIGH:   # may call pause_writing
                    transport.write(b"".join(out))
                    out.clear()
                    unsent = 0
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            out.append(self._encode({"error": codec.encode_error(exc),
                                     "fatal": True}))
            idle = self._closing = True
        if out:
            transport.write(b"".join(out))
        if idle and self._closing:
            transport.close()
        elif idle and self._writable:
            transport.resume_reading()
            if self._idle is None and service.idle_timeout:
                self._idle = service._loop.call_later(
                    service.idle_timeout, transport.close)

    async def _finish(self, pending) -> None:
        try:
            reply = await pending
            self._task = None
            self._pump([self._encode(reply)])
        except Exception:
            self.transport.abort()
            raise


def serve(store=None, **kwargs) -> None:
    """Blocking entry point (the CLI's ``repro serve`` / ``repro
    replica``): run one :class:`StoreService` until interrupted."""
    service = StoreService(store, **kwargs)

    def announce():
        print(f"repro-net {service.role} serving on "
              f"{service.host}:{service.port}")

    try:
        asyncio.run(service.serve_forever(announce))
    except KeyboardInterrupt:
        pass
