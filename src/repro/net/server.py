"""The asyncio service: framed requests over a store backend.

One :class:`StoreService` owns one listening socket and one
:class:`~repro.net.backends.StoreBackend`, which supplies every data
operation (``op_query`` ... ``op_checkpoint``) while the service keeps
the transport concerns: framing, pipelining, backpressure, role
enforcement, epoch-token waits, and WAL shipping.  Three backends give
the service its three roles:

* **primary** over a single store
  (:class:`~repro.net.backends.ConcurrentBackend`): reads from MVCC
  snapshots (wait-free against writers), mutations through the store's
  serialized pipeline, and -- when the store is WAL-durable -- the
  replication ops (``repl_handshake`` / ``repl_fetch`` / ``repl_dump``)
  ship the committed log to replicas;
* **primary** over a sharded store
  (:class:`~repro.net.backends.ShardedBackend`): writes routed to
  owner shards, queries scatter-gathered with deduction pruning, every
  op pushed off the event loop (the router blocks on worker IPC);
* **replica** (:class:`~repro.net.backends.ReplicaBackend`): reads at
  the replica's replay position, honoring epoch tokens; mutations
  refused with :class:`~repro.errors.NotPrimaryError`; a background
  task keeps pulling the primary's WAL tail.

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
* **backpressure** is per connection on both directions: the server
  awaits the transport's drain after every response (a slow reader
  suspends only its own connection's request loop, and TCP flow
  control propagates the stall to the sender), and a request frame is
  read only after the previous response was accepted;
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
import json
import logging
from typing import Dict, Optional, Tuple

from repro.errors import (
    NetError,
    NotPrimaryError,
    ProtocolError,
    RemoteOpError,
    ReplicaLagError,
    ReplicationError,
    ShardWorkerError,
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
from repro.net.replication import Replica, encode_record
from repro.obs import NetStats
from repro.ops import OPS, SERVICE_OPS

__all__ = ["StoreService", "serve"]

logger = logging.getLogger("repro.net")

#: How long a replica service sleeps between WAL-tail pulls.
DEFAULT_POLL_INTERVAL = 0.05

#: In-flight paged catch-up dumps kept server-side (oldest evicted).
DUMP_CACHE_LIMIT = 4


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
        #: The single-store concurrency facade when one exists (tests
        #: and embedders reach through it); None for sharded backends.
        self.concurrent = getattr(self.backend, "concurrent", None)
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
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.address = (self.host, self.port)
        if self.role == "replica" and self.poll_interval:
            self._sync_task = self._loop.create_task(self._sync_loop())
        return self.address

    async def stop(self) -> None:
        if self._sync_task is not None:
            self._sync_task.cancel()
            try:
                await self._sync_task
            except (asyncio.CancelledError, Exception):
                pass
            self._sync_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown`."""
        if self._server is None:
            await self.start()
        await self._stop_event.wait()
        await self.stop()

    def run_background(self) -> Tuple[str, int]:
        """Run the service on a dedicated thread with its own event
        loop (tests and embedded use); returns the bound address."""
        import threading
        started = threading.Event()

        async def _main():
            await self.start()
            started.set()
            await self._stop_event.wait()
            await self.stop()

        def _runner():
            asyncio.run(_main())

        self._thread = threading.Thread(
            target=_runner, name=f"repro-net-{self.role}", daemon=True)
        self._thread.start()
        if not started.wait(timeout=10):
            raise NetError("service failed to start within 10s")
        return self.address

    def shutdown(self) -> None:
        """Stop a background service from any thread."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    # ------------------------------------------------------------------
    # Replica pull loop
    # ------------------------------------------------------------------

    async def _sync_loop(self) -> None:
        """Keep the replica converged: pull the primary's WAL tail off
        the event loop's executor (the fetch blocks on its socket).

        Every failed pass is counted (``repl.sync_failures``).  A
        :class:`ReplicationError` is *permanent* -- the seq chain
        diverged or a shipped record refused to replay, and retrying
        cannot heal it -- so it stops the loop and marks the endpoint
        unhealthy (``ping`` / ``repl_status`` report the fault) instead
        of silently serving ever-staler data.  Anything else is treated
        as transient primary unavailability: log once per pass and keep
        polling; the replica serves its current position meanwhile.
        """
        loop = asyncio.get_running_loop()
        while True:
            try:
                await loop.run_in_executor(None, self.replica.sync, 4)
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
            await asyncio.sleep(self.poll_interval)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _send(self, writer, message: Dict[str, object]) -> None:
        data = protocol.encode_frame(message)
        self.stats.frames_out += 1
        self.stats.bytes_out += len(data)
        writer.write(data)
        await writer.drain()

    def _hello(self) -> Dict[str, object]:
        hello = protocol.hello(
            self.role, epoch=self.backend.epoch(),
            last_seq=self.backend.last_seq(),
            position=self.backend.position())
        hello.update(self.backend.describe())
        return hello

    async def _serve_connection(self, reader, writer) -> None:
        stats = self.stats
        stats.connections_opened += 1
        try:
            writer.transport.set_write_buffer_limits(high=1 << 16)
        except (AttributeError, NotImplementedError):
            pass
        on_bytes = (lambda n: setattr(
            stats, "bytes_in", stats.bytes_in + n))
        try:
            await self._send(writer, self._hello())
            while True:
                try:
                    if self.idle_timeout:
                        message = await asyncio.wait_for(
                            protocol.read_frame(
                                reader, self.max_frame,
                                on_bytes=on_bytes),
                            self.idle_timeout)
                    else:
                        message = await protocol.read_frame(
                            reader, self.max_frame, on_bytes=on_bytes)
                except ProtocolError as exc:
                    stats.protocol_errors += 1
                    try:
                        await self._send(writer, {
                            "error": {"type": type(exc).__name__,
                                      "msg": str(exc)},
                            "fatal": True})
                    except (ConnectionError, OSError):
                        pass
                    break
                except asyncio.TimeoutError:
                    break
                if message is None:
                    break
                stats.frames_in += 1
                response = await self._dispatch(message)
                await self._send(writer, response)
        except asyncio.CancelledError:
            pass          # loop teardown: close the connection quietly
        except (ConnectionError, OSError):
            pass
        finally:
            stats.connections_closed += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _offload(self, fn, *args, fenced: bool = False):
        """Run a blocking backend job on the executor.  ``fenced`` jobs
        (bulk loads, checkpoints, catch-up dumps -- the ones that hold
        the store for their whole run) are tracked on the busy gauge
        the alter fence reads; ordinary offloaded ops (a sharded
        backend's reads and row writes) are not, so they never starve
        schema changes."""
        if fenced:
            self._busy_jobs += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, fn, *args)
        finally:
            if fenced:
                self._busy_jobs -= 1

    async def _dispatch(self, message: Dict[str, object]
                        ) -> Dict[str, object]:
        rid = message.get("id")
        op = message.get("op")
        stats = self.stats
        name = op if isinstance(op, str) else None
        row = OPS.get(name)
        try:
            if row is not None:
                if row.write and self.role != "primary":
                    raise NotPrimaryError(
                        f"replica does not accept {op!r}; write to "
                        "the primary")
                if op == "alter" and self._busy_jobs:
                    stats.alter_fences += 1
                    raise StoreBusyError(
                        "alter refused: an in-flight bulk load, "
                        "checkpoint, or catch-up dump holds the "
                        "store; retry once it drains")
                handler = getattr(self.backend, "op_" + name)
                if row.fenced or self.backend.blocking:
                    result = await self._offload(handler, message,
                                                 fenced=row.fenced)
                else:
                    result = handler(message)
            elif name in SERVICE_OPS:
                result = getattr(self, "_op_" + name)(message)
                if asyncio.iscoroutine(result):
                    result = await result
            else:
                raise StorageError(f"unknown request op {op!r}")
        except Exception as exc:
            stats.requests_served += 1
            stats.op_errors += 1
            error = {"type": type(exc).__name__, "msg": str(exc)}
            if isinstance(exc, (ShardWorkerError, RemoteOpError)):
                # A failure relayed from a shard worker: surface the
                # original class name, as a direct service would.
                error["type"] = exc.remote_type
            if isinstance(exc, ReplicaLagError):
                error["token"] = exc.token
                error["applied_seq"] = exc.applied_seq
            return {"id": rid, "error": error}
        stats.requests_served += 1
        if row is not None and row.write:
            stats.writes_served += 1
        else:
            stats.reads_served += 1
        return {"id": rid, "ok": result}

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
            out["lag"] = self.replica.lag
            out["healthy"] = self._sync_fault is None
            if self._sync_fault is not None:
                out["sync_fault"] = self._sync_fault
        return out

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
        out = {"applied_seq": self.replica.applied_seq,
               "primary_seq": stats.primary_seq,
               "lag": stats.lag,
               "healthy": self._sync_fault is None}
        if self._sync_fault is not None:
            out["sync_fault"] = self._sync_fault
        return out

    async def _op_token_wait(self, cmd):
        """Block (bounded) until this endpoint's position covers an
        epoch token -- the read-your-writes wait.  Accepts a plain seq
        or a vector token; the covering test is per component."""
        want = tokens.as_token(cmd.get("token"))
        timeout = float(cmd.get("timeout", 1.0))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not tokens.covers(self.backend.position(), want):
            if loop.time() >= deadline:
                self.stats.token_wait_timeouts += 1
                raise ReplicaLagError(cmd.get("token"),
                                      self.backend.last_seq())
            await asyncio.sleep(0.002)
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
        batch = self._require_ship().fetch(
            int(cmd["after_seq"]),
            max_records=int(cmd.get("max_records") or 512))
        return {"records": [encode_record(r) for r in batch.records],
                "primary_seq": batch.primary_seq,
                "base_seq": batch.base_seq,
                "stale": batch.stale}

    async def _op_repl_dump(self, cmd):
        # Taking the dump serializes the store under its write lock and
        # the result can be huge: run off the event loop so pings,
        # token waits, and other connections stay live during a replica
        # bootstrap against a large primary.
        return await self._offload(self._repl_dump_sync, cmd,
                                   fenced=True)

    def _repl_dump_sync(self, cmd):
        """One page of a catch-up dump.

        A dump routinely exceeds the frame ceiling, so it is never
        returned whole: the first request serializes the store to
        canonical-JSON text (ASCII -- character offsets are byte
        offsets), caches it under a ``dump_id``, and answers the first
        chunk; the replica walks the rest with ``(dump_id, offset)``
        cursors and reassembles (:meth:`NetShipSource.dump`).  Chunks
        are a quarter of the frame ceiling, so a page stays under the
        limit even after worst-case JSON string escaping doubles it.
        The cache holds finished dumps until ``DUMP_CACHE_LIMIT``
        transfers displace them, keeping retried tail fetches
        idempotent without unbounded memory.
        """
        chunk_size = max(1, self.max_frame // 4)
        dump_id = cmd.get("dump_id")
        if dump_id is None:
            dump = self._require_ship().dump()
            text = json.dumps(dump, separators=(",", ":"),
                              sort_keys=True)
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


def serve(store=None, *, replica=None, host: str = "127.0.0.1",
          port: int = 0, **kwargs) -> None:
    """Blocking entry point (the CLI's ``repro serve`` / ``repro
    replica``): run one service until interrupted."""
    service = StoreService(store, replica=replica, host=host, port=port,
                           **kwargs)

    async def _main():
        address = await service.start()
        print(f"repro-net {service.role} serving on "
              f"{address[0]}:{address[1]}")
        try:
            await service._stop_event.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
