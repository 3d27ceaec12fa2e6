"""WAL shipping: read replicas that replay the primary's log.

The replication unit is the WAL record -- the same length+CRC framed,
canonical-JSON record the primary's durability layer already writes.
Shipping therefore inherits the log's semantics wholesale: a record
holds exactly one op-table command (a checked mutation, or one whole
transaction / bulk batch), records are strictly sequenced, and running
them through :func:`repro.ops.replay` -- the applier recovery uses --
re-establishes every derived structure --
extents, virtual-class reference counts, the dirty ledger, and
crucially the excuse / INAPPLICABLE residue that defeasible semantics
hang on.  A replica is not a byte copy; it is a store that re-ran the
primary's committed history and can prove it (the convergence property
suite compares full store digests).

Protocol, replica-side (:class:`Replica`):

1. **handshake** -- the source reports the primary's schema, store
   configuration, last committed seq, and current WAL segment base;
2. **bootstrap** -- a full catch-up dump (the store image a checkpoint
   file holds, ``storage/recovery.store_image``, as one JSON object)
   taken at an exact seq ``S``;
   the replica installs it and sets its replay position to ``S``;
3. **tail streaming** -- repeated ``fetch(after_seq)`` calls return
   batches of committed records; the replica replays each in sequence.
   Duplicated batches are deduplicated by seq (replay is idempotent at
   the batch level), a sequence *gap* aborts the batch and refetches
   (dropped or reordered batches heal), and a fetch that falls behind a
   primary checkpoint rotation (``stale``) triggers a re-bootstrap;
4. **lag tracking** -- every batch carries the primary's last committed
   seq; ``primary_seq - applied_seq`` is the replay lag A11 bounds.

A **durable** replica journals each shipped record verbatim into its
own WAL (with its own seq chain kept identical to the primary's), so a
replica killed mid-replay recovers to a committed *prefix* of the
primary's history and catches up from there -- the same contract crash
recovery gives a primary.

``applied_seq`` doubles as the **epoch token** for read-your-writes:
the primary returns its WAL seq from every write, and a client that
presents that token to a replica is served only once the replica has
replayed past it (:class:`~repro.errors.ReplicaLagError` otherwise).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReplicationError, StorageError
from repro.objects.store import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.obs import ReplicationStats
from repro.ops import replay
from repro.storage.fsio import OS_FS, FileSystem
from repro.storage.recovery import (
    install_image,
    store_config,
    store_image,
)
from repro.storage.wal import WalRecord

__all__ = [
    "LocalShipSource",
    "NetShipSource",
    "Replica",
    "ShipBatch",
    "decode_record",
    "dump_store",
    "encode_record",
    "install_dump",
]

#: Default records per ship batch.
BATCH_RECORDS = 512


# ----------------------------------------------------------------------
# Wire shapes
# ----------------------------------------------------------------------

def encode_record(record: WalRecord) -> Dict[str, object]:
    """One WAL record as its wire object (fields travel as logged)."""
    return {"seq": record.seq, "op": record.op, "fields": record.fields}


def decode_record(encoded: Dict[str, object]) -> WalRecord:
    return WalRecord(int(encoded["seq"]), encoded["op"],
                     dict(encoded["fields"]), 0)


@dataclass
class ShipBatch:
    """One fetch's worth of shipped log: the records after the asked-for
    seq, the primary's last committed seq (for lag), and whether the
    asked-for position predates the primary's current segment (the
    replica must re-bootstrap from a dump)."""

    records: List[WalRecord] = field(default_factory=list)
    primary_seq: int = 0
    base_seq: int = 0
    stale: bool = False


# ----------------------------------------------------------------------
# Catch-up dumps (the checkpoint half of the handshake)
# ----------------------------------------------------------------------

def dump_store(store) -> Dict[str, object]:
    """A full logical dump of a primary at an exact seq.

    Taken under the store's write lock, so the row set and the reported
    seq describe the same committed instant.  It is the store image a
    checkpoint file frames (``storage/recovery.store_image``) travelling
    as one JSON object, with the schema, the store configuration and
    the seq beside it.
    """
    from repro.lang import print_schema
    journal = getattr(store, "_journal", None)
    if journal is None:
        raise ReplicationError(
            "replication needs a WAL-durable primary "
            '(open the store with durability="wal")')
    with store._write_lock:
        header, rows = store_image(store)
        return dict(header, rows=list(rows),
                    schema=print_schema(store.schema),
                    config=store_config(store),
                    seq=journal.wal.last_seq)


def install_dump(store: ObjectStore, dump: Dict[str, object]) -> None:
    """Populate an empty store from a dump -- exactly what loading a
    checkpoint rebuilds."""
    try:
        install_image(store, dump, dump["rows"])
    except StorageError as exc:
        raise ReplicationError(f"catch-up dump: {exc}") from exc


# ----------------------------------------------------------------------
# Ship sources
# ----------------------------------------------------------------------

class LocalShipSource:
    """In-process source over a WAL-durable primary store.

    The property and fault suites replicate through this directly --
    same batches, same staleness signaling, no sockets; the networked
    :class:`NetShipSource` and the server's ship handler round-trip the
    very same shapes.  ``net_stats`` (a :class:`repro.obs.NetStats`)
    receives the ship counters when provided.
    """

    def __init__(self, store, net_stats=None) -> None:
        if getattr(store, "_journal", None) is None:
            raise ReplicationError(
                "replication needs a WAL-durable primary "
                '(open the store with durability="wal")')
        self.store = store
        self.net_stats = net_stats

    def handshake(self) -> Dict[str, object]:
        from repro.lang import print_schema
        store = self.store
        wal = store._journal.wal
        return {
            "schema": print_schema(store.schema),
            "config": store_config(store),
            "last_seq": wal.last_seq,
            "base_seq": wal.segment_base,
        }

    def fetch(self, after_seq: int,
              max_records: int = BATCH_RECORDS) -> ShipBatch:
        store = self.store
        # Serialize with writers: the WAL tail read flushes the log's
        # process-side buffers, which must not interleave with an
        # in-flight append.
        with store._write_lock:
            wal = store._journal.wal
            base = wal.segment_base
            if after_seq < base:
                # The segment containing after_seq+1 was rotated out by
                # a checkpoint; the replica needs a fresh dump.
                return ShipBatch(primary_seq=wal.last_seq,
                                 base_seq=base, stale=True)
            records = wal.read_from(after_seq, max_records=max_records)
            batch = ShipBatch(records=records, primary_seq=wal.last_seq,
                              base_seq=base)
        if self.net_stats is not None:
            self.net_stats.ship_batches += 1
            self.net_stats.ship_records += len(records)
        return batch

    def dump(self) -> Dict[str, object]:
        if self.net_stats is not None:
            self.net_stats.dumps_served += 1
        return dump_store(self.store)


class NetShipSource:
    """Ship source over a :class:`~repro.net.client.StoreClient`
    connected to a primary's service endpoint."""

    def __init__(self, client) -> None:
        self.client = client

    def handshake(self) -> Dict[str, object]:
        return self.client.call("repl_handshake")

    def fetch(self, after_seq: int,
              max_records: int = BATCH_RECORDS) -> ShipBatch:
        payload = self.client.call("repl_fetch", after_seq=after_seq,
                                   max_records=max_records)
        return ShipBatch(
            records=[decode_record(r) for r in payload["records"]],
            primary_seq=payload["primary_seq"],
            base_seq=payload["base_seq"],
            stale=bool(payload.get("stale")))

    def dump(self) -> Dict[str, object]:
        """Fetch a catch-up dump, reassembling the server's pages.

        A dump can be far larger than one frame's ceiling, so the
        server serializes it once and serves it as chunks of canonical
        JSON text behind a ``dump_id`` cursor; the final page carries
        ``eof``.  If the cursor expires mid-transfer (server restart,
        cache eviction after a retried final page) the transfer restarts
        from a fresh dump once -- the dump op is read-only, so a
        restart is merely a newer consistent dump.
        """
        import json
        from repro.errors import RemoteOpError
        for attempt in range(2):
            page = self.client.call("repl_dump")
            if "dump" in page:          # single-frame fast path
                return page["dump"]
            parts = [page["chunk"]]
            received = len(page["chunk"])
            try:
                while not page["eof"]:
                    page = self.client.call(
                        "repl_dump", dump_id=page["dump_id"],
                        offset=received)
                    parts.append(page["chunk"])
                    received += len(page["chunk"])
            except RemoteOpError:
                if attempt:
                    raise
                continue                # cursor expired: restart once
            return json.loads("".join(parts))
        raise ReplicationError("catch-up dump transfer failed")


# ----------------------------------------------------------------------
# The replica
# ----------------------------------------------------------------------

class Replica:
    """One read replica: a store kept converged with a primary's WAL.

    In-memory (``directory=None``) for ephemeral read scale-out, or
    durable: shipped records are journaled verbatim into the replica's
    own WAL (seq chain identical to the primary's), so a crashed
    replica recovers to a committed prefix and resumes.  Construction
    bootstraps immediately -- a fresh replica installs a catch-up dump,
    an existing durable directory is crash-recovered instead (its
    replay position is its recovered WAL seq).

    Reads are MVCC snapshots of the replica store at an explicit replay
    position: :meth:`read_view` returns ``(snapshot, applied_seq)`` and
    enforces a caller's epoch token.
    """

    def __init__(self, source, directory: Optional[str] = None,
                 fs: Optional[FileSystem] = None, sync: str = "group",
                 stats: Optional[ReplicationStats] = None) -> None:
        self.source = source
        self.directory = directory
        self.fs = fs or OS_FS
        self.sync_policy = sync
        self.stats = stats or ReplicationStats()
        self.store: Optional[ObjectStore] = None
        self.applied_seq = 0
        handshake = source.handshake()
        self._config = dict(handshake.get("config", {}))
        self.stats.primary_seq = handshake.get("last_seq", 0)
        if directory is not None and self.fs.exists(
                os.path.join(directory, "MANIFEST")):
            self._recover_existing()
        else:
            self._bootstrap()

    # ------------------------------------------------------------------
    # Bootstrap and recovery
    # ------------------------------------------------------------------

    def _bootstrap(self) -> None:
        """Install a catch-up dump into a brand-new store."""
        dump = self.source.dump()
        from repro.lang import load_schema
        schema = load_schema(dump["schema"])
        config = dict(dump.get("config", self._config))
        if self.directory is None:
            store = ObjectStore(schema, **config)
            install_dump(store, dump)
        else:
            store = ObjectStore.open(self.directory, schema=schema,
                                     durability="wal", fs=self.fs,
                                     sync=self.sync_policy, **config)
            journal = store._journal
            journal.pause()
            try:
                install_dump(store, dump)
            finally:
                journal.resume()
            # Align the replica's WAL seq chain with the primary's, then
            # checkpoint: the dump becomes the replica's durable base
            # and its fresh segment starts exactly at the dump seq.
            journal.wal.last_seq = dump["seq"]
            store.checkpoint()
        self.store = store
        self.applied_seq = dump["seq"]
        self.stats.bootstraps += 1
        self.stats.applied_seq = self.applied_seq

    def _recover_existing(self) -> None:
        """Crash-recover a durable replica directory: the recovered WAL
        seq (a committed prefix of the primary's history) is the replay
        position to resume shipping from."""
        store = ObjectStore.open(self.directory, fs=self.fs,
                                 sync=self.sync_policy, **self._config)
        self.store = store
        self.applied_seq = store._journal.wal.last_seq
        self.stats.applied_seq = self.applied_seq

    def _rebootstrap(self) -> None:
        """The primary rotated its WAL past our position: discard and
        re-install from a fresh dump."""
        if self.store is not None:
            closer = getattr(self.store, "close", None)
            if closer is not None:
                closer()
        if self.directory is not None:
            for name in list(self.fs.listdir(self.directory)):
                self.fs.remove(os.path.join(self.directory, name))
        self.stats.stale_restarts += 1
        self._bootstrap()

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def apply_batch(self, batch: ShipBatch) -> int:
        """Replay one shipped batch; returns records applied.

        Duplicates (seq at or below the replay position) are skipped --
        a re-delivered batch is harmless.  A sequence *gap* stops the
        batch (the skipped records would corrupt the chain); the caller
        refetches from ``applied_seq``.
        """
        stats = self.stats
        if batch.primary_seq > stats.primary_seq:
            stats.primary_seq = batch.primary_seq
        applied = 0
        for record in batch.records:
            if record.seq <= self.applied_seq:
                stats.records_deduped += 1
                continue
            if record.seq != self.applied_seq + 1:
                stats.gaps_detected += 1
                break
            self._apply_record(record)
            applied += 1
        if applied:
            stats.batches_applied += 1
        return applied

    def _apply_record(self, record: WalRecord) -> None:
        """One record through the checked store paths, then -- on a
        durable replica -- into the replica's own WAL verbatim.

        The whole replay runs under ``store._write_lock``: a served
        replica replays on a background thread while the service thread
        captures MVCC snapshots, and the snapshot copy-on-write protocol
        is only sound when every mutation serializes on that lock.  The
        lock also spans the record, not just each inner command, so a
        shipped ``txn`` record (a loop of sub-ops on replay) is one
        atomic visibility step for concurrent readers -- the same
        guarantee the primary's transaction scope gave it.
        """
        store = self.store
        journal = getattr(store, "_journal", None)
        with store._write_lock:
            if journal is not None:
                if journal.wal.last_seq != self.applied_seq:
                    raise ReplicationError(
                        f"replica WAL at seq {journal.wal.last_seq} "
                        f"diverged from replay position "
                        f"{self.applied_seq}")
                journal.pause()
            try:
                replay(store, record.op, record.fields, self._resolve)
            except Exception as exc:
                raise ReplicationError(
                    f"shipped record seq {record.seq} ({record.op}) "
                    f"failed to replay: {exc}") from exc
            finally:
                if journal is not None:
                    journal.resume()
            if journal is not None:
                seq = journal.wal.append_fields(record.op,
                                                dict(record.fields))
                if seq != record.seq:
                    raise ReplicationError(
                        f"replica journaled seq {seq} for shipped "
                        f"record seq {record.seq}")
            self.applied_seq = record.seq
        self.stats.records_applied += 1
        self.stats.applied_seq = record.seq

    def _resolve(self, sid: int):
        return self.store.get(Surrogate(sid))

    def sync(self, max_rounds: Optional[int] = None,
             batch_records: int = BATCH_RECORDS) -> int:
        """Pull and replay until caught up with the primary (or until
        ``max_rounds`` fetches); returns total records applied.

        Stops early if two consecutive rounds make no progress -- a
        healthy source always supplies the record after ``applied_seq``
        or reports staleness, so persistent non-progress means the
        transport is faulty and the caller decides whether to keep
        trying.
        """
        total = 0
        rounds = 0
        stalls = 0
        while max_rounds is None or rounds < max_rounds:
            rounds += 1
            self.stats.sync_rounds += 1
            batch = self.source.fetch(self.applied_seq,
                                      max_records=batch_records)
            if batch.stale:
                self._rebootstrap()
                continue
            applied = self.apply_batch(batch)
            total += applied
            if self.applied_seq >= batch.primary_seq:
                break
            if applied == 0:
                stalls += 1
                if stalls >= 2:
                    break
            else:
                stalls = 0
        return total

    # ------------------------------------------------------------------
    # Reads (MVCC snapshots at an explicit replay position)
    # ------------------------------------------------------------------

    @property
    def lag(self) -> int:
        return self.stats.lag

    def read_view(self, token=None):
        """``(snapshot, applied_seq)`` for serving one read.

        With an epoch ``token`` (a primary write's returned seq, or a
        vector token whose ``"0"`` component is that seq -- see
        :mod:`repro.net.tokens`), the read is refused while the
        replica's replay position is behind it -- the read-your-writes
        half of the consistency contract.
        """
        from repro.errors import ReplicaLagError
        from repro.net import tokens
        applied = self.applied_seq
        if token is not None and not tokens.covers(applied, token):
            raise ReplicaLagError(token, applied)
        return self.store.snapshot(), applied

    def close(self) -> None:
        closer = getattr(self.store, "close", None)
        if closer is not None:
            closer()

    def __repr__(self) -> str:
        return (f"<Replica applied_seq={self.applied_seq} "
                f"lag={self.lag}>")
