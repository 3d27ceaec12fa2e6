"""The write-ahead log: checked store mutations as durable, replayable
records.

Every mutation that survives the :class:`~repro.objects.store.ObjectStore`
checked paths -- ``create`` / ``set`` / ``unset`` / ``classify`` /
``declassify`` / ``remove`` / ``bulk-commit`` -- is appended here as one
logical record, *after* the in-memory apply succeeds and *before* the call
returns to the caller.  Recovery (:mod:`repro.storage.recovery`) replays
the tail through the same checked paths, so the recovered store
re-establishes exactly the conformance invariants the live engine
enforced.

Record framing
--------------

The file starts with an 8-byte magic.  Each record is::

    u32 payload length | u32 CRC32(payload) | payload (UTF-8 JSON)

and every payload carries a ``seq`` field that must increase by exactly 1
from its predecessor.  A crash can tear at most the final record; the
reader stops at the first short frame, bad CRC, undecodable payload, or
sequence break, and reports the byte offset of the last good record so
recovery can truncate the torn tail.

Group commit
------------

Records appended inside a :meth:`WriteAheadLog.begin` /
:meth:`WriteAheadLog.commit` scope (a store transaction) are buffered and
hit the file at commit as **one** ``txn`` record embedding the group's
operations (one frame, one write, one flush) -- so a torn write can only
drop the transaction *whole*, never surface half of it; :meth:`abort`
discards the buffer, and a rolled-back transaction leaves no trace to
replay.  Outside a group, each record is its own commit.  Two sync
policies trade durability for throughput:

* ``"always"`` -- fsync after every commit: nothing acknowledged is ever
  lost, even to power failure;
* ``"group"`` (default) -- commits accumulate in a process-side buffer
  that is written and fsynced as one batch every ``sync_every`` records
  (and at checkpoints, explicit flushes, and close).  A crash -- process
  kill or power failure alike -- may drop a suffix of acknowledged
  records bounded by ``sync_every``, but can never corrupt the prefix:
  the buffer is written in commit order and only ever lost whole or as
  a suffix.

A record's fields are the op-table command that ran (:mod:`repro.ops`),
its values in the one value encoding (:mod:`repro.codec`); this module
frames and sequences them and does not look inside.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.fsio import OS_FS, FileSystem

#: First bytes of every WAL segment (and framed checkpoint file).
WAL_MAGIC = b"RWAL0001"
_HEADER = struct.Struct(">II")


# ----------------------------------------------------------------------
# Frame codec (shared with the checkpoint file format)
# ----------------------------------------------------------------------

def frame(payload: bytes) -> bytes:
    """Length-prefix + CRC32 one payload."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


#: Shared canonical-JSON encoder (``json.dumps`` with non-default options
#: builds a fresh ``JSONEncoder`` per call -- measurable on the WAL hot
#: path, where every committed mutation encodes one record).
_encode_json = json.JSONEncoder(separators=(",", ":"),
                                sort_keys=True).encode


def frame_record(record: dict) -> bytes:
    return frame(_encode_json(record).encode("utf-8"))


def iter_frames(data: bytes, offset: int = 0
                ) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(end_offset, payload)`` for every intact frame; stop
    silently at the first short or corrupt one (the torn tail)."""
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return
        yield end, payload
        offset = end


class WalRecord:
    """One decoded WAL record with its position in the segment."""

    __slots__ = ("seq", "op", "fields", "end_offset")

    def __init__(self, seq: int, op: str, fields: dict,
                 end_offset: int) -> None:
        self.seq = seq
        self.op = op
        self.fields = fields
        self.end_offset = end_offset

    def __repr__(self) -> str:
        return f"<WalRecord seq={self.seq} op={self.op}>"


class WalScan:
    """What a read of one WAL segment found: the good records, where the
    good prefix ends, and why the scan stopped."""

    def __init__(self, records: List[WalRecord], good_end: int,
                 total_size: int, stopped: str) -> None:
        self.records = records
        self.good_end = good_end          # byte offset of the good prefix
        self.total_size = total_size
        self.stopped = stopped            # "clean-end" | "torn-tail" | ...

    @property
    def torn_bytes(self) -> int:
        return self.total_size - self.good_end

    @property
    def last_seq(self) -> Optional[int]:
        return self.records[-1].seq if self.records else None


def scan_wal(fs: FileSystem, path: str,
             base_seq: int = 0) -> WalScan:
    """Read a WAL segment, validating framing, CRCs, and the sequence
    chain; stop (without raising) at the first torn or corrupt record."""
    if not fs.exists(path):
        return WalScan([], 0, 0, "missing")
    data = fs.read_bytes(path)
    if len(data) < len(WAL_MAGIC):
        return WalScan([], 0, len(data), "torn-tail")
    if data[:len(WAL_MAGIC)] != WAL_MAGIC:
        raise StorageError(f"{path!r} is not a WAL segment (bad magic)")
    records: List[WalRecord] = []
    good_end = len(WAL_MAGIC)
    expected = base_seq + 1
    stopped = "clean-end"
    for end, payload in iter_frames(data, good_end):
        try:
            decoded = json.loads(payload.decode("utf-8"))
            seq = decoded.pop("seq")
            op = decoded.pop("op")
        except (ValueError, KeyError, TypeError, AttributeError,
                UnicodeDecodeError):
            stopped = "undecodable-record"
            break
        if seq != expected:
            stopped = "sequence-break"
            break
        records.append(WalRecord(seq, op, decoded, end))
        good_end = end
        expected += 1
    else:
        stopped = "clean-end" if good_end == len(data) else "torn-tail"
    return WalScan(records, good_end, len(data), stopped)


def read_from(fs: FileSystem, path: str, after_seq: int,
              segment_base: int = 0, truncate: bool = False
              ) -> Tuple[List[WalRecord], WalScan]:
    """The committed records after ``after_seq`` in one segment.

    The one safe way to read a WAL tail: framing, CRCs, and the sequence
    chain are validated from the *segment base* (the seq the segment's
    first record must follow), the scan stops at the first torn or
    corrupt record, and only then is the result filtered down to
    ``seq > after_seq`` -- so a reader can never be handed records that
    sit beyond a tear.  With ``truncate=True`` the torn tail is also cut
    off the file (recovery's behavior; replication reads a *live*
    segment and must leave the file alone).  Returns ``(records,
    scan)`` -- the scan carries where the good prefix ends and why the
    scan stopped.

    Shared by recovery (``after_seq == segment_base``: replay
    everything) and WAL shipping (``after_seq`` = the replica's replay
    position).
    """
    scan = scan_wal(fs, path, base_seq=segment_base)
    if truncate and scan.torn_bytes \
            and scan.stopped not in ("clean-end", "missing"):
        fs.truncate(path, scan.good_end)
    if after_seq > segment_base:
        records = [r for r in scan.records if r.seq > after_seq]
    else:
        records = scan.records
    return records, scan


# ----------------------------------------------------------------------
# The log itself
# ----------------------------------------------------------------------

class WriteAheadLog:
    """Append-only sequenced log with group commit.

    One instance owns one open segment file.  ``stats`` (an
    :class:`repro.obs.EngineStats`) receives the ``wal_*`` counters when
    provided.
    """

    SYNC_POLICIES = ("always", "group")

    def __init__(self, path: str, fs: FileSystem = None,
                 sync: str = "group", sync_every: int = 1024,
                 base_seq: int = 0, start_offset: Optional[int] = None,
                 segment_base: Optional[int] = None, stats=None) -> None:
        if sync not in self.SYNC_POLICIES:
            raise StorageError(f"unknown WAL sync policy {sync!r}")
        self.path = path
        self.fs = fs or OS_FS
        self.sync = sync
        self.sync_every = max(1, sync_every)
        self.stats = stats
        self.last_seq = base_seq
        # The seq the segment's *first* record follows.  For a fresh
        # segment that is ``base_seq``; reopening an already-written
        # segment mid-stream (recovery resumes appending after replay)
        # must pass the original base so :meth:`read_from` can validate
        # the file's sequence chain from its true start.
        self.segment_base = (base_seq if segment_base is None
                             else segment_base)
        self._handle = None
        # (op, fields) of the open group, framed as ONE record at commit.
        self._buffer: List[Tuple[str, dict]] = []
        self._marks: List[int] = []             # buffer length at begin()
        # Committed frames not yet written to the file ("group" policy):
        # drained as one write + fsync per sync_every-record batch.
        self._pending = bytearray()
        self._pending_records = 0
        if self.fs.exists(path):
            if start_offset is None:
                start_offset = self.fs.size(path)
            self.offset = start_offset
            self._handle = self.fs.open_append(path)
        else:
            self._handle = self.fs.open_write(path)
            self._handle.write(WAL_MAGIC)
            self._handle.sync()
            self.offset = len(WAL_MAGIC)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, op: str, **fields) -> int:
        """Log one record; returns its sequence number.  Outside a group
        the record is committed (written + flushed/synced) immediately;
        inside a group it is buffered -- the whole group later becomes
        one ``txn`` record, so it consumes one sequence number at commit
        (the provisional number returned here)."""
        return self.append_fields(op, fields)

    def append_fields(self, op: str, fields: dict) -> int:
        """:meth:`append` taking the fields as an already-built dict the
        log may keep (the journal's hot path -- one dict, no kwargs
        re-expansion, framing inlined)."""
        if self.stats is not None:
            self.stats.wal_records += 1
        if self._marks:
            self._buffer.append((op, fields))
            return self.last_seq + 1
        seq = self.last_seq + 1
        record = dict(fields)
        record["seq"] = seq
        record["op"] = op
        self.last_seq = seq
        payload = _encode_json(record).encode("utf-8")
        self._write_out(
            _HEADER.pack(len(payload), zlib.crc32(payload)) + payload, 1)
        return seq

    def begin(self) -> None:
        """Open (or nest) a group-commit scope."""
        self._marks.append(len(self._buffer))

    def commit(self) -> None:
        """Close the innermost group; the outermost close writes the
        buffered operations as ONE framed record (a single-op group is
        written plain), so recovery replays the group all-or-nothing."""
        if not self._marks:
            raise StorageError("WAL commit without begin")
        self._marks.pop()
        if self._marks or not self._buffer:
            return
        seq = self.last_seq + 1
        if len(self._buffer) == 1:
            op, fields = self._buffer[0]
            record = {"seq": seq, "op": op}
            record.update(fields)
        else:
            record = {"seq": seq, "op": "txn",
                      "ops": [dict(fields, op=op)
                              for op, fields in self._buffer]}
        count = len(self._buffer)
        self._buffer.clear()
        self.last_seq = seq
        self._write_out(frame_record(record), count)

    def abort(self) -> None:
        """Discard the innermost group's buffered operations; nothing
        reaches the file and no sequence number is consumed."""
        if not self._marks:
            raise StorageError("WAL abort without begin")
        mark = self._marks.pop()
        if self.stats is not None:
            self.stats.wal_records -= len(self._buffer) - mark
        del self._buffer[mark:]

    @property
    def in_group(self) -> bool:
        return bool(self._marks)

    def _write_out(self, data: bytes, records: int) -> None:
        self.offset += len(data)
        if self.stats is not None:
            self.stats.wal_commits += 1
            self.stats.wal_bytes += len(data)
        if self.sync == "always":
            self._handle.write(data)
            self._handle.sync()
            if self.stats is not None:
                self.stats.wal_syncs += 1
            return
        self._pending += data
        self._pending_records += records
        if self._pending_records >= self.sync_every:
            self._drain(sync=True)

    def _drain(self, sync: bool) -> None:
        if self._pending:
            self._handle.write(bytes(self._pending))
            self._pending.clear()
        self._pending_records = 0
        if sync:
            self._handle.sync()
            if self.stats is not None:
                self.stats.wal_syncs += 1

    # ------------------------------------------------------------------
    # Reading the tail (replication's ship path)
    # ------------------------------------------------------------------

    def read_from(self, after_seq: int,
                  max_records: Optional[int] = None) -> List["WalRecord"]:
        """Committed records after ``after_seq`` from this live segment.

        This is the latent-tail hazard :func:`read_from` exists for,
        applied to an *open* log: under the ``"group"`` sync policy,
        acknowledged commits sit in a process-side buffer and in the
        file handle's userspace buffer -- a raw read of the path would
        miss a suffix of committed records (or worse, see a torn partial
        write of one).  This method first pushes both buffers to the OS
        (``flush``, no fsync -- durability is unchanged; shipping is
        about *visibility*), then scans the file with full framing and
        sequence validation.  A torn tail in a live segment means the
        log writer itself is broken, so it raises instead of silently
        shipping a prefix.
        """
        if self._marks:
            raise StorageError(
                "cannot read the WAL tail inside an open group")
        self._drain(sync=False)
        self._handle.flush()
        records, scan = read_from(self.fs, self.path, after_seq,
                                  segment_base=self.segment_base)
        if scan.stopped != "clean-end":
            raise StorageError(
                f"live WAL segment {self.path!r} has a torn tail "
                f"({scan.stopped}) -- refusing to ship")
        if max_records is not None and len(records) > max_records:
            records = records[:max_records]
        return records

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Force everything appended so far to stable storage."""
        if self._buffer or self._marks:
            raise StorageError("cannot flush inside an open WAL group")
        self._drain(sync=True)

    def close(self) -> None:
        if self._handle is None:
            return
        if not self._marks and self._buffer:
            # Defensive: a dangling buffer means an unbalanced group.
            self._buffer.clear()
        self._drain(sync=True)
        self._handle.close()
        self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None


def dump_wal(fs: FileSystem, path: str, base_seq: int = 0) -> List[str]:
    """Human-readable rendering of a segment, for ``repro wal-dump``."""
    def render(seq_text: str, op: str, fields: dict, out: List[str],
               indent: str = "") -> None:
        parts = [f"{indent}{seq_text:>6}  {op:<12}"]
        fields = dict(fields)
        sid = fields.pop("sid", None)
        if sid is not None:
            parts.append(f"@{sid}")
        if "rows" in fields:
            parts.append(f"rows={len(fields.pop('rows'))}")
        subs = fields.pop("ops", None)
        if subs is not None:
            parts.append(f"ops={len(subs)}")
        for key in sorted(fields):
            parts.append(f"{key}={json.dumps(fields[key], sort_keys=True)}")
        out.append(" ".join(parts))
        for sub in subs or ():
            sub = dict(sub)
            render("-", sub.pop("op"), sub, out, indent="  ")

    scan = scan_wal(fs, path, base_seq=base_seq)
    lines: List[str] = []
    for record in scan.records:
        render(str(record.seq), record.op, record.fields, lines)
    if scan.stopped == "missing":
        lines.append("(no WAL segment)")
    elif scan.stopped != "clean-end":
        lines.append(f"!! torn tail: {scan.torn_bytes} byte(s) after "
                     f"offset {scan.good_end} ({scan.stopped})")
    return lines
