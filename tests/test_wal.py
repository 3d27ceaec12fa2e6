"""The write-ahead log: framing, scanning, group commit, and the value
examples the codec property (``tests/test_codec.py``) does not state."""

import json
import zlib

import pytest

from repro.codec import decode_value, encode_value
from repro.errors import StorageError
from repro.storage.wal import (
    WAL_MAGIC,
    WriteAheadLog,
    dump_wal,
    frame,
    frame_record,
    iter_frames,
    scan_wal,
)
from repro.typesys.values import INAPPLICABLE, EnumSymbol, RecordValue

from tests.faultfs import MemFS


@pytest.fixture()
def fs():
    return MemFS()


def _wal(fs, **kwargs):
    return WriteAheadLog("/w/log", fs=fs, **kwargs)


def _append(wal, op, **fields):
    """Frame now, put later: one record, as the pipeline logs it."""
    return wal.put(op, fields, wal.frame(op, fields))


def _commit(wal):
    sealed = wal.seal()
    if sealed:
        wal.write_out(*sealed)


class TestFraming:
    def test_frame_roundtrip(self):
        payload = b'{"seq":1}'
        data = frame(payload)
        frames = list(iter_frames(data))
        assert frames == [(len(data), payload)]

    def test_iter_frames_stops_at_short_frame(self):
        data = frame(b"aaaa") + frame(b"bbbb")[:-2]
        assert [p for _, p in iter_frames(data)] == [b"aaaa"]

    def test_iter_frames_stops_at_bad_crc(self):
        good = frame(b"aaaa")
        bad = bytearray(frame(b"bbbb"))
        bad[-1] ^= 0xFF
        assert [p for _, p in iter_frames(good + bytes(bad))] == [b"aaaa"]

    def test_frame_record_is_canonical_json(self):
        data = frame_record({"b": 1, "a": 2})
        _, payload = next(iter_frames(data))
        assert payload == b'{"a":2,"b":1}'


class TestAppendScan:
    def test_records_replayable_in_order(self, fs):
        wal = _wal(fs)
        assert _append(wal, "create", sid=1) == 1
        assert _append(wal, "set", sid=1, attr="a") == 2
        wal.close()
        scan = scan_wal(fs, "/w/log")
        assert [(r.seq, r.op) for r in scan.records] == [
            (1, "create"), (2, "set")]
        assert scan.records[1].fields == {"sid": 1, "attr": "a"}
        assert scan.stopped == "clean-end"
        assert scan.torn_bytes == 0

    def test_magic_header(self, fs):
        _wal(fs).close()
        assert fs.read_bytes("/w/log").startswith(WAL_MAGIC)
        fs2 = MemFS({"/w/log": b"not-a-wal-at-all"})
        with pytest.raises(StorageError, match="magic"):
            scan_wal(fs2, "/w/log")

    def test_missing_segment(self, fs):
        scan = scan_wal(fs, "/nope")
        assert scan.stopped == "missing"
        assert scan.records == []

    def test_torn_tail_detected_and_bounded(self, fs):
        wal = _wal(fs)
        _append(wal, "create", sid=1)
        _append(wal, "create", sid=2)
        wal.close()
        whole = fs.read_bytes("/w/log")
        for cut in range(1, 9):
            torn = MemFS({"/w/log": whole[:-cut]})
            scan = scan_wal(torn, "/w/log")
            assert [r.seq for r in scan.records] == [1]
            assert scan.stopped == "torn-tail"
            assert scan.good_end + scan.torn_bytes == len(whole) - cut

    def test_bit_flip_truncates_from_flip_point(self, fs):
        wal = _wal(fs)
        _append(wal, "create", sid=1)
        mid = wal.offset
        _append(wal, "create", sid=2)
        wal.close()
        fs.bit_flip("/w/log", mid + 10)
        scan = scan_wal(fs, "/w/log")
        assert [r.seq for r in scan.records] == [1]
        assert scan.good_end == mid

    def test_sequence_break_stops_scan(self, fs):
        wal = _wal(fs)
        _append(wal, "create", sid=1)
        wal.close()
        # Hand-append a record that skips seq 2.
        rogue = frame_record({"seq": 3, "op": "create", "sid": 3})
        handle = fs.open_append("/w/log")
        handle.write(rogue)
        handle.close()
        scan = scan_wal(fs, "/w/log")
        assert [r.seq for r in scan.records] == [1]
        assert scan.stopped == "sequence-break"

    def test_undecodable_payload_stops_scan(self, fs):
        wal = _wal(fs)
        _append(wal, "create", sid=1)
        wal.close()
        handle = fs.open_append("/w/log")
        handle.write(frame(b"[1, 2, 3]"))   # valid JSON, not a record
        handle.close()
        scan = scan_wal(fs, "/w/log")
        assert [r.seq for r in scan.records] == [1]
        assert scan.stopped == "undecodable-record"

    def test_base_seq_offsets_the_chain(self, fs):
        wal = _wal(fs, base_seq=41)
        assert _append(wal, "set", sid=9) == 42
        wal.close()
        assert [r.seq for r in scan_wal(fs, "/w/log", base_seq=41).records
                ] == [42]
        # Scanning with the wrong base reports a break, replays nothing.
        assert scan_wal(fs, "/w/log", base_seq=0).records == []

    def test_a_frame_is_dropped_unless_put(self, fs):
        wal = _wal(fs)
        wal.frame("set", {"sid": 1})       # its command changed nothing
        assert _append(wal, "set", sid=2) == 1
        wal.close()
        assert [(r.seq, r.fields["sid"]) for r in scan_wal(fs, "/w/log")
                .records] == [(1, 2)]

    def test_one_call_append_is_frame_then_put(self, fs):
        # The e2e harness probes append_fields and traces append/commit.
        wal = _wal(fs)
        assert wal.append("create", sid=1) == 1
        assert wal.append_fields("set", {"sid": 1}) == 2
        wal.begin()
        wal.append("set", sid=2)
        wal.commit()
        wal.close()
        assert [(r.seq, r.op) for r in scan_wal(fs, "/w/log").records] == [
            (1, "create"), (2, "set"), (3, "set")]

    def test_reopen_appends_after_existing_records(self, fs):
        wal = _wal(fs)
        _append(wal, "create", sid=1)
        wal.close()
        wal2 = _wal(fs, base_seq=1)
        _append(wal2, "create", sid=2)
        wal2.close()
        assert [r.seq for r in scan_wal(fs, "/w/log").records] == [1, 2]


class TestGroupCommit:
    def test_commit_writes_group_as_one_txn_record(self, fs):
        wal = _wal(fs)
        before = fs.size("/w/log")
        wal.begin()
        _append(wal, "set", sid=1)
        _append(wal, "set", sid=2)
        assert fs.size("/w/log") == before      # buffered, not written
        _commit(wal)
        wal.close()
        records = scan_wal(fs, "/w/log").records
        assert [(r.seq, r.op) for r in records] == [(1, "txn")]
        assert [sub["sid"] for sub in records[0].fields["ops"]] == [1, 2]

    def test_torn_txn_frame_drops_the_whole_group(self, fs):
        # Transaction atomicity across recovery hinges on the group
        # occupying ONE frame: any torn suffix removes it entirely.
        wal = _wal(fs)
        _append(wal, "create", sid=1)
        wal.begin()
        _append(wal, "set", sid=1, attr="a")
        _append(wal, "set", sid=1, attr="b")
        _commit(wal)
        wal.close()
        whole = fs.read_bytes("/w/log")
        first_end = scan_wal(fs, "/w/log").records[0].end_offset
        for cut in range(1, len(whole) - first_end):
            torn = MemFS({"/w/log": whole[:-cut]})
            scan = scan_wal(torn, "/w/log")
            assert [r.op for r in scan.records] == ["create"]

    def test_abort_leaves_no_trace_and_rolls_seq_back(self, fs):
        wal = _wal(fs)
        _append(wal, "set", sid=1)
        wal.begin()
        _append(wal, "set", sid=2)
        wal.abort()
        seq = _append(wal, "set", sid=3)
        wal.close()
        assert seq == 2
        scan = scan_wal(fs, "/w/log")
        assert [(r.seq, r.fields["sid"]) for r in scan.records] == [
            (1, 1), (2, 3)]

    def test_nested_groups_commit_atomically_at_outermost(self, fs):
        wal = _wal(fs)
        before = fs.size("/w/log")
        wal.begin()
        _append(wal, "set", sid=1)
        wal.begin()
        _append(wal, "set", sid=2)
        _commit(wal)
        assert fs.size("/w/log") == before
        _commit(wal)
        wal.close()
        records = scan_wal(fs, "/w/log").records
        assert [(r.seq, r.op) for r in records] == [(1, "txn")]
        assert len(records[0].fields["ops"]) == 2

    def test_inner_abort_keeps_outer_records(self, fs):
        wal = _wal(fs)
        wal.begin()
        _append(wal, "set", sid=1)
        wal.begin()
        _append(wal, "set", sid=2)
        wal.abort()
        _commit(wal)
        wal.close()
        assert [(r.seq, r.fields["sid"])
                for r in scan_wal(fs, "/w/log").records] == [(1, 1)]

    def test_unbalanced_commit_raises(self, fs):
        wal = _wal(fs)
        with pytest.raises(StorageError):
            wal.seal()
        with pytest.raises(StorageError):
            wal.abort()

    def test_flush_inside_group_raises(self, fs):
        wal = _wal(fs)
        wal.begin()
        _append(wal, "set", sid=1)
        with pytest.raises(StorageError):
            wal.flush()
        _commit(wal)
        wal.close()


class TestSyncPolicies:
    def test_always_syncs_every_commit(self, fs):
        wal = _wal(fs, sync="always")
        _append(wal, "set", sid=1)
        assert fs.files["/w/log"].durable == fs.files["/w/log"].cached

    def test_group_buffers_until_flush(self, fs):
        wal = _wal(fs, sync="group", sync_every=1000)
        _append(wal, "set", sid=1)
        file = fs.files["/w/log"]
        # Batched: the record sits in the process-side buffer (it would
        # be lost in a crash -- the documented bounded loss window) ...
        assert file.cached == file.durable == WAL_MAGIC
        wal.flush()
        # ... and one flush makes the whole batch durable.
        assert file.durable == file.cached
        assert len(file.durable) > len(WAL_MAGIC)

    def test_group_syncs_every_n_records(self, fs):
        wal = _wal(fs, sync="group", sync_every=3)
        for i in range(3):
            _append(wal, "set", sid=i)
        file = fs.files["/w/log"]
        assert file.durable == file.cached

    def test_unknown_policy_rejected(self, fs):
        with pytest.raises(StorageError):
            _wal(fs, sync="every-other-tuesday")


class TestValueCodec:
    def test_record_value_nested(self):
        rec = RecordValue({"a": 1, "b": EnumSymbol("X")})
        out = decode_value(encode_value(rec), None)
        assert isinstance(out, RecordValue)
        assert out.get_value("a") == 1
        assert out.get_value("b") == EnumSymbol("X")

    def test_entity_by_surrogate(self, hospital_schema):
        from repro.objects.store import ObjectStore
        store = ObjectStore(hospital_schema)
        ward = store.create("Ward", floor=1, name="W")
        encoded = encode_value(ward)
        assert encoded == {"$": "ref", "id": ward.surrogate.id}
        assert decode_value(encoded, {ward.surrogate.id: ward}.get) \
            is ward

    def test_unserializable_value_rejected(self):
        with pytest.raises(StorageError):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(StorageError):
            decode_value({"$": "wat"}, None)

    def test_encoding_is_json_safe(self):
        rec = RecordValue({"x": INAPPLICABLE})
        json.dumps(encode_value(rec))  # must not raise


class TestDump:
    def test_dump_renders_records_and_torn_tail(self, fs):
        wal = _wal(fs)
        _append(wal, "create", sid=1, cls="Ward", mode="eager", values={})
        _append(wal, "bulk", mode="deferred", rows=[{}, {}])
        wal.close()
        handle = fs.open_append("/w/log")
        handle.write(b"\xff\xff garbage")
        handle.close()
        lines = dump_wal(fs, "/w/log")
        assert any("create" in line and "@1" in line for line in lines)
        assert any("rows=2" in line for line in lines)
        assert "torn tail" in lines[-1]

    def test_dump_missing_segment(self, fs):
        assert dump_wal(fs, "/nope") == ["(no WAL segment)"]


class TestStatsCounters:
    def test_wal_counters_tick(self, fs):
        from repro.obs import EngineStats
        stats = EngineStats()
        wal = _wal(fs, stats=stats, sync="always")
        wal.begin()
        _append(wal, "set", sid=1)
        _append(wal, "set", sid=2)
        _commit(wal)
        assert stats.wal_records == 2
        assert stats.wal_commits == 1
        assert stats.wal_syncs >= 1
        assert stats.wal_bytes > 0
        wal.begin()
        _append(wal, "set", sid=3)
        wal.abort()
        assert stats.wal_records == 2   # rolled back with the abort
        wal.close()

    def test_crc_matches_zlib(self):
        payload = b'{"op":"x","seq":1}'
        data = frame(payload)
        length, crc = int.from_bytes(data[:4], "big"), \
            int.from_bytes(data[4:8], "big")
        assert length == len(payload)
        assert crc == zlib.crc32(payload)
