"""Old bytes still open.  ``tests/fixtures/parent_wal/`` holds two
WAL-only store directories (single, and 2-shard) written by the commit
before the journal adopted the op table's spelling: ``mode`` where a
request says ``check``, bulk rows as ``{"sid", "classes", "values"}``
mappings.  ``generate.py`` beside them is the workload -- every
journaled op, each with a non-default check mode somewhere -- and
printed the digests pinned here."""

from __future__ import annotations

import hashlib
import pathlib
import shutil

from repro.cli import main
from repro.objects.store import ObjectStore
from repro.sharding.router import ShardedStore
from repro.storage.fsio import OS_FS
from repro.storage.recovery import read_manifest
from repro.storage.wal import scan_wal

from tests.faultfs import store_digest

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "parent_wal"
SINGLE = "fcb2c13179574360decea12c7778bc73cd691ae73d6a2fa4239b852094add723"
SHARDED = "93b02f98a6d8e30d602da759897bc8961a5cd5a192cea25a6518567138a0b287"
LOGGED_OPS = {"create", "set", "unset", "classify", "declassify",
              "remove", "txn", "bulk", "alter", "validate"}


def _fingerprint(stores) -> str:
    return hashlib.sha256(
        repr([store_digest(s) for s in stores]).encode()).hexdigest()


def _copy(tmp_path, name: str) -> str:
    # Opening a directory truncates torn tails and may rewrite the
    # manifest: never open the checked-in bytes in place.
    return shutil.copytree(FIXTURE / name, tmp_path / name).as_posix()


def test_fixture_holds_the_old_spelling_of_every_logged_op():
    wal = read_manifest(OS_FS, str(FIXTURE / "single"))["wal"]
    records = scan_wal(OS_FS, str(FIXTURE / "single" / wal["file"])).records
    assert {r.op for r in records} == LOGGED_OPS
    flat = [r.fields for r in records] + [
        sub for r in records for sub in r.fields.get("ops", ())]
    assert any("mode" in fields for fields in flat)
    assert not any("check" in fields for fields in flat)
    assert all(isinstance(row, dict) for fields in flat
               for row in fields.get("rows", ()))


def test_single_directory_recovers_to_the_pinned_digest(tmp_path):
    store = ObjectStore.open(_copy(tmp_path, "single"))
    try:
        report = store.last_recovery
        assert (report.checkpoint_objects, report.replayed) == (0, 19)
        assert len(store) == 11
        # carl (age 777, loaded deferred) is the workload's one violator.
        assert [str(obj.surrogate) for obj, _v in report.violations] == ["@11"]
        assert _fingerprint([store]) == SINGLE
    finally:
        store.close()


def test_sharded_directory_recovers_to_the_pinned_digest(tmp_path):
    store = ShardedStore.open(_copy(tmp_path, "sharded"), processes=False)
    try:
        assert len(store) == 10
        assert _fingerprint(
            [b.server.store for b in store._backends]) == SHARDED
        # ... and keeps minting where the old router stopped.
        assert store.create("Ward", floor=9, name="z").surrogate.id == 12
    finally:
        store.close()


def test_wal_dump_renders_both_spellings(tmp_path, capsys):
    directory = _copy(tmp_path, "single")
    assert main(["wal-dump", directory]) == 0
    old = capsys.readouterr().out
    assert 'mode="deferred"' in old and "rows=4" in old
    store = ObjectStore.open(directory)
    store.set_value(store.extent("Patient")[0], "age", 33, check="none")
    store.bulk_load([("Ward", {"floor": 8, "name": "n"})])
    store.close()
    assert main(["wal-dump", directory]) == 0
    new = capsys.readouterr().out
    assert new.startswith(old.rstrip("\n"))
    assert 'check="none"' in new and 'rows=1 check="deferred"' in new
