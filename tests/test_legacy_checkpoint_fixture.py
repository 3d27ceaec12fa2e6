"""Old checkpoints still open.  ``tests/fixtures/parent_ckpt/store`` is a
WAL store directory written by the commit before the store image was
batched by signature: its checkpoint holds one row frame ``{"sid",
"classes", "values"}`` per object.  ``generate.py`` beside it is the
workload -- a populated virtual class, the ``age`` index, dirty
objects, a negative range and a stored ``None`` -- and printed the
digest pinned here."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil

from repro.objects.store import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.storage.fsio import OS_FS
from repro.storage.recovery import read_manifest
from repro.storage.wal import WAL_MAGIC, iter_frames

from tests.faultfs import store_digest

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "parent_ckpt"
OBJECTS = 61
DIGEST = "62cfdeff4abad21610f95bc916c137d529ae0d94fb95bf3fd6b0b7f90ce96eae"


def _digest(store) -> str:
    return hashlib.sha256(repr(store_digest(store)).encode()).hexdigest()


def _frames(directory: str) -> list:
    """The checkpoint's records after its header."""
    entry = read_manifest(OS_FS, directory)["checkpoint"]
    data = pathlib.Path(directory, entry["file"]).read_bytes()
    return [json.loads(payload) for _end, payload
            in iter_frames(data, len(WAL_MAGIC))][1:]


def _copy(tmp_path) -> str:
    # Opening a directory may rewrite it: never open the checked-in
    # bytes in place.
    return shutil.copytree(FIXTURE / "store", tmp_path / "store").as_posix()


def test_fixture_holds_one_row_frame_per_object():
    frames = _frames(str(FIXTURE / "store"))
    assert len(frames) == OBJECTS
    assert all(set(frame) == {"sid", "classes", "values"}
               for frame in frames)
    assert any(value is None for frame in frames
               for value in frame["values"].values())


def test_row_frames_recover_to_the_pinned_digest(tmp_path):
    store = ObjectStore.open(_copy(tmp_path))
    try:
        report = store.last_recovery
        assert (report.checkpoint_objects, report.replayed) == (OBJECTS, 0)
        assert report.checkpoint_batches == OBJECTS
        assert _digest(store) == DIGEST
        assert store_digest(store)[1], "a virtual class is populated"
        assert store._dirty, "the dirty ledger came back"
        assert list(store.indexes.attributes()) == ["age"]
        assert store.indexes.get("age").lookup(999)
        readings = [obj.get_value("reading")
                    for obj in store.instances()
                    if obj.memberships == {"Thermometer"}]
        assert readings == [-12, None]
        assert store.get(Surrogate(OBJECTS)).value_names() == ("reading",)
    finally:
        store.close()


def test_a_checkpoint_rewrites_rows_as_batches(tmp_path):
    directory = _copy(tmp_path)
    store = ObjectStore.open(directory)
    manifest = store.checkpoint()
    store.close()
    frames = _frames(directory)
    assert all(set(frame) == {"classes", "sids", "cols"}
               for frame in frames)
    assert len(frames) == manifest["checkpoint"]["batches"] < OBJECTS
    assert sum(len(frame["sids"]) for frame in frames) == OBJECTS
    again = ObjectStore.open(directory)
    try:
        assert again.last_recovery.checkpoint_batches == len(frames)
        assert _digest(again) == DIGEST
        assert not os.path.exists(os.path.join(directory, "schema-2.cdl"))
    finally:
        again.close()
