"""Crash recovery: the files of a durable directory, and the store image.

This module owns the directory -- manifest, checkpoint file, schema
file, WAL segment, and the order they are replaced in -- the tail scan,
and the **store image** (:func:`store_image` / :func:`install_image`):
the one producer and the one installer of a populated store as data,
which the checkpoint file and the replication catch-up dump both use.
It does not know what a log record means:
each one is an op-table command, and :func:`repro.ops.replay` runs it.

A durable store directory contains::

    MANIFEST               -- JSON commit point (always replaced atomically)
    schema.cdl             -- the schema, pretty-printed (self-contained
                              dir); checkpoints supersede it with a
                              generation-suffixed ``schema-<g>.cdl`` so
                              online schema changes persist atomically
    checkpoint-<g>.ckpt    -- framed instance records, CRC32 per frame,
                              whole-file length+CRC recorded in MANIFEST
    wal-<g>.log            -- the active WAL segment (durability="wal")

``<g>`` is the checkpoint generation: every checkpoint writes a *new*
checkpoint file and a *new* WAL segment, then atomically replaces the
MANIFEST to point at them, then deletes the superseded generation.  A
crash at any point leaves either the old MANIFEST (old checkpoint + old
WAL, both intact) or the new one (new checkpoint + fresh WAL) -- never a
mix, and never a clobbered previous snapshot.

Recovery (:func:`recover_store`):

1. read the MANIFEST; load the schema (unless one is supplied);
2. load the last good checkpoint, validating length and CRC, and
   install its image -- rebuilding every derived structure: extents
   (IS-A closed), virtual-class reference counts, secondary indexes,
   the dirty ledger, the surrogate allocator;
3. replay the WAL tail **through the op table** -- the row a client's
   request would have run, so the conformance invariants are
   re-established by the live path rather than trusted;
4. truncate a torn tail at the first bad CRC / short frame / sequence
   break (a crash can tear at most the suffix);
5. validate every object (the ``validate_all`` sweep, non-destructively)
   and report violations in the :class:`RecoveryReport`.

The recovered state is always a **prefix** of the committed operation
sequence: whole operations (and whole bulk batches / transactions, which
are one record / one group), never a hybrid.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.codec import decode_value, encode_values
from repro.errors import StorageError
from repro.objects.instance import Instance
from repro.objects.surrogate import Surrogate
from repro.ops import replay
from repro.storage.fsio import OS_FS, FileSystem, atomic_write_bytes
from repro.storage.wal import (
    WAL_MAGIC,
    WriteAheadLog,
    frame_record,
    iter_frames,
    read_from,
)
from repro.typesys.values import is_entity

MANIFEST_NAME = "MANIFEST"
SCHEMA_NAME = "schema.cdl"
MANIFEST_FORMAT = 1

DURABILITY_WAL = "wal"
DURABILITY_NONE = "none"


@dataclass
class RecoveryReport:
    """What one recovery did (see module docstring for the phases)."""

    directory: str
    checkpoint_objects: int = 0
    replayed: int = 0
    last_seq: int = 0
    truncated_bytes: int = 0
    wal_stopped: str = "clean-end"
    violations: List[Tuple[Instance, object]] = field(default_factory=list)

    @property
    def conformant(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        lines = [
            f"recovered {self.directory}",
            f"  checkpoint objects : {self.checkpoint_objects}",
            f"  wal records replayed: {self.replayed} "
            f"(through seq {self.last_seq})",
        ]
        if self.truncated_bytes:
            lines.append(f"  torn tail truncated : "
                         f"{self.truncated_bytes} byte(s) "
                         f"({self.wal_stopped})")
        lines.append(f"  validate_all        : "
                     f"{len(self.violations)} violation(s)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Manifest + checkpoint files
# ----------------------------------------------------------------------

def _manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def read_manifest(fs: FileSystem, directory: str) -> dict:
    path = _manifest_path(directory)
    if not fs.exists(path):
        raise StorageError(
            f"{directory!r} is not a durable store (no {MANIFEST_NAME})")
    try:
        manifest = json.loads(fs.read_bytes(path).decode("utf-8"))
    except ValueError as exc:
        raise StorageError(
            f"corrupt {MANIFEST_NAME} in {directory!r}: {exc}") from exc
    if manifest.get("format") != MANIFEST_FORMAT:
        raise StorageError(
            f"unsupported manifest format {manifest.get('format')!r}")
    return manifest


def _write_manifest(fs: FileSystem, directory: str,
                    manifest: dict) -> None:
    data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(
        "utf-8")
    atomic_write_bytes(fs, _manifest_path(directory), data)


def store_image(store) -> Tuple[dict, Iterator[list]]:
    """A populated store as data: ``(header, rows)``.  The header holds
    what is not derivable from the objects -- the surrogate high-water
    mark, the dirty ledger, the indexed attributes; each row is
    ``[sid, direct classes, encoded values]``, in sid order, produced
    lazily.  The checkpoint file and the replication catch-up dump are
    both this image behind their own framing."""
    header = {
        "next_surrogate": store._allocator._next,
        "dirty": {str(surrogate.id):
                  (None if attrs is None else sorted(attrs))
                  for surrogate, attrs in store._dirty.items()},
        "indexes": list(store.indexes.attributes()),
    }
    objects = store._objects
    rows = ([surrogate.id, sorted(objects[surrogate]._memberships),
             encode_values(objects[surrogate]._values)]
            for surrogate in sorted(objects))
    return header, rows


def install_image(store, header: dict, rows) -> int:
    """Populate an empty ``store`` from :func:`store_image` data and
    rebuild every derived structure: objects with their references
    relinked, extents (IS-A closed), virtual-class reference counts,
    the dirty ledger, the allocator, the indexes.  Nothing here checks
    conformance -- an image is state, not history; callers that cannot
    vouch for it mark it dirty or validate.  Returns the object count."""
    if len(store):
        raise StorageError("a store image installs only into an empty "
                           "store")
    shells: Dict[int, Tuple[Instance, dict]] = {
        sid: (Instance(Surrogate(sid), classes), values)
        for sid, classes, values in rows}

    def resolve(sid: int):
        try:
            return shells[sid][0]
        except KeyError:
            raise StorageError(
                f"store image references unknown object @{sid}") from None

    for obj, encoded in shells.values():
        for name, value in encoded.items():
            obj._values[name] = decode_value(value, resolve)
        store._register_object(obj)
        for class_name in obj.memberships:
            store._add_to_extents(obj, class_name)
    # Each entity value sitting on a virtual class's home attribute of
    # a member of the owner class holds one reference.
    refs = store._virtual_refs
    for obj, _encoded in shells.values():
        for name, value in obj._values.items():
            if is_entity(value):
                for cdef in store._home_virtuals(obj, name):
                    key = (cdef.name, value.surrogate)
                    refs[key] = refs.get(key, 0) + 1
    for sid_text, attrs in header.get("dirty", {}).items():
        store._dirty[Surrogate(int(sid_text))] = (
            None if attrs is None else set(attrs))
    store._allocator._next = header["next_surrogate"]
    for attribute in header.get("indexes", ()):
        store.create_index(attribute)
    return len(shells)


def _write_checkpoint(fs: FileSystem, directory: str, store,
                      generation: int) -> dict:
    """Write ``checkpoint-<generation>.ckpt`` atomically; returns its
    manifest entry."""
    header, rows = store_image(store)
    chunks: List[bytes] = [WAL_MAGIC, frame_record({
        "kind": "header", "next_surrogate": header["next_surrogate"],
        "dirty": header["dirty"]})]
    chunks.extend(
        frame_record({"sid": sid, "classes": classes, "values": values})
        for sid, classes, values in rows)
    data = b"".join(chunks)
    name = f"checkpoint-{generation}.ckpt"
    atomic_write_bytes(fs, os.path.join(directory, name), data)
    return {"file": name, "length": len(data), "crc": zlib.crc32(data),
            "objects": len(chunks) - 2}


def _load_checkpoint(fs: FileSystem, directory: str, store,
                     entry: dict, indexes) -> int:
    """Validate a checkpoint file (length, CRCs, header first, object
    count) and install its image, with the manifest's ``indexes``."""
    path = os.path.join(directory, entry["file"])
    if not fs.exists(path):
        raise StorageError(f"checkpoint file {entry['file']!r} is missing")
    data = fs.read_bytes(path)
    if len(data) != entry["length"]:
        raise StorageError(
            f"checkpoint {entry['file']!r} is truncated: expected "
            f"{entry['length']} bytes, found {len(data)}")
    if zlib.crc32(data) != entry["crc"]:
        raise StorageError(
            f"checkpoint {entry['file']!r} is corrupt (checksum mismatch)")
    if data[:len(WAL_MAGIC)] != WAL_MAGIC:
        raise StorageError(
            f"checkpoint {entry['file']!r} has a bad magic header")

    frames = iter_frames(data, len(WAL_MAGIC))
    consumed, payload = next(frames, (len(WAL_MAGIC), None))
    if payload is None:
        raise StorageError(f"checkpoint {entry['file']!r} is empty")
    header = json.loads(payload.decode("utf-8"))
    if header.get("kind") != "header":
        raise StorageError(
            f"checkpoint {entry['file']!r} lacks its header record")

    def rows():
        # Streamed into the installer: a second copy of the population
        # as rows would double the live containers the collector walks.
        nonlocal consumed
        for consumed, payload in frames:
            record = json.loads(payload.decode("utf-8"))
            yield record["sid"], record["classes"], record["values"]

    count = install_image(store, dict(header, indexes=indexes), rows())
    if consumed != len(data):
        # The whole-file CRC matched, so an inner framing error means a
        # writer bug, not a crash; fail loudly.
        raise StorageError(
            f"checkpoint {entry['file']!r} has undecodable records")
    if count != entry["objects"]:
        raise StorageError(
            f"checkpoint {entry['file']!r}: expected {entry['objects']} "
            f"objects, found {count}")
    return count


# ----------------------------------------------------------------------
# Checkpoint + open/recover entry points
# ----------------------------------------------------------------------

def store_config(store) -> dict:
    return {
        "check_mode": store.check_mode,
        "strict_virtual_extents": store.strict_virtual_extents,
        "require_values": store.checker.require_values,
    }


def checkpoint_store(store: "DurableObjectStore") -> dict:
    """Atomically snapshot ``store`` into its directory and rotate the
    WAL; returns the new manifest."""
    from repro.objects.durable import StoreJournal
    fs = store.fs
    directory = store.directory
    journal = store._journal
    old = getattr(store, "_manifest", None) or {}
    generation = old.get("generation", 0) + 1

    if journal is not None:
        if journal.wal.in_group:
            raise StorageError(
                "cannot checkpoint inside an open transaction")
        journal.wal.flush()
        base_seq = journal.wal.last_seq
    else:
        base_seq = 0

    # Persist the *current* schema epoch alongside the checkpoint: online
    # schema changes rotate out of the WAL here, so the stored schema must
    # describe the epoch the checkpointed objects were written under.  The
    # file is generation-suffixed (like the checkpoint and WAL) so a crash
    # before the manifest swap leaves the old manifest pointing at the old
    # schema file, intact and checksum-consistent.
    from repro.lang import print_schema
    schema_text = print_schema(store.schema).encode("utf-8")
    schema_name = f"schema-{generation}.cdl"
    atomic_write_bytes(fs, os.path.join(directory, schema_name),
                       schema_text)

    manifest = {
        "format": MANIFEST_FORMAT,
        "generation": generation,
        "durability": store.durability,
        "store": store_config(store),
        "indexes": list(store.indexes.attributes()),
        "checkpoint": _write_checkpoint(fs, directory, store, generation),
        "schema": {"file": schema_name, "crc": zlib.crc32(schema_text)},
    }

    new_wal = None
    if store.durability == DURABILITY_WAL:
        wal_name = f"wal-{generation}.log"
        new_wal = WriteAheadLog(
            os.path.join(directory, wal_name), fs=fs,
            sync=store.sync_policy, base_seq=base_seq,
            stats=store.checker.stats)
        manifest["wal"] = {"file": wal_name, "base_seq": base_seq}

    _write_manifest(fs, directory, manifest)

    # Swap the journal to the fresh segment, then GC the old generation.
    if journal is not None:
        journal.wal.close()
    if new_wal is not None:
        if journal is not None:
            journal.wal = new_wal
        else:
            store._journal = StoreJournal(new_wal)
    old_gen = old.get("generation")
    if old_gen is not None and old_gen != generation:
        old_ckpt = (old.get("checkpoint") or {}).get("file")
        if old_ckpt:
            fs.remove(os.path.join(directory, old_ckpt))
        old_wal = (old.get("wal") or {}).get("file")
        if old_wal:
            fs.remove(os.path.join(directory, old_wal))
        old_schema = (old.get("schema") or {}).get("file")
        if old_schema and old_schema != schema_name \
                and fs.exists(os.path.join(directory, old_schema)):
            fs.remove(os.path.join(directory, old_schema))
    store._manifest = manifest
    store.checker.stats.checkpoints += 1
    return manifest


def open_store(directory: str, schema=None, durability: str = None,
               fs: Optional[FileSystem] = None, sync: str = "group",
               sync_every: int = 1024, validate: bool = True,
               **store_kwargs) -> "DurableObjectStore":
    """Open (initialize or recover) a durable store directory.

    ``durability`` defaults to the directory's manifest for existing
    stores and to ``"wal"`` for fresh ones.  Extra keyword arguments are
    forwarded to :class:`~repro.objects.store.ObjectStore` (for existing
    stores they override the persisted configuration).
    """
    from repro.objects.durable import DurableObjectStore, StoreJournal
    fs = fs or OS_FS
    if fs.exists(_manifest_path(directory)):
        return recover_store(directory, schema=schema,
                             durability=durability, fs=fs, sync=sync,
                             sync_every=sync_every, validate=validate,
                             **store_kwargs)

    if schema is None:
        raise StorageError(
            f"{directory!r} has no store yet; opening a fresh one "
            "requires a schema")
    durability = durability or DURABILITY_WAL
    if durability not in (DURABILITY_WAL, DURABILITY_NONE):
        raise StorageError(f"unknown durability level {durability!r}")
    fs.makedirs(directory)

    from repro.lang import print_schema
    schema_text = print_schema(schema).encode("utf-8")
    atomic_write_bytes(fs, os.path.join(directory, SCHEMA_NAME),
                       schema_text)

    store = DurableObjectStore(schema, directory=directory, fs=fs,
                               durability=durability, sync=sync,
                               **store_kwargs)
    manifest = {
        "format": MANIFEST_FORMAT,
        "generation": 1,
        "durability": durability,
        "store": store_config(store),
        "indexes": [],
        "checkpoint": _write_checkpoint(fs, directory, store, 1),
        "schema": {"file": SCHEMA_NAME, "crc": zlib.crc32(schema_text)},
    }
    if durability == DURABILITY_WAL:
        wal = WriteAheadLog(os.path.join(directory, "wal-1.log"), fs=fs,
                            sync=sync, sync_every=sync_every, base_seq=0,
                            stats=store.checker.stats)
        manifest["wal"] = {"file": "wal-1.log", "base_seq": 0}
        store._journal = StoreJournal(wal)
    _write_manifest(fs, directory, manifest)
    store._manifest = manifest
    return store


def recover_store(directory: str, schema=None, durability: str = None,
                  fs: Optional[FileSystem] = None, sync: str = "group",
                  sync_every: int = 1024, validate: bool = True,
                  **store_kwargs) -> "DurableObjectStore":
    """Recover a store from its directory (module docstring, phases
    1-5); the report lands on ``store.last_recovery``."""
    from repro.objects.durable import DurableObjectStore, StoreJournal
    fs = fs or OS_FS
    manifest = read_manifest(fs, directory)
    durability = durability or manifest.get("durability", DURABILITY_WAL)

    if schema is None:
        schema_entry = manifest.get("schema") or {}
        schema_path = os.path.join(
            directory, schema_entry.get("file", SCHEMA_NAME))
        if not fs.exists(schema_path):
            raise StorageError(
                f"no schema stored in {directory!r}; pass one explicitly")
        text = fs.read_bytes(schema_path)
        if ("crc" in schema_entry
                and zlib.crc32(text) != schema_entry["crc"]):
            raise StorageError(
                f"stored schema in {directory!r} is corrupt "
                "(checksum mismatch)")
        from repro.lang import load_schema
        schema = load_schema(text.decode("utf-8"))

    config = dict(manifest.get("store", {}))
    # Manifests written while the store still had an engine selector
    # carry the key; every value opens on the one checker.
    config.pop("engine", None)
    config.update(store_kwargs)
    store = DurableObjectStore(schema, directory=directory, fs=fs,
                               durability=durability, sync=sync, **config)
    report = RecoveryReport(directory=directory)

    report.checkpoint_objects = _load_checkpoint(
        fs, directory, store, manifest["checkpoint"],
        manifest.get("indexes", ()))

    wal_entry = manifest.get("wal")
    scan = None
    if wal_entry is not None:
        wal_path = os.path.join(directory, wal_entry["file"])
        base_seq = wal_entry.get("base_seq", 0)
        # The shared tail reader (also replication's ship path):
        # validated records up to the first tear, torn tail truncated.
        records, scan = read_from(fs, wal_path, after_seq=base_seq,
                                  segment_base=base_seq, truncate=True)
        def resolve(sid: int):
            return store.get(Surrogate(sid))

        for record in records:
            try:
                replay(store, record.op, record.fields, resolve)
            except Exception as exc:
                # A logged command succeeded when it ran; failing on
                # replay means the log and the checkpoint disagree --
                # surface it rather than recover divergent state.
                raise StorageError(
                    f"WAL replay failed at seq {record.seq} "
                    f"({record.op}): {exc}") from exc
        report.replayed = len(records)
        report.last_seq = scan.last_seq or base_seq
        report.wal_stopped = scan.stopped
        if scan.stopped not in ("clean-end", "missing"):
            report.truncated_bytes = scan.torn_bytes

    stats = store.checker.stats
    stats.recoveries += 1
    stats.wal_replayed += report.replayed
    stats.wal_truncated_bytes += report.truncated_bytes

    if validate:
        # The validate_all sweep, without clearing the dirty ledger --
        # recovery must not mutate the state it just reconstructed.
        for obj in store._objects.values():
            for violation in store.checker.check(obj):
                report.violations.append((obj, violation))

    if durability == DURABILITY_WAL:
        if wal_entry is None or scan is None or scan.stopped == "missing":
            generation = manifest.get("generation", 1)
            wal_name = f"wal-{generation}.log"
            wal_path = os.path.join(directory, wal_name)
            manifest["wal"] = {"file": wal_name,
                               "base_seq": report.last_seq}
            wal = WriteAheadLog(wal_path, fs=fs, sync=sync,
                                sync_every=sync_every,
                                base_seq=report.last_seq, stats=stats)
            _write_manifest(fs, directory, manifest)
        else:
            wal = WriteAheadLog(
                os.path.join(directory, wal_entry["file"]), fs=fs,
                sync=sync, sync_every=sync_every,
                base_seq=report.last_seq,
                segment_base=wal_entry.get("base_seq", 0), stats=stats)
        store._journal = StoreJournal(wal)

    store._manifest = manifest
    store.last_recovery = report
    return store
