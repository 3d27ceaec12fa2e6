"""Crash recovery: the files of a durable directory, and the store image.

This module owns the directory -- manifest, checkpoint file, schema
file, WAL segment, and the order they are replaced in -- the tail scan,
and the **store image** (:func:`store_image` / :func:`install_image`):
the one producer and the one installer of a populated store as data,
batched by direct-membership signature (the paper's Section 5.5
grouping), which the checkpoint file and the catch-up dump both use.
It does not know what a log record means: each one is an op-table
command, and :func:`repro.ops.replay` runs it.

A durable store directory contains::

    MANIFEST               -- JSON commit point (always replaced atomically)
    schema-<g>.cdl         -- the schema, pretty-printed (``schema.cdl``
                              in directories written before generations)
    checkpoint-<g>.ckpt    -- the image: a header frame, then a frame per
                              batch; CRC32 per frame, whole-file
                              length+CRC in MANIFEST
    wal-<g>.log            -- the active WAL segment (durability="wal")

``<g>`` is the checkpoint generation: every checkpoint writes a *new*
schema file, checkpoint file and WAL segment, then atomically replaces
the MANIFEST to point at them, then deletes the superseded generation.
A crash at any point leaves either the old MANIFEST or the new one, each
with its files intact -- never a mix.

Recovery (:func:`recover_store`):

1. read the MANIFEST; load the schema (unless one is supplied);
2. validate the checkpoint's length and CRC and install its image one
   frame (one ``json.loads``, each column decoded once) at a time --
   forward references allowed, a repeated sid refused -- rebuilding
   extents, virtual-class reference counts, indexes, the dirty ledger
   and the allocator;
3. replay the WAL tail **through the op table**, so the conformance
   invariants are re-established by the live path, not trusted;
4. truncate a torn tail at the first bad CRC / short frame / sequence
   break (a crash can tear at most the suffix);
5. validate every object (the checker's ``sweep``, as ``validate_all``
   runs it but leaving the dirty ledger) into the
   :class:`RecoveryReport`.

The recovered state is always a **prefix** of the committed operation
sequence: whole operations (and whole bulk batches / transactions, which
are one record / one group), never a hybrid.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.codec import NONE, UNSET, decode_column, encode_column
from repro.errors import StorageError
from repro.objects.instance import Instance
from repro.objects.profiles import profile_catalog
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

#: Objects per store-image batch (one checkpoint frame).
IMAGE_BATCH = 1024
_SURROGATE = attrgetter("surrogate")


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
    #: The checkpoint file phase 2 read: its size and image batches.
    checkpoint_bytes: int = 0
    checkpoint_batches: int = 0
    #: Wall seconds of phases 2 (install), 3-4 (WAL tail), 5 (validate).
    install_s: float = 0.0
    replay_s: float = 0.0
    validate_s: float = 0.0

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
        lines.append(f"  phase seconds       : install {self.install_s:.3f} "
                     f"({self.checkpoint_bytes} bytes, "
                     f"{self.checkpoint_batches} batch(es)), replay "
                     f"{self.replay_s:.3f}, validate {self.validate_s:.3f}")
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


def store_image(store) -> Tuple[dict, Iterator[tuple]]:
    """A populated store as data: ``(header, batches)``.  The header holds
    what is not derivable from the objects -- the surrogate high-water
    mark, the dirty ledger, the indexed attributes; each batch is
    ``(direct classes, sids, cols)``: up to :data:`IMAGE_BATCH` objects
    of one signature, sids ascending, ``cols`` each attribute's
    :func:`~repro.codec.encode_column`.  Batches come in order of their
    first sid, encoded lazily.  The checkpoint file and the replication
    catch-up dump are both this image behind their own framing."""
    header = {
        "next_surrogate": store._allocator._next,
        "dirty": {str(surrogate.id):
                  (None if attrs is None else sorted(attrs))
                  for surrogate, attrs in store._dirty.items()},
        "indexes": list(store.indexes.attributes()),
    }
    batches = []
    for profile in profile_catalog(store).values():
        members = sorted(profile.members, key=_SURROGATE)
        batches += [(profile.classes, members[i:i + IMAGE_BATCH])
                    for i in range(0, len(members), IMAGE_BATCH)]
    batches.sort(key=lambda batch: batch[1][0].surrogate)

    def encoded():
        for classes, members in batches:
            values = [obj._values for obj in members]
            yield (list(classes), [obj.surrogate.id for obj in members],
                   {name: encode_column(values, name)
                    for name in sorted(set().union(*values))})
    return header, encoded()


def install_image(store, header: dict, batches) -> int:
    """Populate an empty ``store`` from :func:`store_image` data in one
    pass over ``batches`` and rebuild every derived structure: objects
    with their references relinked, extents (IS-A closed, one build per
    class), virtual-class reference counts, the dirty ledger, the
    allocator, the indexes (one build per posting).  Batches and the
    sids in one may come in any order -- a reference ahead of its
    object makes a shell the object fills in -- but each sid once, and
    every referenced sid must come.  Nothing here checks conformance --
    an image is state, not history; callers that cannot vouch for it
    mark it dirty or validate.  Returns the object count."""
    if len(store):
        raise StorageError("a store image installs only into an empty "
                           "store")
    shells: Dict[int, Instance] = {}
    pending: Set[int] = set()           # referenced, object not yet seen

    def resolve(sid: int) -> Instance:
        obj = shells.get(sid)
        if obj is None:
            obj = shells[sid] = Instance(Surrogate(sid))
            pending.add(sid)
        return obj

    signatures: Dict[tuple, List[int]] = {}
    homes = store._virtuals_by_attr
    refs = store._virtual_refs
    for classes, sids, cols in batches:
        columns = {name: decode_column(column, resolve, UNSET)
                   for name, column in cols.items()}
        members = store._signature(classes)
        objs = []
        for sid, cells in zip(sids, zip(*columns.values()) if columns
                              else [()] * len(sids)):
            obj = shells.get(sid)
            if obj is None:
                obj = shells[sid] = Instance(Surrogate(sid), members)
            elif sid in pending:
                pending.remove(sid)
                obj._memberships = members
            else:
                raise StorageError(f"store image repeats object @{sid}")
            obj._values = {name: cell for name, cell in zip(columns, cells)
                           if cell is not UNSET}
            objs.append(obj)
        for name in homes.keys() & columns.keys():
            for obj, value in zip(objs, columns[name]):
                if is_entity(value):
                    # An entity on a virtual class's home attribute of a
                    # member of the owner class holds one reference.
                    for cdef in store._home_virtuals(obj, name):
                        key = (cdef.name, value.surrogate)
                        refs[key] = refs.get(key, 0) + 1
        signatures.setdefault(tuple(classes), []).extend(sids)
    if pending:
        raise StorageError(
            f"store image references unknown object @{min(pending)}")
    for sid in sorted(shells):
        obj = shells[sid]
        store._objects[obj.surrogate] = obj
        store._columns.put(obj.surrogate, obj._memberships, obj._values,
                           store._snapshot_stamp)
    store._pipeline.merge_extents(signatures)
    for sid_text, attrs in header.get("dirty", {}).items():
        store._dirty[Surrogate(int(sid_text))] = (
            None if attrs is None else set(attrs))
    store._allocator._next = header["next_surrogate"]
    for attribute in header.get("indexes", ()):
        store.create_index(attribute)
    return len(shells)


def _write_checkpoint(fs: FileSystem, directory: str, store,
                      generation: int) -> dict:
    """Write ``checkpoint-<generation>.ckpt`` atomically, a frame per
    image batch after the header; returns its manifest entry."""
    header, batches = store_image(store)
    chunks: List[bytes] = [WAL_MAGIC, frame_record({
        "kind": "header", "next_surrogate": header["next_surrogate"],
        "dirty": header["dirty"]})]
    chunks.extend(frame_record({"classes": classes, "sids": sids,
                                "cols": cols})
                  for classes, sids, cols in batches)
    data = b"".join(chunks)
    name = f"checkpoint-{generation}.ckpt"
    atomic_write_bytes(fs, os.path.join(directory, name), data)
    return {"file": name, "length": len(data), "crc": zlib.crc32(data),
            "objects": len(store), "batches": len(chunks) - 2}


def _load_checkpoint(fs: FileSystem, directory: str, store,
                     entry: dict, indexes, report: RecoveryReport) -> int:
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
    report.checkpoint_bytes = len(data)

    def batches():
        # One json.loads per frame: memory holds one batch, not the file.
        nonlocal consumed
        for consumed, payload in frames:
            report.checkpoint_batches += 1
            frame = json.loads(payload)
            if "sid" in frame:  # a row, written before batches: a batch of 1
                yield frame["classes"], [frame["sid"]], {
                    name: [NONE if value is None else value]
                    for name, value in frame["values"].items()}
            else:
                yield frame["classes"], frame["sids"], frame["cols"]

    count = install_image(store, dict(header, indexes=indexes), batches())
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


def checkpoint_store(store: "DurableObjectStore",
                     sync_every: int = 1024) -> dict:
    """Atomically snapshot ``store`` into its directory and rotate the
    WAL (or start it, ``sync_every`` as given); returns the new
    manifest."""
    fs = store.fs
    directory = store.directory
    wal = store._wal
    old = getattr(store, "_manifest", None) or {}
    generation = old.get("generation", 0) + 1

    if wal is not None:
        if wal.in_group:
            raise StorageError(
                "cannot checkpoint inside an open transaction")
        wal.flush()
        base_seq, sync_every = wal.last_seq, wal.sync_every
    else:
        base_seq = store._closed_seq or 0

    # The *current* schema epoch: online schema changes rotate out of the
    # WAL here, into the generation the checkpoint's objects were written
    # under.
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
            sync=store.sync_policy, sync_every=sync_every,
            base_seq=base_seq, stats=store.checker.stats)
        manifest["wal"] = {"file": wal_name, "base_seq": base_seq}

    _write_manifest(fs, directory, manifest)

    # Swap the log to the fresh segment, then GC the old generation.
    if wal is not None:
        wal.close()
    store._wal = new_wal
    for key in ("checkpoint", "wal", "schema"):
        name = (old.get(key) or {}).get("file")
        if name and name != (manifest.get(key) or {}).get("file") \
                and fs.exists(os.path.join(directory, name)):
            fs.remove(os.path.join(directory, name))
    store._manifest = manifest
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
    from repro.objects.durable import DurableObjectStore
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
    store = DurableObjectStore(schema, directory=directory, fs=fs,
                               durability=durability, sync=sync,
                               **store_kwargs)
    checkpoint_store(store, sync_every)
    return store


def recover_store(directory: str, schema=None, durability: str = None,
                  fs: Optional[FileSystem] = None, sync: str = "group",
                  sync_every: int = 1024, validate: bool = True,
                  **store_kwargs) -> "DurableObjectStore":
    """Recover a store from its directory (module docstring, phases
    1-5); the report lands on ``store.last_recovery``."""
    from repro.objects.durable import DurableObjectStore
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

    started = perf_counter()
    report.checkpoint_objects = _load_checkpoint(
        fs, directory, store, manifest["checkpoint"],
        manifest.get("indexes", ()), report)
    report.install_s = perf_counter() - started

    started = perf_counter()
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
    report.replay_s = perf_counter() - started

    stats = store.checker.stats
    stats.recoveries += 1
    stats.wal_replayed += report.replayed
    stats.wal_truncated_bytes += report.truncated_bytes

    if validate:
        # The validate_all sweep, without clearing the dirty ledger --
        # recovery must not mutate the state it just reconstructed.
        started = perf_counter()
        report.violations = store.checker.sweep(store._objects.values())
        report.validate_s = perf_counter() - started

    if durability == DURABILITY_WAL:
        entry = wal_entry
        if entry is None or scan is None or scan.stopped == "missing":
            entry = {"file": f"wal-{manifest.get('generation', 1)}.log",
                     "base_seq": report.last_seq}
        store._wal = WriteAheadLog(
            os.path.join(directory, entry["file"]), fs=fs, sync=sync,
            sync_every=sync_every, base_seq=report.last_seq,
            segment_base=entry.get("base_seq", 0), stats=stats)
        if entry is not wal_entry:
            manifest["wal"] = entry
            _write_manifest(fs, directory, manifest)

    store._manifest = manifest
    store.last_recovery = report
    return store
