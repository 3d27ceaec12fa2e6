"""On-disk layout of a sharded store: one manifest over N shard dirs.

A sharded directory holds a top-level ``SHARDS.json`` manifest plus one
subdirectory per shard (``shard-00``, ``shard-01``, ...), each of which
is an ordinary durable store directory -- its own MANIFEST, WAL segment
and checkpoints -- recovered independently by its worker process on
reopen.  The top-level manifest records only the *topology* (shard
count, durability, sync policy): everything else (schema, surrogate
high-water marks, replica ownership) is reconstructed from the shards
themselves, so a sharded store survives exactly the crashes each shard
store survives.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from repro.errors import StorageError
from repro.storage.fsio import OS_FS, FileSystem, atomic_write_bytes

__all__ = ["SHARD_MANIFEST", "is_sharded", "read_shard_manifest",
           "shard_directory", "write_shard_manifest"]

SHARD_MANIFEST = "SHARDS.json"


def shard_directory(directory: str, shard_id: int) -> str:
    return os.path.join(directory, f"shard-{shard_id:02d}")


def is_sharded(directory: str) -> bool:
    return os.path.exists(os.path.join(directory, SHARD_MANIFEST))


def write_shard_manifest(directory: str, n_shards: int,
                         durability: str, sync: str,
                         fs: FileSystem = OS_FS) -> None:
    """Commit the topology manifest atomically: a crash leaves the old
    manifest or none, never a torn one."""
    fs.makedirs(directory)
    payload = {"format": "sharded-store", "version": 1,
               "shards": n_shards, "durability": durability,
               "sync": sync}
    atomic_write_bytes(fs, os.path.join(directory, SHARD_MANIFEST),
                       json.dumps(payload, indent=1).encode("utf-8"))


def read_shard_manifest(directory: str) -> Dict[str, object]:
    path = os.path.join(directory, SHARD_MANIFEST)
    if not os.path.exists(path):
        raise StorageError(f"{directory!r} is not a sharded store "
                           f"(no {SHARD_MANIFEST})")
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != "sharded-store":
        raise StorageError(f"{path!r} is not a sharded-store manifest")
    return manifest
