"""Storage: the durable directory behind a store.

* :mod:`repro.storage.fsio` -- the file-system seam (atomic writes,
  fsync) that the fault-injection tests replace;
* :mod:`repro.storage.wal` -- the write-ahead log: framed, CRC-checked
  op-table commands, group commit and the sync policies;
* :mod:`repro.storage.recovery` -- the directory (manifest, checkpoint,
  schema file, WAL segment), the one store image behind checkpoints and
  replica catch-up, and recovery as a committed prefix;
* :mod:`repro.storage.shards` -- the manifest over a sharded store's
  per-shard directories.

The paper's Section 5.5 partition -- records grouped by direct
membership signature, each with its own record format -- is read off
the live store by :mod:`repro.objects.profiles`; the store image writes
one batch of columns per signature.
"""

from repro.storage.fsio import OS_FS, FileSystem, atomic_write_bytes
from repro.storage.wal import WriteAheadLog, dump_wal, scan_wal
from repro.storage.recovery import (
    RecoveryReport,
    checkpoint_store,
    open_store,
    recover_store,
)

__all__ = [
    "FileSystem",
    "OS_FS",
    "RecoveryReport",
    "WriteAheadLog",
    "atomic_write_bytes",
    "checkpoint_store",
    "dump_wal",
    "open_store",
    "recover_store",
    "scan_wal",
]
