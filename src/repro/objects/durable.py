"""A crash-consistent object store: checked mutations journaled to a WAL.

:class:`DurableObjectStore` is an :class:`~repro.objects.store.ObjectStore`
bound to a directory.  Every mutation that survives the checked paths --
``create`` / ``set_value`` (incl. unset) / ``classify`` / ``declassify`` /
``remove``, and each committed bulk batch as a single record -- is
appended to the write-ahead log *after* the in-memory apply succeeds and
*before* the call returns.  Rejected mutations (a
:class:`~repro.errors.ConformanceError` rolled back by the store) never
reach the log, and mutations inside a :func:`~repro.objects.transactions.
transaction` are group-committed: buffered until the transaction commits,
discarded if it aborts.  Replay of the log through the same checked paths
(:mod:`repro.storage.recovery`) therefore reconstructs exactly the
committed prefix of the mutation history -- including every derived
structure (extents, virtual-class memberships and reference counts,
dirty marks) the original run produced.

The journaling itself is a pipeline stage: each depth-1
:class:`~repro.objects.pipeline.MutationCommand` that reports
``mutated`` appends its own logical record (nested internal commands --
a failing create's cleanup removal, a bulk batch's per-object fallback
rows -- never reach the log), so this subclass carries no per-mutation
overrides; it binds the directory, the journal and the checkpoint
lifecycle.

Obtain one through ``ObjectStore.open(path, durability="wal")``; with
``durability="none"`` the same class skips the journal and only persists
on explicit :meth:`checkpoint` (still atomically -- an interrupted
checkpoint never clobbers the previous good one).

The journal deliberately records **logical** operations, not byte deltas:
the store's consistency is defined by the paper's conformance formula,
and re-running the checked mutation is the one mechanism guaranteed to
re-establish it (in the spirit of DL^N's deterministic exception
handling under any evaluation order).
"""

from __future__ import annotations

from repro.codec import NA, encode_value
from repro.objects.store import ObjectStore
from repro.storage.wal import WriteAheadLog


class StoreJournal:
    """The store-facing face of one :class:`WriteAheadLog`.

    Adds a suspension counter (a replica replays shipped records
    through the ordinary store paths without logging each step, then
    journals the record verbatim).  A record is the :mod:`repro.ops`
    command that ran, plus the sids it minted.
    """

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal
        self._paused = 0

    # -- suspension ----------------------------------------------------

    @property
    def active(self) -> bool:
        return self._paused == 0

    def pause(self) -> None:
        self._paused += 1

    def resume(self) -> None:
        self._paused -= 1

    # -- transactions (group commit) -----------------------------------

    def begin(self) -> None:
        self.wal.begin()

    def abort(self) -> None:
        self.wal.abort()

    # -- records -------------------------------------------------------

    def record(self, op: str, fields: dict) -> None:
        """Append one logical record (``fields`` is handed to the log
        as-is -- build a fresh dict per call)."""
        if self._paused == 0:
            self.wal.append_fields(op, fields)

    def log_bulk(self, staged, mode: str) -> None:
        """One record for a whole committed batch (all-or-nothing across
        recovery, exactly like the in-process rollback contract)."""
        if self._paused:
            return
        rows = [[entry.obj.surrogate.id, list(entry.classes),
                 {name: encode_value(entry.values[name])
                  if name in entry.values else NA
                  for name in entry.write_attrs}]
                for entry in staged]
        self.wal.append("bulk", check=mode, rows=rows)


class DurableObjectStore(ObjectStore):
    """An object store bound to an on-disk directory (see module doc).

    Not constructed directly -- use ``ObjectStore.open(directory, ...)``
    (or :func:`repro.storage.recovery.open_store`), which initializes or
    recovers the directory and attaches the journal.
    """

    def __init__(self, schema, *, directory: str, fs, durability: str,
                 sync: str = "group", **kwargs) -> None:
        super().__init__(schema, **kwargs)
        self.directory = directory
        self.fs = fs
        self.durability = durability
        self.sync_policy = sync
        #: Filled by :func:`repro.storage.recovery.recover_store`.
        self.last_recovery = None

    # ------------------------------------------------------------------
    # Durability lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Write an atomic snapshot covering the whole WAL so far; the
        log is rotated to a fresh segment.  Returns the new manifest."""
        from repro.storage.recovery import checkpoint_store
        return checkpoint_store(self)

    def sync(self) -> None:
        """Force every acknowledged record to stable storage."""
        if self._journal is not None:
            self._journal.wal.flush()

    def close(self) -> None:
        """Flush and close the WAL; the store stays usable in memory but
        further mutations are no longer journaled."""
        if self._journal is not None:
            self._journal.wal.close()
            self._journal = None

    def __enter__(self) -> "DurableObjectStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
