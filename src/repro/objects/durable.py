"""A crash-consistent object store: checked mutations logged to a WAL.

:class:`DurableObjectStore` is an :class:`~repro.objects.store.ObjectStore`
bound to a directory.  Every mutation that survives the checked paths --
``create`` / ``set_value`` (incl. unset) / ``classify`` / ``declassify``
/ ``remove``, and each committed bulk batch as a single record -- is
logged to the write-ahead log by the mutation pipeline
(:mod:`repro.objects.pipeline`): its record is framed *before* the
command applies (a record the log cannot encode refuses the command
while nothing has moved) and takes its seq once the apply succeeded,
*before* the call returns.  A write is visible iff its record holds a
seq.  Rejected mutations (a :class:`~repro.errors.ConformanceError`
rolled back by the store) never reach the log, and mutations inside a
:func:`~repro.objects.transactions.transaction` are group-committed:
buffered until the transaction commits, discarded if it aborts.  Replay
of the log through the same checked paths (:mod:`repro.storage.recovery`)
therefore reconstructs exactly the committed prefix of the mutation
history -- including every derived structure (extents, virtual-class
memberships and reference counts, dirty marks) the original run
produced.

This subclass carries no per-mutation overrides: it binds the
directory, the log (``store._wal``) and the checkpoint lifecycle.

Obtain one through ``ObjectStore.open(path, durability="wal")``; with
``durability="none"`` the same class keeps no log and only persists
on explicit :meth:`checkpoint` (still atomically -- an interrupted
checkpoint never clobbers the previous good one).

The log deliberately records **logical** operations, not byte deltas:
the store's consistency is defined by the paper's conformance formula,
and re-running the checked mutation is the one mechanism guaranteed to
re-establish it (in the spirit of DL^N's deterministic exception
handling under any evaluation order).
"""

from __future__ import annotations

from typing import Optional

from repro.objects.store import ObjectStore


class DurableObjectStore(ObjectStore):
    """An object store bound to an on-disk directory (see module doc).

    Not constructed directly -- use ``ObjectStore.open(directory, ...)``
    (or :func:`repro.storage.recovery.open_store`), which initializes or
    recovers the directory and attaches the log.
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
        #: The seq a closed log ended at: the commit position until a
        #: checkpoint starts the next segment there.
        self._closed_seq: Optional[int] = None

    # ------------------------------------------------------------------
    # Durability lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Write an atomic snapshot covering the whole WAL so far; the
        log is rotated to a fresh segment.  Returns the new manifest."""
        from repro.storage.recovery import checkpoint_store
        manifest = checkpoint_store(self)
        self.checker.stats.checkpoints += 1
        return manifest

    def sync(self) -> None:
        """Force every acknowledged record to stable storage."""
        if self._wal is not None:
            self._wal.flush()

    def close(self) -> None:
        """Flush and close the WAL; the store stays usable in memory but
        further mutations are no longer journaled."""
        if self._wal is not None:
            self._wal.close()
            self._closed_seq = self._wal.last_seq
            self._wal = None

    def position(self) -> int:
        if self._wal is None and self._closed_seq is not None:
            return self._closed_seq
        return super().position()

    def __enter__(self) -> "DurableObjectStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
