"""The narrow filesystem interface the durability subsystem writes through.

Every byte the WAL and the checkpointer put on (or read off) disk goes
through a :class:`FileSystem`, so tests can substitute a fault-injecting
implementation (``tests/faultfs.py``) that crashes at the Nth write or
fsync, tears the final write, or drops data that was never fsynced --
without monkeypatching ``os``.

The durability-relevant operations are deliberately few:

* :meth:`FileSystem.open_write` / :meth:`FileSystem.open_append` return a
  :class:`FileHandle` whose ``write``/``flush``/``sync`` map to the
  write-to-OS vs force-to-platter distinction crash consistency is about;
* :meth:`FileSystem.replace` is the atomic commit point (POSIX ``rename``
  semantics: readers see the old file or the new one, never a mix);
* :meth:`FileSystem.sync_dir` makes a rename itself durable.

:func:`atomic_write_bytes` composes them into the standard
write-temp / fsync / rename / fsync-dir sequence every on-disk structure
in this package is committed with.
"""

from __future__ import annotations

import os
from typing import List


class FileHandle:
    """A writable file: buffered writes, OS flush, and fsync."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def write(self, data: bytes) -> int:
        return self._fh.write(data)

    def flush(self) -> None:
        """Push buffered bytes to the OS (they survive a process crash,
        not necessarily a power failure)."""
        self._fh.flush()

    def sync(self) -> None:
        """Force written bytes to stable storage (fsync)."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def tell(self) -> int:
        return self._fh.tell()

    def close(self) -> None:
        self._fh.close()


class FileSystem:
    """Direct OS-backed implementation (the production default)."""

    def open_write(self, path: str) -> FileHandle:
        """Open for writing, truncating any existing file."""
        return FileHandle(open(path, "wb"))

    def open_append(self, path: str) -> FileHandle:
        return FileHandle(open(path, "ab"))

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as f:
            return f.read()

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> List[str]:
        return sorted(os.listdir(path))

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst``."""
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        if os.path.exists(path):
            os.remove(path)

    def truncate(self, path: str, length: int) -> None:
        with open(path, "r+b") as f:
            f.truncate(length)
            f.flush()
            os.fsync(f.fileno())

    def size(self, path: str) -> int:
        return os.path.getsize(path)

    def sync_dir(self, path: str) -> None:
        """fsync a directory so a completed rename survives power loss.
        Best-effort: not every platform allows opening directories."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


#: Shared production filesystem (stateless).
OS_FS = FileSystem()


def atomic_write_bytes(fs: FileSystem, path: str, data: bytes) -> None:
    """Commit ``data`` to ``path`` atomically: a reader (or a recovery
    after a crash at any point in this sequence) sees either the previous
    content of ``path`` or ``data``, never a prefix or a mix."""
    tmp = path + ".tmp"
    handle = fs.open_write(tmp)
    try:
        handle.write(data)
        handle.sync()
    finally:
        handle.close()
    fs.replace(tmp, path)
    fs.sync_dir(os.path.dirname(path) or ".")
