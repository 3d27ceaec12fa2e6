"""The shard transport: the pipe endpoint, JSON texts, chunk arrays.

Every command the router sends to a shard worker -- and every result
that comes back -- is one JSON text from :data:`repro.codec.dumps`
(keys sorted); the commands are op-table requests (:mod:`repro.ops`)
with values in the one value encoding (:mod:`repro.codec`), neither of
which this module looks inside.  It owns the text framing (a 4-byte
big-endian length, then the UTF-8), the pipe endpoint both ends carry
it over (:class:`PipeEnd`: with one command in flight, a hop is one
write, one ``poll`` on an fd registered once, and one read), and how
partial extents travel: as *chunk arrays* -- the bitset's
``{chunk_index: word}`` form, words in hex -- so a 100k-surrogate
extent costs a few hundred dict entries instead of 100k ids, and the
receiver rebuilds a :class:`repro.columnar.SurrogateSet` without
materializing members.

The in-process backend round-trips through exactly these JSON texts
too, so the equivalence property suite exercises the real wire format
without paying process start-up per Hypothesis example.
"""

from __future__ import annotations

import json
import os
import select
from typing import Dict

from repro.codec import dumps
from repro.columnar import SurrogateSet
from repro.errors import ShardingError, StorageError

__all__ = [
    "PipeEnd", "decode_chunks", "decode_command", "decode_result",
    "encode_chunks", "encode_command", "encode_result",
]

encode_command = dumps
decode_command = json.loads

#: Results share the command framing: ``{"ok": payload}`` on success,
#: ``{"error": codec.encode_error(exc)}`` when the worker raised.
encode_result = encode_command
decode_result = decode_command


#: Header bytes; a frame longer than the first read is read on to its end.
HEADER, FIRST_READ = 4, 1 << 16


class PipeEnd:
    """One end of a shard pipe.  The ``multiprocessing`` connection is
    kept for its lifecycle (spawn pickling, ``close``, EOF); each text
    travels on its fd as one frame, one ``os.write`` and one
    ``os.read``.  That relies on one command in flight: no frame
    follows another unasked, so bytes past a frame are a protocol
    fault.  The fd is registered with a poller once, so ``wait`` --
    true at a text or at EOF -- is one syscall."""

    def __init__(self, conn) -> None:
        self.conn, self._fd = conn, conn.fileno()
        self._poller = select.poll()
        self._poller.register(self._fd, select.POLLIN)

    def wait(self, timeout: float) -> bool:
        return bool(self._poller.poll(timeout * 1000))   # milliseconds

    def send(self, text: str) -> None:
        data = text.encode("utf-8")
        if len(data) >> 8 * HEADER:     # more than the header can count
            raise ShardingError(f"a {len(data)}-byte text is too long")
        frame = len(data).to_bytes(HEADER, "big") + data
        sent = os.write(self._fd, frame)
        while sent < len(frame):    # a signal cut a long write short
            sent += os.write(self._fd, frame[sent:])

    def recv(self) -> str:
        """The next text; ``EOFError`` if the pipe closes first."""
        frame = os.read(self._fd, FIRST_READ)
        if len(frame) != HEADER + int.from_bytes(frame[:HEADER], "big"):
            frame = self._read_on(frame)
        return frame[HEADER:].decode("utf-8")

    def _read_on(self, frame: bytes) -> bytearray:
        """The rest of a frame, into one buffer, each read sized by the
        header (a partial header undercounts, so never reads past)."""
        buffer = bytearray(frame)
        while len(buffer) < (size := HEADER + int.from_bytes(
                buffer[:HEADER], "big")):
            more = os.read(self._fd, size - len(buffer))
            if not more:
                raise EOFError(f"the pipe closed at byte {len(buffer)} of a frame")
            buffer += more
        if len(buffer) > size:
            raise ShardingError(f"{len(buffer) - size} bytes past the end "
                                f"of a {size}-byte frame")
        return buffer


# ----------------------------------------------------------------------
# Partial extents as chunk arrays
# ----------------------------------------------------------------------

def encode_chunks(members: SurrogateSet) -> Dict[str, object]:
    """A bitset-backed partial extent as its chunk array.

    Only pure surrogate sets are legal on the wire (extents never hold
    overflow members); the count is carried so the receiver's
    ``len()`` is O(1) without a popcount pass.
    """
    overflow = getattr(members, "_overflow", None)
    if overflow:
        raise StorageError(
            "cannot serialize a surrogate set with overflow members "
            "as a chunk array")
    return {
        "chunks": {str(index): format(word, "x")
                   for index, word in members._chunks.items() if word},
        "count": len(members),
    }


def decode_chunks(encoded: Dict[str, object]) -> SurrogateSet:
    chunks = {int(index): int(word, 16)
              for index, word in encoded["chunks"].items()}
    return SurrogateSet._raw(chunks, int(encoded["count"]), None)
