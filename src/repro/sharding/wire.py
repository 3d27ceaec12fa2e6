"""The shard transport: the pipe endpoint, JSON texts, chunk arrays.

Every command the router sends to a shard worker -- and every result
that comes back -- is one JSON text from :data:`repro.codec.dumps`
(keys sorted); the commands are op-table requests (:mod:`repro.ops`)
with values in the one value encoding (:mod:`repro.codec`), neither of
which this module looks inside.  It owns the text framing, the pipe
endpoint both ends carry it over (:class:`PipeEnd`: a hop is a write,
one ``poll`` on an fd registered once, and a read), and how partial
extents travel: as *chunk arrays* -- the bitset's ``{chunk_index:
word}`` form, words in hex -- so a 100k-surrogate extent costs a few
hundred dict entries instead of 100k ids, and the receiver rebuilds a
:class:`repro.columnar.SurrogateSet` without materializing members.

The in-process backend round-trips through exactly these JSON texts
too, so the equivalence property suite exercises the real wire format
without paying process start-up per Hypothesis example.
"""

from __future__ import annotations

import json
import select
from typing import Dict

from repro.codec import dumps
from repro.columnar import SurrogateSet
from repro.errors import StorageError

__all__ = [
    "PipeEnd", "decode_chunks", "decode_command", "decode_result",
    "encode_chunks", "encode_command", "encode_result",
]

encode_command = dumps
decode_command = json.loads

#: Results share the command framing: ``{"ok": payload}`` on success,
#: ``{"error": {"type": ..., "msg": ...}}`` when the worker's store
#: raised.
encode_result = encode_command
decode_result = decode_command


class PipeEnd:
    """One end of a shard pipe (a ``multiprocessing`` connection)
    carrying the texts as UTF-8.  Its fd is registered with a poller
    once, so ``wait`` -- true at a text or at EOF -- is one syscall."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self._poller = select.poll()
        self._poller.register(conn.fileno(), select.POLLIN)

    def wait(self, timeout: float) -> bool:
        return bool(self._poller.poll(timeout * 1000))   # milliseconds

    def send(self, text: str) -> None:
        self.conn.send_bytes(text.encode("utf-8"))

    def recv(self) -> str:
        return self.conn.recv_bytes().decode("utf-8")


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
