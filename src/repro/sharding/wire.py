"""The shard transport's framing: JSON texts and chunk arrays.

Every command the router sends to a shard worker -- and every result
that comes back -- is one JSON text (compact separators, sorted keys
not required); the commands are op-table requests (:mod:`repro.ops`)
and their values travel in the one value encoding
(:mod:`repro.codec`), neither of which this module looks inside.  What
it owns is the text framing and how partial extents travel: as *chunk
arrays* -- the bitset's native ``{chunk_index: word}`` form, words
hex-encoded -- so a 100k-surrogate extent costs a few hundred dict
entries on the wire instead of 100k ids, and the receiver rebuilds a
:class:`repro.columnar.SurrogateSet` without ever materializing the
members.

The in-process backend round-trips through exactly these JSON texts
too, so the equivalence property suite exercises the real wire format
without paying process start-up per Hypothesis example.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.columnar import SurrogateSet
from repro.errors import StorageError

__all__ = [
    "decode_chunks", "decode_command", "decode_result",
    "encode_chunks", "encode_command", "encode_result",
]


def encode_command(cmd: Dict[str, object]) -> str:
    return json.dumps(cmd, separators=(",", ":"))


def decode_command(text: str) -> Dict[str, object]:
    return json.loads(text)


#: Results share the command framing: ``{"ok": payload}`` on success,
#: ``{"error": {"type": ..., "msg": ...}}`` when the worker's store
#: raised.
encode_result = encode_command
decode_result = decode_command


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
