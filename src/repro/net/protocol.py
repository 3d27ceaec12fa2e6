"""The wire format: WAL record framing, reused verbatim on sockets.

One frame is exactly one WAL record frame (``storage/wal.py``)::

    u32 payload length | u32 CRC32(payload) | payload (canonical JSON)

There is deliberately no second codec: a request on the wire, a record
in the durable log, and a record shipped to a replica are all the same
bytes, so replication can forward log frames without re-encoding and
the fuzz surface is one parser.  Unlike a log segment, a connection has
no leading magic -- the server's hello frame plays that role (a peer
speaking the wrong protocol fails its first CRC check instead of
hanging).

Every decode failure is a **typed** error (:mod:`repro.errors`):

* :class:`~repro.errors.FrameTooLargeError` -- announced length above
  the limit (an attacker-controlled allocation otherwise);
* :class:`~repro.errors.FrameCorruptError` -- CRC mismatch;
* :class:`~repro.errors.FrameTruncatedError` -- stream ended mid-frame;
* :class:`~repro.errors.PayloadDecodeError` -- CRC-valid bytes that are
  not a JSON object (a CRC collision or a buggy peer).

Framing errors poison the connection (sync is lost), never the server:
the handler sends a best-effort error frame and closes.

:class:`FrameDecoder` is the one frame parser, shared by both sides:
feed it byte chunks in any granularity, take complete messages out one
:meth:`~FrameDecoder.next_message` at a time.  The server feeds it from
its connection protocol's read buffer, the sync client off a blocking
socket.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Iterator, Optional

from repro.errors import (
    FrameCorruptError,
    FrameTooLargeError,
    FrameTruncatedError,
    PayloadDecodeError,
)
from repro.storage.wal import frame_record

_HEADER = struct.Struct(">II")
HEADER_SIZE = _HEADER.size

#: Default per-frame payload ceiling (8 MiB).  Large enough for a
#: catch-up dump batch, small enough that a hostile length field cannot
#: balloon the receive buffer.
MAX_FRAME = 8 * 1024 * 1024

#: Protocol identity carried in the hello frame (version 2: a ``query``
#: reply carries ``sids`` and ``cols``, not rows; 3: a catch-up dump
#: carries signature ``batches``, not rows; 4: an aggregate reply
#: carries its fold states ``folds`` beside ``agg``).
PROTO_NAME = "repro-net"
PROTO_VERSION = 4


#: One message as one WAL-framed canonical-JSON record.
encode_frame = frame_record


def decode_payload(payload: bytes) -> Dict[str, object]:
    """The JSON object inside one CRC-validated frame."""
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise PayloadDecodeError(
            f"frame payload is not canonical JSON: {exc}") from exc
    if not isinstance(decoded, dict):
        raise PayloadDecodeError(
            f"frame payload must be a JSON object, got "
            f"{type(decoded).__name__}")
    return decoded


class FrameDecoder:
    """Incremental frame parser over an unbounded byte stream.

    ``feed`` appends received bytes; ``next_frame`` takes one complete,
    CRC-valid payload out and leaves any partial frame buffered for the
    next feed.  The decoder validates the announced length *before*
    buffering toward it, so a hostile header can never make it hold
    more than ``max_frame`` + header bytes.
    """

    __slots__ = ("max_frame", "_buffer", "_closed")

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._closed = False

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def close(self) -> None:
        """The stream ended; a buffered partial frame is now a tear."""
        self._closed = True

    def next_frame(self) -> Optional[bytes]:
        """Take the next complete, CRC-valid payload; ``None`` while
        the buffered bytes do not hold one.

        Raises the typed framing errors; after closing, a leftover
        partial frame raises :class:`FrameTruncatedError`.
        """
        buffer = self._buffer
        if len(buffer) >= HEADER_SIZE:
            length, crc = _HEADER.unpack_from(buffer, 0)
            if length > self.max_frame:
                raise FrameTooLargeError(length, self.max_frame)
            end = HEADER_SIZE + length
            if len(buffer) >= end:
                payload = bytes(buffer[HEADER_SIZE:end])
                if zlib.crc32(payload) != crc:
                    raise FrameCorruptError(
                        f"frame CRC mismatch on a {length}-byte payload")
                del buffer[:end]
                return payload
        if self._closed and buffer:
            raise FrameTruncatedError(
                f"stream ended with {len(buffer)} byte(s) of a "
                "partial frame")
        return None

    def next_message(self) -> Optional[Dict[str, object]]:
        """:meth:`next_frame`, decoded to its JSON object."""
        payload = self.next_frame()
        return None if payload is None else decode_payload(payload)

    def frames(self) -> Iterator[bytes]:
        """Every complete payload currently buffered."""
        return iter(self.next_frame, None)

    def messages(self) -> Iterator[Dict[str, object]]:
        return iter(self.next_message, None)
