"""Protocol fuzz: malformed bytes never hang or kill the server.

Two layers.  The :class:`~repro.net.protocol.FrameDecoder` unit fuzz
feeds adversarial byte streams -- truncated tails, flipped bits, hostile
length fields, arbitrary garbage, any chunking -- and asserts the
decoder either yields valid payloads or raises exactly one of the typed
protocol errors (never hangs, never raises anything else, never buffers
past its limit).  The live-server fuzz opens real loopback sockets
against a running :class:`~repro.net.server.StoreService` and throws the
same malformations at it: every response arrives within a timeout, the
poisoned connection is closed with a best-effort typed error frame, and
the server keeps serving well-formed clients afterwards.
"""

from __future__ import annotations

import socket
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FrameCorruptError,
    FrameTooLargeError,
    FrameTruncatedError,
    PayloadDecodeError,
    ProtocolError,
)
from repro.net.protocol import (
    HEADER_SIZE,
    FrameDecoder,
    decode_payload,
    encode_frame,
)
from repro.objects.store import ObjectStore
from repro.scenarios import build_hospital_schema


# ----------------------------------------------------------------------
# Frame codec basics
# ----------------------------------------------------------------------

class TestFraming:
    def test_round_trip(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"op": "ping", "id": 1}))
        assert list(decoder.messages()) == [{"op": "ping", "id": 1}]

    def test_multiple_frames_one_feed(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"n": 1}) + encode_frame({"n": 2}))
        assert [m["n"] for m in decoder.messages()] == [1, 2]

    def test_byte_at_a_time(self):
        data = encode_frame({"op": "x", "payload": "y" * 100})
        decoder = FrameDecoder()
        out = []
        for i in range(len(data)):
            decoder.feed(data[i:i + 1])
            out.extend(decoder.messages())
        assert out == [{"op": "x", "payload": "y" * 100}]

    def test_partial_frame_stays_buffered(self):
        data = encode_frame({"op": "x"})
        decoder = FrameDecoder()
        decoder.feed(data[:-1])
        assert list(decoder.messages()) == []
        decoder.feed(data[-1:])
        assert list(decoder.messages()) == [{"op": "x"}]

    def test_oversized_length_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame=1024)
        decoder.feed(struct.pack(">II", 1 << 30, 0))
        with pytest.raises(FrameTooLargeError):
            list(decoder.messages())

    def test_crc_corruption_detected(self):
        data = bytearray(encode_frame({"op": "ping"}))
        data[HEADER_SIZE] ^= 0x40       # flip a payload bit
        decoder = FrameDecoder()
        decoder.feed(bytes(data))
        with pytest.raises(FrameCorruptError):
            list(decoder.messages())

    def test_torn_tail_on_close(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"op": "ping"})[:-3])
        decoder.close()
        with pytest.raises(FrameTruncatedError):
            list(decoder.messages())

    def test_clean_close_is_silent(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"op": "ping"}))
        assert len(list(decoder.messages())) == 1
        decoder.close()
        assert list(decoder.messages()) == []

    def test_non_object_payload_rejected(self):
        payload = b"[1,2,3]"
        frame = struct.pack(">II", len(payload),
                            zlib.crc32(payload)) + payload
        decoder = FrameDecoder()
        decoder.feed(frame)
        with pytest.raises(PayloadDecodeError):
            list(decoder.messages())

    def test_crc_valid_garbage_payload_rejected(self):
        payload = b"\xff\xfe not json"
        frame = struct.pack(">II", len(payload),
                            zlib.crc32(payload)) + payload
        decoder = FrameDecoder()
        decoder.feed(frame)
        with pytest.raises(PayloadDecodeError):
            list(decoder.messages())


# ----------------------------------------------------------------------
# Decoder property fuzz
# ----------------------------------------------------------------------

PROTOCOL_ERRORS = (FrameTooLargeError, FrameCorruptError,
                   FrameTruncatedError, PayloadDecodeError)


def _drain(decoder):
    """Drain a decoder: (messages, error-or-None); never hangs."""
    out = []
    try:
        out.extend(decoder.messages())
        return out, None
    except ProtocolError as exc:
        return out, exc


class TestDecoderFuzz:
    @given(data=st.binary(max_size=512),
           chunk=st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_never_crash(self, data, chunk):
        """Any byte stream, any chunking: valid messages or exactly a
        typed protocol error -- nothing else, no unbounded buffering."""
        decoder = FrameDecoder(max_frame=4096)
        error = None
        for i in range(0, len(data), chunk):
            decoder.feed(data[i:i + chunk])
            _, error = _drain(decoder)
            if error is not None:
                break
            assert decoder.buffered <= 4096 + HEADER_SIZE
        if error is None:
            decoder.close()
            _, error = _drain(decoder)
        assert error is None or isinstance(error, PROTOCOL_ERRORS)

    @given(messages=st.lists(
        st.dictionaries(st.text(max_size=8),
                        st.integers() | st.text(max_size=16),
                        max_size=4),
        min_size=1, max_size=8),
        chunk=st.integers(min_value=1, max_value=33))
    @settings(max_examples=100, deadline=None)
    def test_valid_streams_decode_exactly(self, messages, chunk):
        data = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(data), chunk):
            decoder.feed(data[i:i + chunk])
            out.extend(decoder.messages())
        decoder.close()
        out.extend(decoder.messages())
        assert out == messages

    @given(messages=st.lists(
        st.dictionaries(st.text(max_size=6), st.integers(),
                        max_size=3),
        min_size=1, max_size=4),
        cut=st.integers(min_value=1, max_value=10**6),
        flip=st.integers(min_value=0, max_value=10**6) | st.none())
    @settings(max_examples=150, deadline=None)
    def test_truncation_and_corruption_are_typed(self, messages, cut,
                                                 flip):
        """A valid stream cut short and/or with one bit flipped yields
        a prefix of the messages, then a typed error (or clean end when
        the cut lands on a boundary and the flip misses)."""
        data = bytearray(b"".join(encode_frame(m) for m in messages))
        data = data[:max(1, len(data) - (cut % len(data)))]
        if flip is not None and data:
            data[flip % len(data)] ^= 1 << (flip % 8)
        decoder = FrameDecoder()
        decoder.feed(bytes(data))
        out, error = _drain(decoder)
        if error is None:
            decoder.close()
            more, error = _drain(decoder)
            out.extend(more)
        assert error is None or isinstance(error, PROTOCOL_ERRORS)
        if error is None and flip is None:
            assert out == messages[:len(out)]


# ----------------------------------------------------------------------
# Live server fuzz (real loopback sockets)
# ----------------------------------------------------------------------

IO_TIMEOUT = 5.0


@pytest.fixture(scope="module")
def service():
    from repro.net.server import StoreService
    store = ObjectStore(build_hospital_schema())
    service = StoreService(store, max_frame=64 * 1024)
    service.run_background()
    yield service
    service.shutdown()


@pytest.fixture()
def client(service):
    from repro.net.client import StoreClient
    client = StoreClient(*service.address, timeout=IO_TIMEOUT)
    yield client
    client.close()


def _raw(service):
    sock = socket.create_connection(service.address,
                                    timeout=IO_TIMEOUT)
    sock.settimeout(IO_TIMEOUT)
    return sock


def _read_hello(sock):
    decoder = FrameDecoder()
    while True:
        decoder.feed(sock.recv(4096))
        for payload in decoder.frames():
            return decode_payload(payload)


def _read_response(sock):
    """The next frame on a raw socket, or None if the server closed."""
    decoder = FrameDecoder()
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return None
        decoder.feed(chunk)
        for payload in decoder.frames():
            return decode_payload(payload)


def _expect_fatal(sock, error_type):
    """The server answers a malformed stream with a best-effort typed
    error frame and closes; either half may win the race, but it never
    hangs and never answers with a success frame."""
    try:
        response = _read_response(sock)
    except OSError:
        return
    if response is not None:
        assert response.get("fatal") is True
        assert response["error"]["type"] == error_type
        assert _read_response(sock) is None     # then it closes


class TestServerFuzz:
    def test_hello_identifies_protocol(self, service):
        sock = _raw(service)
        try:
            hello = _read_hello(sock)
            assert hello["proto"] == "repro-net"
            assert hello["role"] == "primary"
        finally:
            sock.close()

    def test_oversized_length_header(self, service, client):
        sock = _raw(service)
        try:
            _read_hello(sock)
            sock.sendall(struct.pack(">II", 1 << 31, 0))
            _expect_fatal(sock, "FrameTooLargeError")
        finally:
            sock.close()
        assert client.ping()["role"] == "primary"

    def test_a_fatal_frame_arrives_as_its_own_error(self, service):
        """The client raises the server's typed framing error, with its
        fields, and the connection is dead."""
        from repro.net.client import Connection
        conn = Connection(*service.address, timeout=IO_TIMEOUT)
        try:
            conn.sock.sendall(struct.pack(">II", 1 << 31, 0))
            with pytest.raises(FrameTooLargeError) as caught:
                conn.recv()
            assert (caught.value.length, caught.value.limit) == (
                1 << 31, 64 * 1024)
            assert not conn.alive
        finally:
            conn.close()

    def test_crc_corrupt_frame(self, service, client):
        sock = _raw(service)
        try:
            _read_hello(sock)
            data = bytearray(encode_frame({"op": "ping", "id": 1}))
            data[-1] ^= 0xFF
            sock.sendall(bytes(data))
            _expect_fatal(sock, "FrameCorruptError")
        finally:
            sock.close()
        assert client.ping()["role"] == "primary"

    def test_mid_frame_disconnect(self, service, client):
        sock = _raw(service)
        _read_hello(sock)
        sock.sendall(encode_frame({"op": "ping", "id": 1})[:7])
        sock.close()                      # tear mid-header+frame
        # The server must shrug it off and keep serving others.
        assert client.ping()["role"] == "primary"

    def test_garbage_then_valid_client(self, service, client):
        for garbage in (b"GET / HTTP/1.1\r\n\r\n", b"\x00" * 64,
                        b"\xff" * 12):
            sock = _raw(service)
            try:
                _read_hello(sock)
                sock.sendall(garbage)
                try:
                    while _read_response(sock) is not None:
                        pass              # drain until the server closes
                except OSError:
                    pass
            finally:
                sock.close()
        assert client.count("Patient") == 0

    def test_valid_payload_unknown_op_keeps_connection(self, service):
        sock = _raw(service)
        try:
            _read_hello(sock)
            sock.sendall(encode_frame({"op": "mystery", "id": 7}))
            response = _read_response(sock)
            assert response["id"] == 7
            assert "unknown request op" in response["error"]["msg"]
            # connection is still usable
            sock.sendall(encode_frame({"op": "ping", "id": 8}))
            assert _read_response(sock)["id"] == 8
        finally:
            sock.close()

    def test_non_object_json_payload(self, service, client):
        payload = b"42"
        frame = struct.pack(">II", len(payload),
                            zlib.crc32(payload)) + payload
        sock = _raw(service)
        try:
            _read_hello(sock)
            sock.sendall(frame)
            _expect_fatal(sock, "PayloadDecodeError")
        finally:
            sock.close()
        assert client.ping()["role"] == "primary"

    def test_pipelined_garbage_after_valid_request(self, service,
                                                   client):
        """A valid request followed by garbage on the same connection:
        the valid one is answered, then the connection is poisoned."""
        sock = _raw(service)
        try:
            _read_hello(sock)
            sock.sendall(encode_frame({"op": "ping", "id": 1})
                         + b"\xde\xad\xbe\xef\xde\xad\xbe\xef")
            first = _read_response(sock)
            assert first["id"] == 1 and "ok" in first
        finally:
            sock.close()
        assert client.ping()["role"] == "primary"

    def test_protocol_errors_counted(self, service):
        before = service.stats.protocol_errors
        sock = _raw(service)
        try:
            _read_hello(sock)
            sock.sendall(struct.pack(">II", 1 << 31, 0))
            _expect_fatal(sock, "FrameTooLargeError")
        finally:
            sock.close()
        assert service.stats.protocol_errors > before

    @given(garbage=st.binary(min_size=1, max_size=128))
    @settings(max_examples=15, deadline=None)
    def test_random_garbage_never_hangs(self, service, garbage):
        sock = _raw(service)
        try:
            _read_hello(sock)
            sock.sendall(garbage)
            sock.shutdown(socket.SHUT_WR)
            try:
                while _read_response(sock) is not None:
                    pass                  # drain until close
            except OSError:
                pass
        finally:
            sock.close()
