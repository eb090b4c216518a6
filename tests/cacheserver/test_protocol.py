"""Wire-format tests: frames round-trip, malformed bytes are loud, bounds hold."""

import socket
import struct
import threading

import pytest

from repro.cacheserver import protocol
from repro.cacheserver.protocol import (
    CLEAR,
    DIGEST_SIZE,
    ERROR,
    GET,
    HIT,
    LEN,
    MISS,
    OK,
    PING,
    PUT,
    REGION_ALL,
    REGION_RESULTS,
    STATS,
    ProtocolError,
    Request,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    frame_message,
    pack_count,
    recv_message,
    send_message,
    unpack_count,
)

DIGEST = bytes(range(DIGEST_SIZE))


class TestRequestCodec:
    def test_get_round_trip(self):
        body = encode_request(GET, REGION_RESULTS, digest=DIGEST)
        assert decode_request(body) == Request(GET, REGION_RESULTS, digest=DIGEST)

    def test_put_round_trip_carries_cost_and_payload(self):
        body = encode_request(
            PUT, REGION_RESULTS, digest=DIGEST, cost=0.125, payload=b"pickled"
        )
        request = decode_request(body)
        assert request.verb == PUT and request.region == REGION_RESULTS
        assert request.digest == DIGEST
        assert request.cost == 0.125
        assert request.payload == b"pickled"

    def test_put_empty_payload_is_legal(self):
        # pickled values are never empty, but the frame format must not care
        request = decode_request(encode_request(PUT, REGION_RESULTS, digest=DIGEST))
        assert request.payload == b"" and request.cost == 0.0

    def test_admin_verbs_round_trip(self):
        for verb in (PING, LEN, CLEAR, STATS):
            request = decode_request(encode_request(verb, REGION_ALL))
            assert request.verb == verb and request.region == REGION_ALL

    def test_bad_digest_length_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_request(GET, REGION_RESULTS, digest=b"short")

    def test_bad_digest_length_rejected_at_decode(self):
        with pytest.raises(ProtocolError):
            decode_request(bytes((GET, REGION_RESULTS)) + b"short")

    def test_truncated_put_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(bytes((PUT, REGION_RESULTS)) + DIGEST[:4])

    def test_unknown_verb_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(bytes((99, REGION_RESULTS)))

    def test_empty_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b"")


class TestResponseCodec:
    def test_statuses_round_trip(self):
        assert decode_response(encode_response(HIT, b"value")) == (HIT, b"value")
        assert decode_response(encode_response(MISS)) == (MISS, b"")
        assert decode_response(encode_response(OK, b"pong")) == (OK, b"pong")
        assert decode_response(encode_response(ERROR, b"boom")) == (ERROR, b"boom")

    def test_empty_response_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response(b"")

    def test_count_payload_round_trip(self):
        assert unpack_count(pack_count(0)) == 0
        assert unpack_count(pack_count(2**40)) == 2**40
        with pytest.raises(ProtocolError):
            unpack_count(b"\x00\x01")


class _SocketPair:
    """A connected local socket pair for exercising the framing layer."""

    def __enter__(self):
        self.left, self.right = socket.socketpair()
        return self.left, self.right

    def __exit__(self, *exc_info):
        self.left.close()
        self.right.close()


class TestFraming:
    def test_frames_round_trip_in_order(self):
        with _SocketPair() as (left, right):
            send_message(left, 1, b"first")
            send_message(left, 2, b"")
            left.sendall(frame_message(0xFFFFFFFF, b"third" * 1000))
            assert recv_message(right) == (1, b"first")
            assert recv_message(right) == (2, b"")
            assert recv_message(right) == (0xFFFFFFFF, b"third" * 1000)

    def test_clean_eof_returns_none(self):
        with _SocketPair() as (left, right):
            left.close()
            assert recv_message(right) is None

    def test_eof_mid_frame_raises(self):
        with _SocketPair() as (left, right):
            left.sendall(struct.pack(">I", 100) + b"only a few bytes")
            left.close()
            with pytest.raises(ProtocolError):
                recv_message(right)

    def test_oversized_length_prefix_rejected_without_allocating(self):
        with _SocketPair() as (left, right):
            left.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError):
                recv_message(right)

    def test_oversized_send_rejected(self):
        class _NeverUsed:
            def sendall(self, data):  # pragma: no cover - must not be reached
                raise AssertionError("oversized frame reached the socket")

        with pytest.raises(ProtocolError):
            frame_message(0, b"x" * protocol.MAX_FRAME_BYTES)
        with pytest.raises(ProtocolError):
            send_message(_NeverUsed(), 0, b"x" * protocol.MAX_FRAME_BYTES)

    def test_frame_too_short_for_a_request_id_raises(self):
        with _SocketPair() as (left, right):
            left.sendall(struct.pack(">I", 2) + b"ok")
            with pytest.raises(ProtocolError):
                recv_message(right)

    def test_large_frame_crosses_segment_boundaries(self):
        # big enough that recv() returns it in several chunks
        body = b"z" * (4 * 1024 * 1024)
        with _SocketPair() as (left, right):
            writer = threading.Thread(target=send_message, args=(left, 9, body))
            writer.start()
            assert recv_message(right) == (9, body)
            writer.join()
