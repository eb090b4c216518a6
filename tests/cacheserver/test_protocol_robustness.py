"""Hostile-wire robustness: garbage in, clean close or ERROR out — never a hang.

The server must survive any byte sequence a broken (or malicious) client can
produce: truncated frames, oversized length prefixes, short message bodies,
unknown verbs, and plain fuzz.  The client must survive the mirror image — a
server that dies mid-response, answers with garbage, or closes early — by
degrading to misses, never by hanging or corrupting later traffic.
"""

import random
import socket
import struct
import threading

import pytest

from repro.cachestore import MISSING
from repro.cacheserver import (
    AsyncCacheServer,
    CacheServerCore,
    ShardedRemoteBackend,
    server_ping,
)
from repro.cacheserver import protocol
from repro.cacheserver.pipeline import PipelinedConnection
from repro.obs.metrics import parse_prometheus

# short socket timeouts keep a would-be hang visible as a fast test failure
_TIMEOUT = 5.0


@pytest.fixture()
def server():
    with AsyncCacheServer() as running:
        yield running


def _raw_frame(body: bytes) -> bytes:
    """A length-prefixed frame with no request id: framing-layer bytes only."""
    return struct.pack(">I", len(body)) + body


def _connect(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=_TIMEOUT)
    return sock


class TestServerAgainstHostileClients:
    def test_oversized_length_prefix_drops_the_connection(self, server):
        with _connect(server) as sock:
            sock.sendall(b"\xff\xff\xff\xff")  # a 4 GiB frame announcement
            assert sock.recv(1024) == b""  # server closed on us
        assert server_ping(server.url)  # and is still healthy

    def test_truncated_frame_then_eof_is_quiet(self, server):
        with _connect(server) as sock:
            sock.sendall(struct.pack(">I", 100) + b"only-part-of-it")
        assert server_ping(server.url)

    def test_message_body_shorter_than_a_request_id(self, server):
        # a 2-byte body cannot carry the 4-byte id; the server must treat the
        # frame as unparseable and close, not index past the buffer
        with _connect(server) as sock:
            sock.sendall(_raw_frame(b"\x01\x00"))
            assert sock.recv(1024) == b""
        assert server_ping(server.url)

    def test_unknown_verb_is_an_error_response_not_a_close(self, server):
        with _connect(server) as sock:
            protocol.send_message(sock, 3, bytes((250, protocol.REGION_RESULTS)))
            request_id, body = protocol.recv_message(sock)
            status, payload = protocol.decode_response(body)
            assert request_id == 3 and status == protocol.ERROR
            assert b"verb" in payload
            # the conversation continues after the error
            protocol.send_message(
                sock, 4, protocol.encode_request(protocol.PING, protocol.REGION_ALL)
            )
            assert protocol.recv_message(sock)[0] == 4

    @pytest.mark.parametrize("region", [0, 1], ids=["retired-fits", "retired-partitions"])
    @pytest.mark.parametrize("verb", ["GET", "PUT", "LEN", "CLEAR"])
    def test_retired_regions_answer_error_and_are_counted(self, server, verb, region):
        digest = b"\x00" * protocol.DIGEST_SIZE
        body = {
            "GET": protocol.encode_request(protocol.GET, region, digest=digest),
            "PUT": protocol.encode_request(
                protocol.PUT, region, digest=digest, payload=b"value"
            ),
            "LEN": protocol.encode_request(protocol.LEN, region),
            "CLEAR": protocol.encode_request(protocol.CLEAR, region),
        }[verb]
        with _connect(server) as sock:
            protocol.send_message(sock, 5, body)
            answer_id, answer = protocol.recv_message(sock)
            status, payload = protocol.decode_response(answer)
            assert answer_id == 5 and status == protocol.ERROR
            assert payload == f"unknown region {region}".encode("utf-8")
            # the connection stays usable after the error
            protocol.send_message(
                sock, 6, protocol.encode_request(protocol.PING, protocol.REGION_ALL)
            )
            assert protocol.recv_message(sock)[0] == 6
        samples = parse_prometheus(server.metrics_text())
        assert samples[f'cacheserver_request_errors_total{{verb="{verb}"}}'] == 1
        assert server.stats()["regions"]["results"]["entries"] == 0

    def test_zero_length_frame_is_rejected_without_crash(self, server):
        with _connect(server) as sock:
            sock.sendall(_raw_frame(b""))
            assert sock.recv(1024) == b""
        assert server_ping(server.url)

    def test_seeded_fuzz_never_wedges_the_server(self, server):
        # 50 connections each spraying random bytes; after every one of them
        # the server must still answer a well-formed PING promptly
        rng = random.Random(0xC0FFEE)
        for round_number in range(50):
            with _connect(server) as sock:
                blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
                # half the rounds frame the garbage properly, exercising the
                # parser; half spray raw bytes at the framing layer
                sock.sendall(_raw_frame(blob) if rng.random() < 0.5 else blob)
                # a short drain window: the server either answers/closes fast
                # or is (legitimately) waiting for the rest of a partial frame
                sock.settimeout(0.2)
                try:
                    while sock.recv(4096):
                        pass  # drain whatever it answers until close
                except (TimeoutError, OSError):
                    pass
            assert server_ping(server.url), f"server wedged after round {round_number}"

    def test_fuzzed_valid_headers_with_garbage_tails(self, server):
        # frames that *start* like real requests but carry malformed tails
        rng = random.Random(42)
        verbs = [protocol.GET, protocol.PUT, protocol.LEN]
        for _ in range(40):
            with _connect(server) as sock:
                verb = rng.choice(verbs)
                tail = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
                protocol.send_message(
                    sock, 9, bytes((verb, protocol.REGION_RESULTS)) + tail
                )
                sock.settimeout(_TIMEOUT)
                answer = protocol.recv_message(sock)
                if answer is not None:
                    # whatever it was, the answer is a well-formed response
                    status, _ = protocol.decode_response(answer[1])
                    assert status in (
                        protocol.OK,
                        protocol.HIT,
                        protocol.MISS,
                        protocol.ERROR,
                    )
        assert server_ping(server.url)

    def test_server_survives_concurrent_garbage_and_real_traffic(self, server):
        stop = threading.Event()
        errors: list[Exception] = []

        def spray() -> None:
            rng = random.Random(7)
            try:
                while not stop.is_set():
                    with _connect(server) as sock:
                        sock.sendall(bytes(rng.randrange(256) for _ in range(64)))
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        attacker = threading.Thread(target=spray, daemon=True)
        attacker.start()
        try:
            backend = ShardedRemoteBackend(server.url, namespace=b"fuzz-bystander")
            for index in range(50):
                backend.put(("k", index), index)
                assert backend.get(("k", index)) == index
            assert backend.connection_failures == 0  # garbage hurt nobody else
            backend.close()
        finally:
            stop.set()
            attacker.join(timeout=10)
        assert not errors


class _EvilServer:
    """A one-connection server that answers every frame with scripted bytes."""

    def __init__(self, raw_response: bytes, close_after: bool = True) -> None:
        self._raw = raw_response
        self._close_after = close_after
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self.url = f"127.0.0.1:{self.address[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
            with conn:
                conn.settimeout(_TIMEOUT)
                try:
                    protocol.recv_frame(conn)  # read one request, then misbehave
                except protocol.ProtocolError:
                    pass
                conn.sendall(self._raw)
                if not self._close_after:
                    try:
                        while protocol.recv_frame(conn) is not None:
                            conn.sendall(self._raw)
                    except (protocol.ProtocolError, OSError, TimeoutError):
                        pass
        except OSError:  # pragma: no cover - listener closed
            pass

    def close(self) -> None:
        self._listener.close()


class TestClientAgainstHostileServers:
    def test_response_without_request_id_fails_the_request_not_the_process(self):
        # a 2-byte frame is too short to carry the id; the reader must fail
        # the connection (and its pending futures) promptly — the degrade
        # decision belongs to the ShardClient layer above, which catches this
        evil = _EvilServer(struct.pack(">I", 2) + b"ok")
        try:
            connection = PipelinedConnection(evil.address, timeout=_TIMEOUT)
            with pytest.raises(ConnectionError):
                connection.request(
                    protocol.encode_request(protocol.PING, protocol.REGION_ALL)
                )
            assert not connection.alive
            connection.close()
        finally:
            evil.close()

    def test_server_closing_mid_frame_fails_pending_requests(self):
        evil = _EvilServer(struct.pack(">I", 100) + b"half")  # announces 100, sends 4
        try:
            connection = PipelinedConnection(evil.address, timeout=_TIMEOUT)
            with pytest.raises(ConnectionError):
                connection.request(
                    protocol.encode_request(protocol.PING, protocol.REGION_ALL)
                )
            assert not connection.alive
            connection.close()
        finally:
            evil.close()

    def test_backend_degrades_to_miss_on_garbage_responses(self):
        evil = _EvilServer(b"\x00" * 16, close_after=False)
        try:
            backend = ShardedRemoteBackend(evil.url)
            assert backend.get("k") is MISSING  # garbage → degraded, not raised
            assert backend.connection_failures >= 1
            backend.close()
        finally:
            evil.close()

    @pytest.mark.parametrize(
        "status",
        [protocol.MISS | 0x80, 4],
        ids=["old-epoch-flag", "unknown"],
    )
    def test_undefined_status_degrades_to_a_counted_miss(self, status):
        # the reader fails the connection on the undecodable status, so the
        # shard degrades to a miss and counts it — never reads it as a miss
        evil = _EvilServer(protocol.frame_message(0, bytes((status,))), close_after=False)
        try:
            backend = ShardedRemoteBackend(evil.url)
            assert backend.get_many(["k"]) == [MISSING]
            assert backend.connection_failures == 1
            backend.close()
        finally:
            evil.close()


class TestUndefinedWireValues:
    """Status bytes and verb ids the protocol does not define are rejected."""

    @pytest.mark.parametrize(
        "status",
        [protocol.HIT | 0x80, protocol.OK | 0x80, protocol.ERROR | 0x80, 4, 0x7F, 0xFF],
    )
    def test_undefined_status_is_a_protocol_error(self, status):
        # 0x80 flagged a 4-byte epoch header once; with or without those
        # bytes (or a truncated remnant of them) the frame is unreadable now
        for tail in (b"", b"\x00\x00", b"\x00\x00\x00\x03", b"\x00\x00\x00\x03value"):
            with pytest.raises(protocol.ProtocolError):
                protocol.decode_response(bytes((status,)) + tail)

    @pytest.mark.parametrize("verb", [7, 10, 11, 12, 13])
    def test_unassigned_verb_ids_answer_error(self, verb):
        core = CacheServerCore()
        for body in (
            bytes((verb, protocol.REGION_ALL)),
            bytes((verb, protocol.REGION_ALL)) + b'{"epoch": 1, "endpoints": ["a:1"]}',
            bytes((verb | protocol.TRACE_FLAG, protocol.REGION_ALL)) + b"\x00" * 24,
        ):
            status, payload = protocol.decode_response(core.dispatch(body))
            assert status == protocol.ERROR
            assert b"unknown verb" in payload
