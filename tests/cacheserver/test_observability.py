"""Observability across the socket: trace headers, server spans, METRICS."""

import os

import pytest

from repro.cacheserver import (
    AsyncCacheServer,
    ShardedRemoteBackend,
    server_metrics,
    server_trace,
)
from repro.cacheserver import protocol
from repro.obs.metrics import parse_prometheus
from repro.obs.trace import (
    BufferSink,
    disable_tracing,
    get_tracer,
    new_span_id,
    new_trace_id,
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    disable_tracing()
    yield
    disable_tracing()


@pytest.fixture(scope="module")
def server():
    with AsyncCacheServer() as running:
        yield running


@pytest.fixture()
def backend(server):
    attached = ShardedRemoteBackend(server.url, namespace=os.urandom(8))
    yield attached
    attached.close()


def _context_bytes(trace_id: str, parent_id: str) -> bytes:
    return bytes.fromhex(trace_id) + bytes.fromhex(parent_id)


class TestProtocolTraceHeader:
    def test_get_round_trips_with_and_without_header(self):
        digest = os.urandom(protocol.DIGEST_SIZE)
        plain = protocol.encode_request(protocol.GET, protocol.REGION_RESULTS, digest=digest)
        decoded = protocol.decode_request(plain)
        assert decoded.trace == b"" and decoded.digest == digest
        context = _context_bytes(new_trace_id(), new_span_id())
        traced = protocol.encode_request(
            protocol.GET, protocol.REGION_RESULTS, digest=digest, trace=context
        )
        decoded = protocol.decode_request(traced)
        assert decoded.trace == context
        assert decoded.verb == protocol.GET and decoded.digest == digest

    def test_traced_frame_is_plain_frame_plus_header(self):
        digest = os.urandom(protocol.DIGEST_SIZE)
        context = _context_bytes(new_trace_id(), new_span_id())
        plain = protocol.encode_request(protocol.GET, protocol.REGION_RESULTS, digest=digest)
        traced = protocol.encode_request(
            protocol.GET, protocol.REGION_RESULTS, digest=digest, trace=context
        )
        assert len(traced) == len(plain) + protocol.TRACE_CONTEXT_SIZE
        assert traced[0] == protocol.GET | protocol.TRACE_FLAG
        assert traced[2 : 2 + protocol.TRACE_CONTEXT_SIZE] == context

    def test_put_carries_the_header_too(self):
        context = _context_bytes(new_trace_id(), new_span_id())
        decoded = protocol.decode_request(
            protocol.encode_request(
                protocol.PUT,
                protocol.REGION_RESULTS,
                digest=os.urandom(protocol.DIGEST_SIZE),
                payload=b"value",
                trace=context,
            )
        )
        assert decoded.trace == context and decoded.payload == b"value"

    def test_wrong_header_length_rejected_at_encode(self):
        with pytest.raises(protocol.ProtocolError, match="trace context"):
            protocol.encode_request(
                protocol.PING, protocol.REGION_ALL, trace=b"too-short"
            )

    def test_truncated_header_rejected_at_decode(self):
        body = bytes((protocol.PING | protocol.TRACE_FLAG, protocol.REGION_ALL)) + b"\x00" * 5
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            protocol.decode_request(body)


class TestServerSpans:
    def test_traced_requests_buffer_spans_under_the_client_parent(self, server, backend):
        tracer = get_tracer()
        tracer.configure(BufferSink())
        with tracer.span("client.work") as client_span:
            backend.get("missing-key")
            backend.get("missing-key")
        spans = server_trace(server.url, trace_id=tracer.trace_id)
        assert spans, "the server buffered no spans for the trace"
        for span in spans:
            assert span["process"] == "server"
            assert span["name"] == "server.get"
            assert span["trace"] == tracer.trace_id
            assert span["parent"] == client_span.span_id
            assert span["attributes"]["url"] == server.url

    def test_drain_filters_by_trace_id_and_removes_what_it_returns(self, server, backend):
        tracer = get_tracer()
        tracer.configure(BufferSink())
        with tracer.span("first"):
            backend.get("key-one")
        first_trace = tracer.trace_id
        disable_tracing()
        tracer.configure(BufferSink())
        with tracer.span("second"):
            backend.get("key-two")
        second_trace = tracer.trace_id
        drained = server_trace(server.url, trace_id=first_trace)
        assert drained and all(span["trace"] == first_trace for span in drained)
        assert server_trace(server.url, trace_id=first_trace) == []
        # the other engine's spans stayed buffered for its own collection
        remaining = server_trace(server.url, trace_id=second_trace)
        assert remaining and all(span["trace"] == second_trace for span in remaining)

    def test_untraced_requests_buffer_nothing(self, server, backend):
        leftover = server_trace(server.url)  # drain whatever earlier tests left
        del leftover
        backend.get("untraced-key")
        assert server_trace(server.url) == []


class TestServerMetrics:
    def test_metrics_verb_renders_parseable_prometheus(self, server, backend):
        backend.get("metric-probe")
        samples = parse_prometheus(server_metrics(server.url))
        get_series = 'cacheserver_requests_total{verb="GET"}'
        assert samples[get_series] >= 1
        assert 'cacheserver_request_seconds_count{verb="GET"}' in samples
        assert samples["cacheserver_uptime_seconds"] >= 0

    def test_request_counter_advances_per_request(self, server, backend):
        series = 'cacheserver_requests_total{verb="GET"}'
        before = parse_prometheus(server_metrics(server.url))[series]
        backend.get("probe-a")
        backend.get("probe-b")
        after = parse_prometheus(server_metrics(server.url))[series]
        assert after == before + 2


class TestRequestErrors:
    def test_malformed_requests_are_counted_by_verb(self):
        digest = b"\x00" * protocol.DIGEST_SIZE
        with AsyncCacheServer() as running:
            for body in (
                bytes((250, 0)),  # an unassigned verb id
                bytes((11, 255)),  # a retired membership verb
                protocol.encode_request(protocol.GET, 99, digest=digest),
            ):
                status, _ = protocol.decode_response(running.dispatch(body))
                assert status == protocol.ERROR
            well_formed = protocol.encode_request(protocol.GET, protocol.REGION_RESULTS, digest=digest)
            status, _ = protocol.decode_response(running.dispatch(well_formed))
            assert status == protocol.MISS
            samples = parse_prometheus(running.metrics_text())
            stats = running.stats()
        assert samples['cacheserver_request_errors_total{verb="unknown"}'] == 2
        assert samples['cacheserver_request_errors_total{verb="GET"}'] == 1
        assert samples['cacheserver_requests_total{verb="GET"}'] == 2
        assert stats["server"]["errors"] == 3
        assert stats["server"]["requests"] == 2
