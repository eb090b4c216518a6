"""End-to-end serving tests over a real socket: the differential invariant,
cross-tenant single-flight dedup, graceful backpressure, and the HTTP error
contract."""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import CharlesConfig, ServingConfig
from repro.obs.metrics import get_registry
from repro.obs.trace import BufferSink, disable_tracing, get_tracer
from repro.relational.csv_io import write_csv_text
from repro.serving import ServingServer
from repro.serving.service import CharlesServingService
from repro.timeline import EngineSession
from repro.workloads import streaming_employee_timeline

_FAST = dict(max_partitions=2, max_condition_attributes=2, top_k=5)


@pytest.fixture(autouse=True)
def fresh_metrics():
    """The metrics registry is process-wide; isolate each test's counters."""
    get_registry().reset()
    yield
    get_registry().reset()


def _ranking(result):
    return [(s.summary.describe(), s.score) for s in result.summaries]


def request(url, method="GET", payload=None, tenant=None):
    """One JSON request; returns (status, headers, decoded body) without raising."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if tenant is not None:
        req.add_header("X-Charles-Tenant", tenant)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as error:
        with error:  # the error owns the response socket
            body = error.read()
        return error.code, dict(error.headers), json.loads(body or b"{}")


def request_text(url):
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.status, resp.read().decode("utf-8")


@pytest.fixture(scope="module")
def chain():
    """A 3-version streaming chain and its versions' exact CSV uploads."""
    store, _ = streaming_employee_timeline(60, num_versions=3, seed=13)
    csvs = {name: write_csv_text(store.version(name).table) for name in store.names}
    return store, csvs


@pytest.fixture()
def server():
    with ServingServer() as running:
        yield running


def _open_session(url, tenant, config_fields, key="name"):
    status, _, body = request(
        f"{url}/v1/sessions",
        "POST",
        {"key": key, "config": config_fields},
        tenant=tenant,
    )
    assert status == 201, body
    return body


def _advance(url, session_id, tenant, name, csv_text):
    status, _, body = request(
        f"{url}/v1/sessions/{session_id}/advance",
        "POST",
        {"version": name, "csv": csv_text},
        tenant=tenant,
    )
    assert status == 200, body
    return body


def _summarize(url, session_id, tenant, **fields):
    return request(
        f"{url}/v1/sessions/{session_id}/summarize",
        "POST",
        {"target": "bonus", **fields},
        tenant=tenant,
    )


def _served_ranking(body):
    return [(entry["summary"], entry["score"]) for entry in body["rankings"]]


class TestDifferentialInvariant:
    def test_interleaved_tenants_match_solo_direct_runs(self, server, chain):
        """Two tenants with *different* result-affecting configs, served
        interleaved over the same chain, each get byte-identical results to a
        solo EngineSession run of their config — serving adds no cross-talk."""
        store, csvs = chain
        url = server.url
        configs = {
            "acme": dict(_FAST),
            "rival": dict(_FAST, alpha=0.7),  # result-affecting difference
        }
        sessions = {
            tenant: _open_session(url, tenant, fields)
            for tenant, fields in configs.items()
        }
        fingerprints = {t: s["fingerprint"] for t, s in sessions.items()}
        assert fingerprints["acme"] != fingerprints["rival"]

        served = {tenant: [] for tenant in configs}
        names = store.names
        # interleave per version and per hop: A then B, always alternating
        for index, name in enumerate(names):
            for tenant in configs:
                _advance(url, sessions[tenant]["session"], tenant, name, csvs[name])
            if index >= 1:
                for tenant in configs:
                    status, _, body = _summarize(
                        url, sessions[tenant]["session"], tenant
                    )
                    assert status == 200, body
                    assert body["source"] == names[index - 1]
                    assert body["version"] == name
                    served[tenant].append(_served_ranking(body))

        for tenant, fields in configs.items():
            engine = EngineSession(CharlesConfig(**fields))
            solo = [
                _ranking(engine.summarize_pair(store.pair(src, dst), "bonus"))
                for src, dst in zip(names, names[1:])
            ]
            engine.close()
            assert served[tenant] == solo, tenant

        # a different config produced genuinely different work
        assert served["acme"] != served["rival"]


class TestDedup:
    def test_identical_inflight_work_across_tenants_evaluates_once(
        self, server, chain, monkeypatch
    ):
        store, csvs = chain
        url = server.url
        calls = []
        original = EngineSession.summarize_pair

        def slow_summarize(self, pair, target, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.5)  # widen the in-flight window so requests overlap
            return original(self, pair, target, **kwargs)

        monkeypatch.setattr(EngineSession, "summarize_pair", slow_summarize)

        sessions = {}
        for tenant in ("acme", "rival"):
            sessions[tenant] = _open_session(url, tenant, dict(_FAST))["session"]
            for name in store.names[:2]:
                _advance(url, sessions[tenant], tenant, name, csvs[name])

        results = {}

        def fire(tenant):
            results[tenant] = _summarize(url, sessions[tenant], tenant)

        threads = [
            threading.Thread(target=fire, args=(tenant,)) for tenant in sessions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        bodies = [results[t][2] for t in sessions]
        assert [results[t][0] for t in sessions] == [200, 200]
        # one evaluation served both tenants, and said so
        assert len(calls) == 1
        assert sorted(body["deduped"] for body in bodies) == [False, True]
        assert _served_ranking(bodies[0]) == _served_ranking(bodies[1])

        _, metrics = request_text(f"{url}/metrics")
        assert 'serve_dedup_total{outcome="follower"} 1' in metrics

    def test_different_configs_never_share_a_flight(self, server, chain, monkeypatch):
        store, csvs = chain
        url = server.url
        calls = []
        original = EngineSession.summarize_pair

        def slow_summarize(self, pair, target, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.3)
            return original(self, pair, target, **kwargs)

        monkeypatch.setattr(EngineSession, "summarize_pair", slow_summarize)

        sessions = {}
        for tenant, fields in (("acme", dict(_FAST)), ("rival", dict(_FAST, alpha=0.7))):
            sessions[tenant] = _open_session(url, tenant, fields)["session"]
            for name in store.names[:2]:
                _advance(url, sessions[tenant], tenant, name, csvs[name])

        results = {}

        def fire(tenant):
            results[tenant] = _summarize(url, sessions[tenant], tenant)

        threads = [
            threading.Thread(target=fire, args=(tenant,)) for tenant in sessions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert [results[t][0] for t in sessions] == [200, 200]
        assert len(calls) == 2  # distinct fingerprints: no sharing
        assert all(not results[t][2]["deduped"] for t in sessions)


class TestServedSpans:
    @pytest.mark.parametrize(
        "tenants",
        [
            {"acme": dict(_FAST)},
            {"acme": dict(_FAST), "rival": dict(_FAST, alpha=0.7)},
        ],
        ids=["one-tenant", "two-concurrent-tenants"],
    )
    def test_engine_spans_parent_under_their_own_request(
        self, server, chain, monkeypatch, tenants
    ):
        store, csvs = chain
        url = server.url
        original = EngineSession.summarize_pair

        def slow_summarize(self, pair, target, **kwargs):
            time.sleep(0.2)  # widen the in-flight window so requests overlap
            return original(self, pair, target, **kwargs)

        monkeypatch.setattr(EngineSession, "summarize_pair", slow_summarize)
        sessions = {}
        for tenant, fields in tenants.items():
            sessions[tenant] = _open_session(url, tenant, fields)["session"]
            for name in store.names[:2]:
                _advance(url, sessions[tenant], tenant, name, csvs[name])

        results = {}

        def fire(tenant):
            results[tenant] = _summarize(url, sessions[tenant], tenant)

        sink = BufferSink()
        get_tracer().configure(sink)
        try:
            threads = [threading.Thread(target=fire, args=(t,)) for t in sessions]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            disable_tracing()
        # distinct configs: every request ran its own search, none deduped
        assert [results[t][0] for t in sessions] == [200] * len(sessions)
        assert not any(results[t][2]["deduped"] for t in sessions)

        records = sink.records
        by_id = {record["span"]: record for record in records}

        def request_of(record):
            while record["parent"] is not None:
                record = by_id[record["parent"]]
            assert record["name"] == "serve.request"
            return record["span"]

        requests = {r["span"] for r in records if r["name"] == "serve.request"}
        summarizes = [r for r in records if r["name"] == "session.summarize"]
        searches = [r for r in records if r["name"] == "search"]
        assert len(requests) == len(summarizes) == len(searches) == len(sessions)
        for summarize in summarizes:
            parent = by_id[summarize["parent"]]
            assert parent["name"] == "serve.request"
            assert parent["attributes"]["route"].endswith("/summarize")
        # each request owns exactly one summarize and one search
        assert {request_of(r) for r in summarizes} == requests
        assert {request_of(r) for r in searches} == requests


class TestBackpressure:
    def test_flood_sheds_gracefully_and_recovers(self, chain, monkeypatch):
        """Flooding a capacity-1 queue yields fast 503s with an integer
        Retry-After — never a hung connection — and service resumes after."""
        store, csvs = chain
        original = EngineSession.summarize_pair

        def slow_summarize(self, pair, target, **kwargs):
            time.sleep(0.5)
            return original(self, pair, target, **kwargs)

        monkeypatch.setattr(EngineSession, "summarize_pair", slow_summarize)

        serving = ServingConfig(queue_depth=1, tenant_concurrency=1, worker_threads=2)
        with ServingServer(serving=serving) as server:
            url = server.url
            session = _open_session(url, "acme", dict(_FAST))["session"]
            for name in store.names[:2]:
                _advance(url, session, "acme", name, csvs[name])

            outcomes = []

            def fire():
                started = time.perf_counter()
                status, headers, body = _summarize(url, session, "acme")
                outcomes.append((status, headers, time.perf_counter() - started))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)  # nothing hung

            statuses = sorted(status for status, _, _ in outcomes)
            assert statuses.count(503) >= 1
            assert statuses.count(200) >= 1
            assert statuses.count(200) + statuses.count(503) == 6
            for status, headers, elapsed in outcomes:
                if status == 503:
                    retry_after = headers.get("Retry-After")
                    assert retry_after is not None
                    assert int(retry_after) >= 1
                    assert elapsed < 5  # shed at the door, not after a timeout

            # the tenant is not poisoned: a later request succeeds
            status, _, body = _summarize(url, session, "acme")
            assert status == 200, body

            _, metrics = request_text(f"{url}/metrics")
            assert 'serve_shed_total{reason="queue_full"}' in metrics


class TestHttpContract:
    def test_health_and_metrics(self, server):
        status, _, health = request(f"{server.url}/healthz")
        assert (status, health["status"]) == (200, "ok")
        status, metrics = request_text(f"{server.url}/metrics")
        assert status == 200
        assert "serve_request_seconds_bucket" in metrics
        assert 'serve_dedup_total{outcome="leader"} 0' in metrics  # pre-seeded

    def test_missing_tenant_is_400(self, server):
        status, _, body = request(f"{server.url}/v1/sessions", "POST", {})
        assert status == 400
        assert "tenant" in body["error"]

    def test_unknown_config_field_is_400(self, server):
        # bound pruning always runs and cost routing is gone: neither is a
        # config field
        for field in ("no_such_knob", "bound_pruning", "cost_routing"):
            status, _, body = request(
                f"{server.url}/v1/sessions",
                "POST",
                {"config": {field: False}},
                tenant="acme",
            )
            assert status == 400
            assert field in body["error"]
        # a retired field is still accepted, so older tenant configs keep loading
        for value in (True, False):
            _open_session(server.url, "acme", {"partition_maintenance": value})

    def test_infra_fields_are_server_owned(self, server):
        status, _, body = request(
            f"{server.url}/v1/sessions",
            "POST",
            {"config": {"cache_url": "evil:1"}},
            tenant="acme",
        )
        assert status == 400
        assert "server-owned" in body["error"]

    def test_foreign_tenant_is_403(self, server, chain):
        session = _open_session(server.url, "acme", dict(_FAST))["session"]
        status, _, _ = request(
            f"{server.url}/v1/sessions/{session}", tenant="rival"
        )
        assert status == 403

    def test_unknown_session_is_404(self, server):
        status, _, _ = request(
            f"{server.url}/v1/sessions/{'00' * 16}", tenant="acme"
        )
        assert status == 404
        status, _, _ = request(f"{server.url}/nowhere")
        assert status == 404

    def test_summarize_before_two_versions_is_409(self, server, chain):
        store, csvs = chain
        session = _open_session(server.url, "acme", dict(_FAST))["session"]
        status, _, body = _summarize(server.url, session, "acme")
        assert status == 409
        name = store.names[0]
        _advance(server.url, session, "acme", name, csvs[name])
        status, _, _ = _summarize(server.url, session, "acme")
        assert status == 409

    def test_method_not_allowed_is_405(self, server):
        status, _, _ = request(f"{server.url}/healthz", "POST", {})
        assert status == 405

    def test_malformed_json_is_400(self, server):
        req = urllib.request.Request(
            f"{server.url}/v1/sessions",
            data=b"{not json",
            method="POST",
            headers={"X-Charles-Tenant": "acme"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        with excinfo.value as error:
            assert error.code == 400

    def test_close_then_use_is_404(self, server, chain):
        session = _open_session(server.url, "acme", dict(_FAST))["session"]
        status, _, body = request(
            f"{server.url}/v1/sessions/{session}", "DELETE", tenant="acme"
        )
        assert (status, body["closed"]) == (200, True)
        status, _, _ = request(f"{server.url}/v1/sessions/{session}", tenant="acme")
        assert status == 404

    def test_list_shows_only_own_sessions(self, server):
        mine = _open_session(server.url, "acme", dict(_FAST))["session"]
        _open_session(server.url, "rival", dict(_FAST))
        status, _, body = request(f"{server.url}/v1/sessions", tenant="acme")
        assert status == 200
        listed = {entry["session"] for entry in body["sessions"]}
        assert mine in listed
        assert all(entry["tenant"] == "acme" for entry in body["sessions"])


class _RecordingService(CharlesServingService):
    """Records the server side of every accepted connection, then serves it."""

    def __init__(self) -> None:
        super().__init__()
        self.accepted: list = []

    async def _handle_connection(self, reader, writer) -> None:
        self.accepted.append(writer.get_extra_info("socket"))
        await super()._handle_connection(reader, writer)


class TestInternalErrors:
    def test_a_raising_handler_is_counted_traced_and_logged(
        self, server, monkeypatch, capfd
    ):
        async def broken(self, request):
            raise RuntimeError("handler failed on purpose")

        monkeypatch.setattr(CharlesServingService, "_handle_list", broken)
        sink = BufferSink()
        get_tracer().configure(sink)
        try:
            status, _, body = request(f"{server.url}/v1/sessions", tenant="acme")
        finally:
            disable_tracing()
        assert (status, body) == (500, {"error": "internal server error"})
        _, metrics = request_text(f"{server.url}/metrics")
        assert (
            'serve_internal_errors_total{route="/v1/sessions", kind="RuntimeError"} 1'
            in metrics
        )
        assert 'serve_requests_total{route="/v1/sessions", status="500"} 1' in metrics
        (span,) = [r for r in sink.records if r["name"] == "serve.request"]
        assert span["attributes"]["status"] == 500
        assert span["attributes"]["error"] == "RuntimeError"
        # the traceback still reaches stderr
        assert "handler failed on purpose" in capfd.readouterr().err

    def test_no_internal_error_is_counted_for_a_client_error(self, server):
        status, _, _ = request(f"{server.url}/v1/sessions", "POST", {})
        assert status == 400
        _, metrics = request_text(f"{server.url}/metrics")
        assert "serve_internal_errors_total{" not in metrics


class TestConnections:
    def test_accepted_connections_run_without_nagle(self):
        async def accepted_nodelay() -> int:
            service = _RecordingService()
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(*service.address)
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: charles\r\n\r\n")
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")
                (accepted,) = service.accepted
                nodelay = accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop()
            return nodelay

        assert asyncio.run(accepted_nodelay()) == 1

    def test_stop_with_a_keep_alive_connection_open_logs_nothing(self, caplog):
        caplog.set_level(logging.WARNING, logger="asyncio")
        running = ServingServer().start()
        host, port = running.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()  # the connection stays open for the next request
            started = time.monotonic()
            running.stop()
            # the idle connection must not hold the stop up either
            assert time.monotonic() - started < 10
            assert not running._thread.is_alive()
        finally:
            connection.close()
        assert [r for r in caplog.records if r.name == "asyncio"] == []
