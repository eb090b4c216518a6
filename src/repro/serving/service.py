"""The multi-tenant front door: HTTP/JSON serving over warm engine sessions.

:class:`CharlesServingService` is the long-running shape of the engine — the
``charles serve`` process.  One asyncio event loop multiplexes thousands of
connections; the synchronous engine and cache fabric are reused *unchanged*
underneath, running in a small worker-thread pool so a search never blocks
the loop.  The request path composes the three serving mechanisms:

1. :class:`~repro.serving.registry.SessionRegistry` — tenant-namespaced
   leases over :class:`~repro.timeline.session.EngineSession` (the pair memo
   and results store), swept on idleness so sessions release
   their cache backends instead of leaking them.
2. :class:`~repro.serving.admission.AdmissionController` — bounded per-tenant
   queues and concurrency quotas; saturation answers ``503`` + ``Retry-After``
   immediately instead of hanging connections.
3. :class:`~repro.serving.batcher.RequestBatcher` — cross-tenant single-flight
   dedup: identical in-flight work (same result-affecting config fingerprint,
   same snapshot content, same target/shortlists) is evaluated once and the
   result shared, so N tenants asking for the same fingerprinted work pay for
   one evaluation.

The API (all bodies JSON; tenancy via the ``X-Charles-Tenant`` header):

==========  ===============================  =======================================
``POST``    ``/v1/sessions``                 open a session (``{tenant, key, config}``)
``GET``     ``/v1/sessions``                 list the tenant's sessions
``GET``     ``/v1/sessions/<id>``            one session's state
``POST``    ``/v1/sessions/<id>/advance``    append a snapshot (``{version, csv}``)
``POST``    ``/v1/sessions/<id>/summarize``  rank summaries for the latest hop
``DELETE``  ``/v1/sessions/<id>``            close the session
``GET``     ``/healthz``                     liveness + admission/dedup snapshot
``GET``     ``/metrics``                     the Prometheus registry (PR 8)
==========  ===============================  =======================================

The standing invariant: a result obtained through the service is
byte-identical to the same run invoked directly — serving composes admission,
locks, threads and dedup around ``EngineSession.summarize_pair``, never
inside it (``tests/serving/`` enforces this differentially, per tenant).
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import hashlib
import json
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields as dataclass_fields
from typing import Any, Callable

from repro.core.config import CharlesConfig, InterpretabilityWeights, ServingConfig
from repro.exceptions import (
    CharlesError,
    ConfigurationError,
    DiscoveryError,
    SessionClosedError,
    TimelineError,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.relational.csv_io import read_csv_text
from repro.serving.admission import AdmissionController, LoadShedError
from repro.serving.batcher import RequestBatcher, work_key
from repro.serving.httpd import HttpError, HttpRequest, read_request, response_bytes
from repro.serving.registry import (
    SessionLease,
    SessionRegistry,
    TenantAccessError,
    UnknownSessionError,
)

__all__ = ["CharlesServingService", "ServingServer", "TENANT_DENIED_FIELDS"]

#: configuration fields tenants may not set — the server owns the execution
#: substrate (cache fabric membership, process fan-out, tracing); all are
#: result-neutral, so withholding them never limits what a tenant can compute
TENANT_DENIED_FIELDS = frozenset(
    {"cache_backend", "cache_dir", "cache_url", "cache_replication", "n_jobs", "trace_path"}
)

_CONFIG_FIELDS = frozenset(spec.name for spec in dataclass_fields(CharlesConfig))

_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class CharlesServingService:
    """The asyncio service; all handler state lives on the loop thread."""

    def __init__(
        self,
        serving: ServingConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        infra: dict[str, Any] | None = None,
    ):
        self.serving = serving or ServingConfig()
        self._infra = {k: v for k, v in (infra or {}).items() if v is not None}
        # fail fast on an invalid infra override instead of at first session
        CharlesConfig().with_serving_defaults(self._infra)
        self._host = host
        self._port = port
        self.registry = SessionRegistry(self.serving.max_sessions)
        self.admission = AdmissionController(
            self.serving.queue_depth, self.serving.tenant_concurrency
        )
        self.batcher = RequestBatcher()
        self._pool: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._sweeper: asyncio.Task | None = None
        self._connections: set[asyncio.Task] = set()
        self._started_monotonic = 0.0

        registry = get_registry()
        self._m_requests = registry.counter(
            "serve_requests_total", "HTTP requests served", labels=("route", "status")
        )
        self._m_latency = registry.histogram(
            "serve_request_seconds", "request latency per route", labels=("route",)
        )
        self._m_sessions = registry.gauge("serve_sessions_active", "live tenant sessions")
        self._m_dedup = registry.counter(
            "serve_dedup_total",
            "single-flight outcomes (leader = evaluated, follower = shared)",
            labels=("outcome",),
        )
        self._m_shed = registry.counter(
            "serve_shed_total", "requests refused under backpressure", labels=("reason",)
        )
        self._m_expired = registry.counter(
            "serve_sessions_expired_total", "sessions closed by the idle sweeper"
        )
        self._m_internal_errors = registry.counter(
            "serve_internal_errors_total",
            "requests answered 500 by an unexpected exception, by exception class",
            labels=("route", "kind"),
        )
        # pre-seed the series operators alert on, so a fresh server exposes
        # explicit zeros instead of absent samples
        for outcome in ("leader", "follower"):
            self._m_dedup.inc(0, outcome=outcome)
        for reason in ("queue_full", "session_capacity"):
            self._m_shed.inc(0, reason=reason)
        self._m_sessions.set(0)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the idle sweeper."""
        self._pool = ThreadPoolExecutor(
            max_workers=self.serving.worker_threads, thread_name_prefix="charles-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._sweeper = asyncio.create_task(self._sweep_loop())
        self._started_monotonic = time.monotonic()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real one)."""
        assert self._server is not None, "service not started"
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "service not started"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening, close every session, release the worker pool."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            # a keep-alive client may hold an idle connection open forever,
            # and from Python 3.12 on wait_closed() waits for every connection
            for task in list(self._connections):
                task.cancel()
            await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self.registry.close_all()
        self._m_sessions.set(0)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.serving.sweep_interval_seconds)
            expired = self.registry.sweep_expired(self.serving.session_ttl_seconds)
            if expired:
                self._m_expired.inc(len(expired))
                self._m_sessions.set(len(self.registry))

    def _run_in_pool(self, fn: Callable[[], Any]) -> "asyncio.Future":
        assert self._pool is not None, "service not started"
        # run_in_executor does not carry contextvars into the pool thread; the
        # copy keeps the engine's spans parented under this request's span
        context = contextvars.copy_context()
        return asyncio.get_running_loop().run_in_executor(self._pool, context.run, fn)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader, self.serving.max_body_bytes)
                except HttpError as error:
                    writer.write(
                        response_bytes(
                            error.status,
                            _json_bytes({"error": str(error)}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                payload = await self._respond(request)
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client vanished; nothing to answer
        except asyncio.CancelledError:
            # stop() closes live connections like any other close (Python 3.11
            # logs a connection task that ends cancelled as an unhandled error)
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _respond(self, request: HttpRequest) -> bytes:
        route, handler = self._route(request)
        tracer = get_tracer()
        started = time.perf_counter()
        status = 500
        extra_headers: dict[str, str] = {}
        with tracer.span("serve.request", route=route, method=request.method) as span:
            try:
                status, body, content_type = await handler(request)
            except LoadShedError as error:
                status = 503
                body = _json_bytes(
                    {"error": str(error), "retry_after_seconds": error.retry_after_seconds}
                )
                content_type = "application/json"
                extra_headers["Retry-After"] = str(error.retry_after_seconds)
                self._m_shed.inc(reason=error.reason)
            except HttpError as error:
                status = error.status
                body = _json_bytes({"error": str(error)})
                content_type = "application/json"
            except CharlesError as error:
                status = _charles_error_status(error)
                body = _json_bytes({"error": str(error), "kind": type(error).__name__})
                content_type = "application/json"
            except Exception as error:
                status = 500
                body = _json_bytes({"error": "internal server error"})
                content_type = "application/json"
                kind = type(error).__name__
                self._m_internal_errors.inc(route=route, kind=kind)
                span.set(error=kind)
                traceback.print_exc(file=sys.stderr)
            span.set(status=status)
        self._m_requests.inc(route=route, status=str(status))
        self._m_latency.observe(time.perf_counter() - started, route=route)
        return response_bytes(
            status,
            body,
            content_type=content_type,
            extra_headers=extra_headers,
            keep_alive=request.keep_alive,
        )

    def _route(self, request: HttpRequest):
        """Resolve ``(route label, handler)``; the label is low-cardinality."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz":
            return "/healthz", self._require(method, {"GET": self._handle_healthz})
        if path == "/metrics":
            return "/metrics", self._require(method, {"GET": self._handle_metrics})
        if path == "/v1/sessions":
            return "/v1/sessions", self._require(
                method, {"POST": self._handle_create, "GET": self._handle_list}
            )
        if path.startswith("/v1/sessions/"):
            parts = path[len("/v1/sessions/"):].split("/")
            if len(parts) == 1:
                route = "/v1/sessions/{id}"
                table = {
                    "GET": self._session_handler(parts[0], self._handle_info),
                    "DELETE": self._session_handler(parts[0], self._handle_close),
                }
                return route, self._require(method, table)
            if len(parts) == 2 and parts[1] in ("advance", "summarize"):
                route = f"/v1/sessions/{{id}}/{parts[1]}"
                handler = self._handle_advance if parts[1] == "advance" else self._handle_summarize
                return route, self._require(
                    method, {"POST": self._session_handler(parts[0], handler)}
                )
        return "unknown", self._not_found

    @staticmethod
    def _require(method: str, table: dict):
        handler = table.get(method)
        if handler is None:
            async def _method_not_allowed(request: HttpRequest):
                raise HttpError(405, f"method {method} is not allowed here")

            return _method_not_allowed
        return handler

    @staticmethod
    async def _not_found(request: HttpRequest):
        raise HttpError(404, f"no such resource {request.path!r}")

    def _session_handler(self, session_id: str, handler):
        async def _bound(request: HttpRequest):
            tenant = self._tenant_of(request)
            lease = self.registry.get(session_id, tenant)
            return await handler(request, lease, tenant)

        return _bound

    def _tenant_of(self, request: HttpRequest, payload: dict | None = None) -> str:
        header = request.headers.get("x-charles-tenant", "").strip()
        body = str((payload or {}).get("tenant") or "").strip()
        tenant = header or body
        if not tenant:
            raise HttpError(
                400, "a tenant is required (X-Charles-Tenant header or 'tenant' field)"
            )
        if header and body and header != body:
            raise HttpError(400, "tenant header and body field disagree")
        return tenant

    # -- handlers --------------------------------------------------------------

    async def _handle_healthz(self, request: HttpRequest):
        payload = {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
            "sessions": len(self.registry),
            "tenants": self.registry.tenants(),
            "admission": self.admission.snapshot(),
            "dedup": {"leaders": self.batcher.leaders, "followers": self.batcher.followers},
        }
        return 200, _json_bytes(payload), "application/json"

    async def _handle_metrics(self, request: HttpRequest):
        return 200, get_registry().render().encode("utf-8"), _PROMETHEUS_TYPE

    async def _handle_create(self, request: HttpRequest):
        payload = request.json()
        tenant = self._tenant_of(request, payload)
        key = payload.get("key")
        if key is not None and not isinstance(key, str):
            raise HttpError(400, "'key' must be a string column name")
        config = self._tenant_config(payload.get("config"))
        lease = self.registry.create(tenant, config, key=key)
        self._m_sessions.set(len(self.registry))
        return 201, _json_bytes(lease.info()), "application/json"

    async def _handle_list(self, request: HttpRequest):
        tenant = self._tenant_of(request)
        sessions = [
            lease.info()
            for lease in self.registry._leases.values()
            if lease.tenant == tenant
        ]
        return 200, _json_bytes({"tenant": tenant, "sessions": sessions}), "application/json"

    async def _handle_info(self, request: HttpRequest, lease: SessionLease, tenant: str):
        return 200, _json_bytes(lease.info()), "application/json"

    async def _handle_close(self, request: HttpRequest, lease: SessionLease, tenant: str):
        async with lease.lock:  # never yank the engine from under a query
            self.registry.close(lease.session_id, tenant)
        self._m_sessions.set(len(self.registry))
        return 200, _json_bytes({"session": lease.session_id, "closed": True}), "application/json"

    async def _handle_advance(self, request: HttpRequest, lease: SessionLease, tenant: str):
        payload = request.json()
        version = payload.get("version")
        csv_text = payload.get("csv")
        if not isinstance(version, str) or not version:
            raise HttpError(400, "'version' must be a non-empty string")
        if not isinstance(csv_text, str) or not csv_text:
            raise HttpError(400, "'csv' must be the snapshot's CSV text")
        async with lease.lock:
            lease.engine.touch()
            key = lease.store.key

            def _append():
                table = read_csv_text(csv_text, primary_key=key)
                return lease.store.append(version, table)

            appended = await self._run_in_pool(_append)
            lease.version_digests[version] = hashlib.blake2b(
                csv_text.encode("utf-8"), digest_size=16
            ).digest()
        payload = {
            "session": lease.session_id,
            "version": version,
            "rows": appended.num_rows,
            "versions": lease.store.names,
        }
        return 200, _json_bytes(payload), "application/json"

    async def _handle_summarize(self, request: HttpRequest, lease: SessionLease, tenant: str):
        payload = request.json()
        target = payload.get("target")
        if not isinstance(target, str) or not target:
            raise HttpError(400, "'target' must be the numeric attribute to explain")
        condition = _attribute_list(payload, "condition_attributes")
        transformation = _attribute_list(payload, "transformation_attributes")
        source_name = payload.get("source")
        version_name = payload.get("version")

        async with self.admission.admit(tenant):
            async with lease.lock:
                names = lease.store.names
                if source_name is None or version_name is None:
                    if len(names) < 2:
                        raise HttpError(
                            409,
                            "summarize needs at least two versions; advance the "
                            f"session first (have {names})",
                        )
                    source_name = source_name or names[-2]
                    version_name = version_name or names[-1]
                for name in (source_name, version_name):
                    if name not in lease.version_digests:
                        raise HttpError(409, f"unknown version {name!r} (have {names})")

                key = work_key(
                    lease.config,
                    lease.version_digests[source_name],
                    lease.version_digests[version_name],
                    target,
                    condition,
                    transformation,
                )

                def _search():
                    pair = lease.store.pair(source_name, version_name)
                    return lease.engine.summarize_pair(
                        pair,
                        target,
                        condition_attributes=condition,
                        transformation_attributes=transformation,
                    )

                result, deduped = await self.batcher.run(
                    key, lambda: self._run_in_pool(_search)
                )
        self._m_dedup.inc(outcome="follower" if deduped else "leader")
        body = {
            "session": lease.session_id,
            "source": source_name,
            "version": version_name,
            "target": target,
            "deduped": deduped,
            "total_candidates": result.total_candidates,
            "rankings": [
                {
                    "rank": rank,
                    "score": float(scored.score),
                    "summary": scored.summary.describe(),
                    "breakdown": str(scored.breakdown),
                }
                for rank, scored in enumerate(result.summaries, start=1)
            ],
            "stats": result.search_stats.as_dict() if result.search_stats else None,
        }
        return 200, _json_bytes(body), "application/json"

    # -- tenant configuration --------------------------------------------------

    def _tenant_config(self, fields: Any) -> CharlesConfig:
        if fields is None:
            fields = {}
        if not isinstance(fields, dict):
            raise HttpError(400, "'config' must be a JSON object of CharlesConfig fields")
        fields = dict(fields)
        unknown = set(fields) - _CONFIG_FIELDS
        if unknown:
            raise HttpError(400, f"unknown config fields {sorted(unknown)}")
        denied = set(fields) & TENANT_DENIED_FIELDS
        if denied:
            raise HttpError(
                400,
                f"config fields {sorted(denied)} are server-owned infrastructure; "
                "they are set by `charles serve` flags",
            )
        weights = fields.get("interpretability_weights")
        if isinstance(weights, dict):
            try:
                fields["interpretability_weights"] = InterpretabilityWeights(**weights)
            except TypeError as error:
                raise HttpError(400, f"bad interpretability_weights: {error}") from error
        if "residual_weights" in fields and isinstance(fields["residual_weights"], list):
            fields["residual_weights"] = tuple(fields["residual_weights"])
        try:
            return CharlesConfig(**fields).with_serving_defaults(self._infra)
        except (ConfigurationError, TypeError) as error:
            raise HttpError(400, f"invalid config: {error}") from error


def _attribute_list(payload: dict, field: str) -> tuple[str, ...] | None:
    value = payload.get(field)
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise HttpError(400, f"'{field}' must be a list of attribute names")
    return tuple(value)


def _charles_error_status(error: CharlesError) -> int:
    if isinstance(error, (UnknownSessionError,)):
        return 404
    if isinstance(error, TenantAccessError):
        return 403
    if isinstance(error, (TimelineError, SessionClosedError)):
        return 409
    if isinstance(error, DiscoveryError):
        return 422
    # schema, alignment, configuration: the request was wrong
    return 400


class ServingServer:
    """Run a :class:`CharlesServingService` on a dedicated thread and loop.

    The synchronous embedding tests and benchmarks need: ``start()`` returns
    once the socket is bound (``url`` is then valid), ``stop()`` shuts the
    loop down cleanly.  Also usable as a context manager.
    """

    def __init__(self, **service_kwargs: Any):
        self._service_kwargs = service_kwargs
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._error: BaseException | None = None
        self.service: CharlesServingService | None = None
        self._url: str | None = None

    def start(self) -> "ServingServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), name="charles-serving", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serving thread did not come up within 30s")
        if self._error is not None:
            raise RuntimeError(f"serving thread failed to start: {self._error!r}")
        return self

    async def _amain(self) -> None:
        service = CharlesServingService(**self._service_kwargs)
        try:
            await service.start()
        except BaseException as error:  # surfaced to start() on the caller thread
            self._error = error
            self._ready.set()
            return
        self.service = service
        self._url = service.url
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await service.stop()

    @property
    def url(self) -> str:
        assert self._url is not None, "server not started"
        return self._url

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
