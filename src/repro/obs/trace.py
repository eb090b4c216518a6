"""Distributed tracing for the ChARLES engine: spans, context, propagation.

A :class:`Span` is one timed unit of work — a search round, a partition
discovery, a server-side ``GET`` — linked to its parent by ids so a whole
run renders as one tree even when the work crossed a process pool and a
socket.  The :class:`Tracer` is process-wide (:func:`get_tracer`), carries
the *current* span in a :mod:`contextvars` variable, and writes finished
spans to a sink: a JSONL file in the driving engine, an in-memory buffer in
pool workers and cache servers (whose spans are shipped back and absorbed
into the driver's file).

Design constraints, in order:

* **Zero overhead when off.**  ``Tracer.enabled`` is a plain attribute;
  ``span()`` returns one shared no-op context manager when it is false, so a
  disabled hook costs an attribute read and a branch.  Instrumented code may
  freely guard attribute computation behind ``tracer.enabled``.
* **Execution-only.**  Tracing never feeds ``cache_fingerprint()`` or any
  scoring path; rankings are byte-identical with tracing on or off (pinned
  by ``tests/obs/`` and ``benchmarks/bench_observability.py``).
* **Propagation is explicit.**  :meth:`Tracer.context` yields a picklable
  ``(trace_id, parent_span_id)`` pair that rides the payload of a worker
  chunk; :meth:`Tracer.wire_bytes` packs the same pair into the 24-byte
  trace-context header of the cacheserver frame protocol.  The receiving
  side either :meth:`~Tracer.adopt`\\ s the context (workers) or records
  spans directly against it (servers).

Span timestamps: ``start`` is wall-clock (``time.time()``) so spans from
different machines line up on one timeline; ``duration`` is measured with
``time.perf_counter()`` so it is monotonic and immune to clock steps.
"""

from __future__ import annotations

import atexit
import contextvars
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "Span",
    "Tracer",
    "JsonlSink",
    "BufferSink",
    "get_tracer",
    "configure_tracing",
    "disable_tracing",
    "wire_context",
    "new_span_id",
    "TRACE_ID_BYTES",
    "SPAN_ID_BYTES",
    "WIRE_CONTEXT_BYTES",
]

#: id widths, in raw bytes (ids travel as lowercase hex strings in records)
TRACE_ID_BYTES = 16
SPAN_ID_BYTES = 8
#: the packed on-the-wire context: trace id then parent span id
WIRE_CONTEXT_BYTES = TRACE_ID_BYTES + SPAN_ID_BYTES

_ZERO_SPAN_HEX = "00" * SPAN_ID_BYTES


def new_trace_id() -> str:
    """A fresh random trace id (hex)."""
    return os.urandom(TRACE_ID_BYTES).hex()


def new_span_id() -> str:
    """A fresh random span id (hex)."""
    return os.urandom(SPAN_ID_BYTES).hex()


_current_span: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "charles_current_span", default=None
)


@dataclass
class Span:
    """One finished (or in-flight) unit of traced work."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float  # wall-clock epoch seconds (cross-process alignment)
    duration: float = 0.0  # perf_counter-measured seconds (monotonic)
    attributes: dict[str, Any] = field(default_factory=dict)
    outcome: str = "ok"
    process: str = "engine"

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the live span."""
        self.attributes.update(attrs)

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "outcome": self.outcome,
            "process": self.process,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "Span":
        return cls(
            name=record["name"],
            trace_id=record["trace"],
            span_id=record["span"],
            parent_id=record.get("parent"),
            start=record.get("start", 0.0),
            duration=record.get("duration", 0.0),
            attributes=dict(record.get("attributes", {})),
            outcome=record.get("outcome", "ok"),
            process=record.get("process", "engine"),
        )


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP = _NoopSpan()


class _ActiveSpan:
    """Context manager running one real span: timing, nesting, emission."""

    __slots__ = ("_tracer", "span", "_token", "_t0")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._token = _current_span.set(self.span)
        self._t0 = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.span.outcome = "error"
            self.span.attributes.setdefault("error", exc_type.__name__)
        _current_span.reset(self._token)
        self._tracer._emit(self.span)
        return False


class JsonlSink:
    """Appends one JSON object per span line to a file, thread-safely.

    Lines are batched (``_BATCH`` spans per write+flush) so a hot span site
    does not pay a syscall per span; :func:`configure_tracing` registers
    :meth:`close` with :mod:`atexit`, so the tail of the buffer reaches the
    file even when a process never calls :func:`disable_tracing`.  Readers
    inside the *same* process must disable (or :meth:`flush`) first.
    """

    _BATCH = 128

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8")
        self._pending: list[str] = []

    def emit(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True, default=str)
        with self._lock:
            self._pending.append(line)
            if len(self._pending) >= self._BATCH:
                self._drain_locked()

    def _drain_locked(self) -> None:
        if self._pending and not self._file.closed:
            self._file.write("\n".join(self._pending) + "\n")
            self._file.flush()
        self._pending.clear()

    def flush(self) -> None:
        with self._lock:
            self._drain_locked()

    def close(self) -> None:
        with self._lock:
            self._drain_locked()
            if not self._file.closed:
                self._file.close()


class BufferSink:
    """Collects span records in memory (workers, servers, tests)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def drain(self) -> list[dict[str, Any]]:
        drained, self.records = self.records, []
        return drained

    def close(self) -> None:
        pass


class _Adoption:
    """Temporarily enables a tracer under a remote parent, buffering spans.

    Used on the worker side of the process pool: the dispatching round's
    ``(trace_id, parent_span_id)`` context rides the pickled chunk, the
    worker adopts it around the batch, and the buffered span records travel
    back in the batch result for the driver to absorb.
    """

    def __init__(self, tracer: "Tracer", context: tuple[str, str], process: str):
        self._tracer = tracer
        self._context = context
        self._process = process

    def __enter__(self) -> BufferSink:
        tracer = self._tracer
        self._saved = (tracer.enabled, tracer._sink, tracer._trace_id, tracer.process)
        trace_id, parent_span_id = self._context
        sink = BufferSink()
        tracer._sink = sink
        tracer._trace_id = trace_id
        tracer.process = self._process
        tracer.enabled = True
        # a synthetic, never-emitted parent so spans opened here nest under
        # the remote span that dispatched the work
        parent = None
        if parent_span_id and parent_span_id != _ZERO_SPAN_HEX:
            parent = Span(
                name="", trace_id=trace_id, span_id=parent_span_id, parent_id=None, start=0.0
            )
        self._token = _current_span.set(parent)
        return sink

    def __exit__(self, *exc_info: object) -> bool:
        _current_span.reset(self._token)
        tracer = self._tracer
        tracer.enabled, tracer._sink, tracer._trace_id, tracer.process = self._saved
        return False


class Tracer:
    """The process-wide span factory; disabled (and near-free) by default."""

    def __init__(self) -> None:
        self.enabled = False
        self.process = "engine"
        self._sink: Any = None
        self._trace_id: str | None = None

    # -- lifecycle -------------------------------------------------------------

    def configure(self, sink: Any, trace_id: str | None = None, process: str = "engine") -> str:
        """Enable the tracer with ``sink``; returns the run's trace id."""
        self._sink = sink
        self._trace_id = trace_id or new_trace_id()
        self.process = process
        self.enabled = True
        return self._trace_id

    def disable(self) -> None:
        """Turn tracing off and release the sink (idempotent)."""
        self.enabled = False
        sink, self._sink = self._sink, None
        self._trace_id = None
        if sink is not None:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    @property
    def trace_id(self) -> str | None:
        return self._trace_id

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """A context manager timing one unit of work under the current span."""
        if not self.enabled:
            return _NOOP
        parent = _current_span.get()
        span = Span(
            name=name,
            trace_id=parent.trace_id if parent is not None else (self._trace_id or new_trace_id()),
            span_id=new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            start=time.time(),
            attributes=attributes,
            process=self.process,
        )
        return _ActiveSpan(self, span)

    def record(self, name: str, start: float, duration: float, **attributes: Any) -> None:
        """Emit an already-timed span (for work measured out-of-band)."""
        if not self.enabled:
            return
        parent = _current_span.get()
        self._emit(
            Span(
                name=name,
                trace_id=parent.trace_id if parent is not None else (self._trace_id or new_trace_id()),
                span_id=new_span_id(),
                parent_id=parent.span_id if parent is not None else None,
                start=start,
                duration=duration,
                attributes=attributes,
                process=self.process,
            )
        )

    def absorb(self, records: Iterable[dict[str, Any]]) -> None:
        """Feed span records produced elsewhere (workers, servers) to the sink."""
        if not self.enabled or self._sink is None:
            return
        for record in records:
            self._sink.emit(record)

    def _emit(self, span: Span) -> None:
        sink = self._sink
        if sink is not None:
            sink.emit(span.as_dict())

    # -- propagation -----------------------------------------------------------

    def context(self) -> tuple[str, str] | None:
        """The picklable ``(trace_id, parent_span_id)`` of the current position."""
        if not self.enabled:
            return None
        current = _current_span.get()
        if current is not None:
            return (current.trace_id, current.span_id)
        return (self._trace_id or new_trace_id(), "")

    def adopt(self, context: tuple[str, str], process: str = "worker") -> _Adoption:
        """Enable this tracer under a remote parent, buffering spans locally."""
        return _Adoption(self, context, process)

    def wire_bytes(self) -> bytes:
        """The packed trace-context header for the cacheserver protocol.

        Empty bytes when tracing is off — callers pass the result straight to
        ``encode_request(..., trace=...)``, which skips the header entirely
        for ``b""``.
        """
        if not self.enabled:
            return b""
        trace_id, parent_span_id = self.context()
        packed = bytes.fromhex(trace_id)
        if parent_span_id:
            packed += bytes.fromhex(parent_span_id)
        else:
            packed += bytes(SPAN_ID_BYTES)
        return packed


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _TRACER


def configure_tracing(path: str, process: str = "engine") -> str:
    """Enable the process-wide tracer appending JSONL spans to ``path``.

    Idempotent: a tracer that is already enabled keeps its sink and trace id
    (so a session and the CLI may both call this without double-opening the
    file).  Returns the active trace id.
    """
    tracer = _TRACER
    if tracer.enabled:
        return tracer.trace_id or new_trace_id()
    sink = JsonlSink(path)
    atexit.register(sink.close)
    return tracer.configure(sink, process=process)


def disable_tracing() -> None:
    """Disable the process-wide tracer and close its sink (idempotent)."""
    _TRACER.disable()


def wire_context() -> bytes:
    """Shorthand for ``get_tracer().wire_bytes()`` (``b""`` when disabled)."""
    return _TRACER.wire_bytes()
