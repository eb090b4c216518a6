"""Observability for the ChARLES engine: tracing, metrics, trace analysis.

Three stdlib-only modules give the distributed engine (process pools +
sharded cache fabric) one coherent window:

* :mod:`~repro.obs.trace` — nestable spans with cross-process and
  cross-socket context propagation, JSONL export, near-zero disabled cost.
* :mod:`~repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  with Prometheus text exposition (served by the cache server's ``METRICS``
  verb and consumable by stock scrapers).
* :mod:`~repro.obs.analyze` — offline trace summaries and span trees behind
  ``charles trace summarize`` / ``charles trace tree``.

Everything here is execution-only: tracing state never feeds cache
fingerprints or scoring, and rankings are byte-identical with tracing on or
off.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.trace": (
        "Span",
        "Tracer",
        "JsonlSink",
        "BufferSink",
        "get_tracer",
        "configure_tracing",
        "disable_tracing",
        "wire_context",
        "new_span_id",
    ),
    "repro.obs.metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "get_registry",
        "parse_prometheus",
    ),
    "repro.obs.analyze": ("load_trace", "summarize_trace", "render_tree"),
})
__all__ = list(_EXPORTS)
