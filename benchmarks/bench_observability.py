"""Observability benchmark: tracing is coherent, cheap and result-neutral.

PR 8 threaded spans and metrics through every layer — executor rounds,
partition discovery, per-mask fits, the sharded cache fabric's requests and the
cache servers' request handling.  This benchmark proves the three contract
points the instrumentation must hold:

1. **coherence across processes and sockets** — two engine processes are
   *spawned* (no shared memory) against a live 2-shard cache fleet with
   tracing on; each engine records its own trace and drains the servers'
   span buffers for it.  Every span file must form a closed tree: no span
   references a parent that is not in the file, every ``server.*`` span sits
   under the client span whose request carried the trace context, and worker
   spans (when ``--jobs`` > 1) sit under the dispatching round.
2. **result neutrality** — the same workload run with tracing off and on must
   produce byte-identical rankings (always enforced, smoke included).
3. **bounded overhead** — the median wall time of a traced run may exceed the
   untraced median by at most 2 % (enforced at full size; smoke mode warns,
   since sub-second runs on shared CI runners are noise-dominated).

The report also checks the ``METRICS`` admin verb of every shard parses as
Prometheus text exposition and that ``charles trace summarize`` reports the
per-layer breakdown (round spans, per-shard network time).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_observability.py --smoke --output bench_observability.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core import Charles, CharlesConfig
from repro.cacheserver import AsyncCacheServer, server_metrics
from repro.obs.analyze import load_trace, summarize_trace
from repro.obs.metrics import parse_prometheus
from repro.timeline import EngineSession
from repro.workloads import employee_pair, streaming_employee_timeline

try:
    from _meta import stamp as _stamp
except ImportError:  # imported as a module (pytest, spawn workers), not run directly
    def _stamp(report):
        return report


TARGET = "bonus"


# -- the spawned, traced fleet member -------------------------------------------


def _traced_engine_process(
    rows: int, versions: int, seed: int, url: str, trace_path: str, out_path: str
) -> None:
    """One engine's audit chain against the fleet, traced end to end."""
    from repro.cacheserver import parse_endpoints, server_trace
    from repro.exceptions import CharlesError
    from repro.obs.trace import get_tracer

    config = CharlesConfig(
        cache_backend="remote", cache_url=url, trace_path=trace_path
    )
    full_store, _ = streaming_employee_timeline(rows, num_versions=versions, seed=seed)
    with EngineSession(config) as session:
        result = session.summarize_timeline(full_store, TARGET)
        rankings = result.rankings()
    # pull this trace's server-side spans into the local sink, exactly like
    # the CLI's --trace path does after a --cache-url run
    tracer = get_tracer()
    for endpoint in parse_endpoints(url):
        try:
            tracer.absorb(server_trace(endpoint, trace_id=tracer.trace_id))
        except CharlesError:
            pass
    Path(out_path).write_text(
        json.dumps({"rankings": [[list(entry) for entry in hop] for hop in rankings]}),
        encoding="utf-8",
    )


def _run_traced_engine(
    rows: int, versions: int, seed: int, url: str, trace_path: str
) -> list:
    """Run the traced fleet member in a genuinely fresh interpreter."""
    context = multiprocessing.get_context("spawn")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = handle.name
    process = context.Process(
        target=_traced_engine_process,
        args=(rows, versions, seed, url, trace_path, out_path),
    )
    process.start()
    process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"traced engine process exited with {process.exitcode}")
    payload = json.loads(Path(out_path).read_text(encoding="utf-8"))
    Path(out_path).unlink()
    return payload["rankings"]


def _trace_coherence(trace_path: str) -> dict:
    """Structural checks over one engine's recorded trace file."""
    spans = load_trace(trace_path)
    by_id = {span["span"]: span for span in spans}
    orphans = [
        span for span in spans if span["parent"] is not None and span["parent"] not in by_id
    ]
    server_spans = [span for span in spans if span["process"] == "server"]
    server_under_client = [
        span
        for span in server_spans
        if span["parent"] in by_id and by_id[span["parent"]]["process"] != "server"
    ]
    summary = summarize_trace(spans)
    return {
        "spans": len(spans),
        "traces": len({span["trace"] for span in spans}),
        "orphans": len(orphans),
        "server_spans": len(server_spans),
        "server_spans_under_client_spans": len(server_under_client),
        "round_spans": sum(1 for span in spans if span["name"] == "round"),
        "summary_reports_network_time": "per-shard network time:" in summary,
        "coherent": (
            not orphans
            and bool(server_spans)
            and len(server_under_client) == len(server_spans)
        ),
    }


# -- the overhead microbenchmark -------------------------------------------------


def _overhead_microbench(rows: int, seed: int, repeats: int) -> dict:
    """Tracing overhead of the same search, measured as a paired median.

    Uses one-shot serial engines (the common case) so the measured delta is
    purely the instrumentation: the enabled-flag checks when off, plus span
    construction and batched JSONL writes when on.  Untraced/traced runs are
    interleaved and compared *pairwise* — on a busy machine the run-to-run
    spread dwarfs the true overhead, and a paired median cancels drift that
    two sequential arm medians would absorb as fake (or hidden) overhead.
    The first run of each arm warms numpy and the allocator and is discarded.
    """
    from repro.obs.trace import disable_tracing

    pair = employee_pair(rows, seed=seed)

    def once(config: CharlesConfig) -> float:
        started = time.perf_counter()
        Charles(config).summarize_pair(pair, TARGET)
        return time.perf_counter() - started

    with tempfile.TemporaryDirectory() as tmp:
        off_config = CharlesConfig()
        on_config = CharlesConfig(trace_path=str(Path(tmp) / "overhead.jsonl"))
        once(off_config)
        once(on_config)
        disable_tracing()
        paired: list[float] = []
        off_times: list[float] = []
        on_times: list[float] = []
        for _ in range(repeats):
            off_seconds = once(off_config)
            # the tracer is process-wide and configure is idempotent, so it
            # must be disabled between pairs or the "off" run would trace too
            on_seconds = once(on_config)
            disable_tracing()
            off_times.append(off_seconds)
            on_times.append(on_seconds)
            paired.append((on_seconds - off_seconds) / off_seconds)

    overhead = statistics.median(paired)
    return {
        "repeats": repeats,
        "untraced_median_seconds": statistics.median(off_times),
        "traced_median_seconds": statistics.median(on_times),
        "overhead_fraction": overhead,
        "within_2_percent": overhead < 0.02,
    }


# -- the benchmark --------------------------------------------------------------


def run_benchmark(rows: int, versions: int, seed: int, repeats: int) -> dict:
    # arm 1: untraced reference rankings for the fleet workload
    full_store, _ = streaming_employee_timeline(rows, num_versions=versions, seed=seed)
    with EngineSession(CharlesConfig()) as session:
        reference = [
            [list(entry) for entry in hop]
            for hop in session.summarize_timeline(full_store, TARGET).rankings()
        ]

    # arm 2: two spawned engines against a live 2-shard fleet, traced
    shards = [AsyncCacheServer().start() for _ in range(2)]
    engines = []
    metrics_reports = []
    try:
        fleet_url = ",".join(shard.url for shard in shards)
        with tempfile.TemporaryDirectory() as tmp:
            for member in range(2):
                trace_path = str(Path(tmp) / f"engine{member}.jsonl")
                rankings = _run_traced_engine(rows, versions, seed, fleet_url, trace_path)
                coherence = _trace_coherence(trace_path)
                coherence["engine"] = member
                coherence["rankings_identical_to_untraced"] = rankings == reference
                engines.append(coherence)
            for shard in shards:
                samples = parse_prometheus(server_metrics(shard.url))
                metrics_reports.append(
                    {
                        "shard": shard.url,
                        "samples": len(samples),
                        "has_request_counters": any(
                            name.startswith("cacheserver_requests_total")
                            for name in samples
                        ),
                    }
                )
    finally:
        for shard in shards:
            shard.shutdown()

    overhead = _overhead_microbench(max(rows, 100), seed, repeats)

    return {
        "experiment": "observability",
        "rows": rows,
        "versions": versions,
        "seed": seed,
        "target": TARGET,
        "engines": engines,
        "metrics": metrics_reports,
        "overhead": overhead,
        "all_traces_coherent": all(engine["coherent"] for engine in engines),
        "all_rankings_identical": all(
            engine["rankings_identical_to_untraced"] for engine in engines
        ),
        "all_metrics_parse": all(
            report["has_request_counters"] for report in metrics_reports
        ),
        "overhead_within_2_percent": overhead["within_2_percent"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="observability benchmark: coherent, cheap, result-neutral tracing"
    )
    parser.add_argument("--rows", type=int, default=800, help="entities per version")
    parser.add_argument("--versions", type=int, default=3, help="versions in the chain")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per arm of the overhead microbenchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI (150 rows, 3 repeats)")
    parser.add_argument("--output", type=Path, default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    rows = 150 if args.smoke else args.rows
    repeats = 3 if args.smoke else args.repeats

    report = run_benchmark(rows, args.versions, args.seed, repeats)
    report["smoke"] = args.smoke
    text = json.dumps(_stamp(report), indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)

    # coherence, ranking identity and metrics parsing are deterministic and
    # always enforced; the overhead margin is statistical, so smoke mode
    # (sub-second runs on noisy shared runners) warns instead of failing
    failures = []
    warnings_ = []
    if not report["all_traces_coherent"]:
        failures.append("a recorded trace was not a closed tree with server spans")
    if not report["all_rankings_identical"]:
        failures.append("tracing changed the rankings")
    if not report["all_metrics_parse"]:
        failures.append("a shard's METRICS exposition did not parse as Prometheus text")
    if not all(engine["summary_reports_network_time"] for engine in report["engines"]):
        failures.append("trace summarize did not report per-shard network time")
    if not report["overhead_within_2_percent"]:
        message = (
            "tracing overhead exceeded 2% "
            f"({100.0 * report['overhead']['overhead_fraction']:.2f}% over "
            f"{report['overhead']['repeats']} repeats)"
        )
        (warnings_ if args.smoke else failures).append(message)
    for message in warnings_:
        print(f"WARN: {message}", file=sys.stderr)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
