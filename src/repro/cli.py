"""Command-line interface: the demo workflow without the GUI.

The paper's demonstration walks users through uploading two snapshots,
choosing a target attribute, tuning parameters and browsing ranked change
summaries (Fig. 4).  The ``charles`` command exposes the same workflow:

* ``charles suggest``   — steps 2–5: attribute shortlists for a target.
* ``charles summarize`` — steps 1–10: ranked summaries, optionally with the
  model tree / treemap details or a full markdown report.
* ``charles plan``      — the dry run: plan size, per-round spec counts and
  score-bound histograms for a summarize run, without evaluating anything.
* ``charles diff``      — the syntactic view: cell diff, update distance and
  distribution drift.
* ``charles timeline``  — the incremental view: summarize every hop of a chain
  of three or more snapshot CSVs with one warm engine session.
* ``charles generate``  — write the synthetic workloads (employee, montgomery,
  billionaires) to CSV, so every example is reproducible from the shell.

Beyond the paper's workflow, three operational commands run the engine and
its cache fabric as long-lived services:

* ``charles serve``        — the multi-tenant HTTP serving layer: thousands of
  concurrent timeline sessions over warm engine sessions, with per-tenant
  admission control, load shedding and cross-tenant single-flight dedup
  (see :mod:`repro.serving`).
* ``charles cache-server`` — host the result store for a fleet of engines
  (``--cache-backend remote --cache-url host:port`` on the other commands).
* ``charles cache``        — inspect (``stats``, optionally ``--metrics`` for
  the Prometheus exposition) or reset (``clear``) a cache store, either a
  running server (``--cache-url``) or an on-disk directory (``--cache-dir``),
  without writing python.

Observability rides along on the workflow commands: ``--trace PATH`` records
every layer of a run (rounds, partition discovery, fits, per-shard cache
traffic, server-side handling) as JSONL spans, ``--stats-json PATH`` dumps the
machine-readable search statistics, and ``charles trace summarize|tree``
analyses a recorded trace file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

# every command imports the modules it runs inside its handler, so the
# parser, `charles cache-server` and `charles cache` start without numpy
from repro.cachestore.factory import BACKEND_CHOICES
from repro.exceptions import CharlesError

if TYPE_CHECKING:
    from repro.core.config import CharlesConfig
    from repro.relational.snapshot import SnapshotPair

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``charles`` command."""
    parser = argparse.ArgumentParser(
        prog="charles",
        description="ChARLES: change-aware recovery of latent evolution semantics",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summarize = subparsers.add_parser("summarize", help="rank change summaries for a target attribute")
    _add_pair_arguments(summarize)
    summarize.add_argument("--target", required=True, help="numeric attribute to explain")
    summarize.add_argument("--alpha", type=float, default=0.5, help="accuracy weight (default 0.5)")
    summarize.add_argument("--max-condition-attributes", "-c", type=int, default=3)
    summarize.add_argument("--max-transformation-attributes", "-t", type=int, default=2)
    summarize.add_argument("--top", type=int, default=10, help="number of summaries to show")
    summarize.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the candidate search (1 = serial)")
    summarize.add_argument("--cache-capacity", type=int, default=None,
                           help="max entries of the results store, evicting the oldest "
                                "write beyond it (default unbounded); with --cache-backend "
                                "remote the bound is each shard's `charles cache-server "
                                "--capacity`")
    _add_cache_arguments(summarize)
    summarize.add_argument("--condition-attributes", nargs="*", default=None)
    summarize.add_argument("--transformation-attributes", nargs="*", default=None)
    summarize.add_argument("--details", action="store_true", help="show tree and treemap for the best summary")
    summarize.add_argument("--sql", action="store_true",
                           help="print the best summary as a SQL UPDATE statement")
    summarize.add_argument("--markdown", type=Path, default=None, help="write a full markdown report here")
    _add_observability_arguments(summarize)

    suggest = subparsers.add_parser("suggest", help="show the setup assistant's attribute shortlists")
    _add_pair_arguments(suggest)
    suggest.add_argument("--target", required=True)

    plan = subparsers.add_parser(
        "plan",
        help="dry-run a summarize: plan size, per-round spec counts and "
             "score-bound histograms, nothing evaluated",
    )
    _add_pair_arguments(plan)
    plan.add_argument("--target", required=True, help="numeric attribute to explain")
    plan.add_argument("--alpha", type=float, default=0.5, help="accuracy weight (default 0.5)")
    plan.add_argument("--max-condition-attributes", "-c", type=int, default=3)
    plan.add_argument("--max-transformation-attributes", "-t", type=int, default=2)
    plan.add_argument("--top", type=int, default=10, help="top-k the planned run would keep")
    plan.add_argument("--condition-attributes", nargs="*", default=None)
    plan.add_argument("--transformation-attributes", nargs="*", default=None)

    diff = subparsers.add_parser("diff", help="syntactic diff: cells, update distance, drift")
    _add_pair_arguments(diff)
    diff.add_argument("--limit", type=int, default=20, help="max cell changes to list")

    timeline = subparsers.add_parser(
        "timeline",
        help="summarize every hop of a chain of snapshot CSVs with one warm session",
    )
    timeline.add_argument("versions", nargs="+", type=Path,
                          help="two or more snapshot CSVs, oldest first")
    timeline.add_argument("--target", required=True, help="numeric attribute to explain")
    timeline.add_argument("--key", default=None, help="entity-identifying column")
    timeline.add_argument("--alpha", type=float, default=0.5, help="accuracy weight (default 0.5)")
    timeline.add_argument("--max-condition-attributes", "-c", type=int, default=3)
    timeline.add_argument("--max-transformation-attributes", "-t", type=int, default=2)
    timeline.add_argument("--top", type=int, default=10, help="ranked summaries kept per hop")
    timeline.add_argument("--limit", type=int, default=1, help="summaries shown per hop")
    timeline.add_argument("--window", type=int, default=1,
                          help="compare each version with the one this many steps later")
    timeline.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the candidate search (1 = serial)")
    timeline.add_argument("--cache-capacity", type=int, default=None,
                          help="max entries of the session's results store, evicting "
                               "the oldest write beyond it (default unbounded); with "
                               "--cache-backend remote the bound is each shard's "
                               "`charles cache-server --capacity`")
    _add_cache_arguments(timeline)
    timeline.add_argument("--condition-attributes", nargs="*", default=None)
    timeline.add_argument("--transformation-attributes", nargs="*", default=None)
    _add_observability_arguments(timeline)

    trace = subparsers.add_parser(
        "trace", help="analyse a JSONL trace file recorded with --trace"
    )
    trace.add_argument("action", choices=["summarize", "tree"],
                       help="summarize: per-span-name self/cumulative time, "
                            "slowest rounds and per-shard network time; "
                            "tree: the full span hierarchy")
    trace.add_argument("trace_file", type=Path, help="JSONL trace file to analyse")
    trace.add_argument("--slowest", type=int, default=5,
                       help="rounds listed in the summary's slowest-rounds section")
    trace.add_argument("--trace-id", default=None,
                       help="render only this trace (tree; default: the largest one)")

    generate = subparsers.add_parser("generate", help="write a synthetic workload pair to CSV")
    generate.add_argument("workload", choices=["example", "employee", "montgomery", "billionaires"])
    generate.add_argument("--rows", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--noise", type=float, default=0.0, help="fraction of changed rows given noise")
    generate.add_argument("--out-dir", type=Path, default=Path("."))

    server = subparsers.add_parser(
        "cache-server",
        help="host the fleet cache service engines reach with --cache-backend remote",
    )
    server.add_argument("--host", default="127.0.0.1",
                        help="interface to listen on (default 127.0.0.1; use 0.0.0.0 "
                             "only on a trusted network — values travel pickled)")
    server.add_argument("--port", type=int, default=None,
                        help="port to listen on (default 8737; 0 picks a free port)")
    server.add_argument("--capacity", type=int, default=None,
                        help="max entries per region, evicting the oldest write "
                             "beyond it (default unbounded)")
    server.add_argument("--ready-file", type=Path, default=None,
                        help="write host:port here once listening (for scripts "
                             "that wait for the server to come up)")

    serve = subparsers.add_parser(
        "serve",
        help="run the multi-tenant HTTP serving layer over warm engine sessions",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to listen on (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8738,
                       help="port to listen on (default 8738; 0 picks a free port)")
    serve.add_argument("--max-sessions", type=int, default=None,
                       help="cap on live sessions across all tenants "
                            "(default 1024; creation beyond it sheds with 503)")
    serve.add_argument("--session-ttl", type=float, default=None, metavar="SECONDS",
                       help="idle seconds before the sweeper closes a session "
                            "and releases its caches (default 600)")
    serve.add_argument("--sweep-interval", type=float, default=None, metavar="SECONDS",
                       help="how often the idle sweeper runs (default 20)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="per-tenant waiting line for summarize requests; "
                            "beyond it requests shed with 503 + Retry-After "
                            "(default 64)")
    serve.add_argument("--tenant-concurrency", type=int, default=None,
                       help="summarize requests one tenant may execute at once "
                            "(default 4)")
    serve.add_argument("--worker-threads", type=int, default=None,
                       help="engine worker threads shared by all tenants (default 8)")
    serve.add_argument("--ready-file", type=Path, default=None,
                       help="write host:port here once listening (for scripts "
                            "that wait for the server to come up)")
    serve.add_argument("--trace", type=Path, default=None,
                       help="record a JSONL trace of request handling here")
    _add_cache_arguments(serve)

    cache = subparsers.add_parser(
        "cache", help="inspect or reset a cache store without writing python"
    )
    cache.add_argument("action", choices=["stats", "clear"],
                       help="stats: entry counts and hit/miss counters; "
                            "clear: drop every entry")
    cache.add_argument("--cache-url", default=None,
                       help="host:port of a running cache server")
    cache.add_argument("--cache-dir", type=Path, default=None,
                       help="directory holding on-disk cache files")
    cache.add_argument("--metrics", action="store_true",
                       help="with stats --cache-url: print each server's "
                            "Prometheus metrics exposition instead of the table")
    return parser


def _add_pair_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", type=Path, help="CSV of the earlier snapshot")
    parser.add_argument("target_file", metavar="target", type=Path, help="CSV of the later snapshot")
    parser.add_argument("--key", default=None, help="entity-identifying column")


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", type=Path, default=None,
                        help="record a JSONL trace of the run here (spans for "
                             "rounds, partition discovery, fits, cache traffic "
                             "and — with --cache-url — server-side handling); "
                             "analyse it with `charles trace summarize|tree`")
    parser.add_argument("--stats-json", type=Path, default=None,
                        help="write the machine-readable search statistics "
                             "(SearchStats plus wall clock and the config "
                             "fingerprint) here as JSON")


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-backend", choices=BACKEND_CHOICES, default="memory",
                        help="where whole results live: 'memory' (in this process), "
                             "'disk' (persist under --cache-dir across runs) or "
                             "'remote' (a fleet cache server at --cache-url); memo "
                             "entries always stay in the process, and 'shared' is "
                             "accepted as memory; default: memory")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for the on-disk cache (required by the disk backend)")
    parser.add_argument("--cache-url", default=None,
                        help="host:port of a `charles cache-server`, or a comma-"
                             "separated list of them to shard the fleet cache "
                             "over (required by the remote backend)")
    parser.add_argument("--cache-replication", type=int, default=1,
                        help="shards storing each entry when --cache-url lists "
                             "several endpoints; at 2+ reads fail over around "
                             "the ring when a shard dies (default 1)")


def _begin_tracing(args: argparse.Namespace) -> None:
    """Open the trace sink before any engine work when ``--trace`` was given."""
    if args.trace is not None:
        from repro.obs.trace import configure_tracing

        configure_tracing(str(args.trace))


def _collect_server_spans(cache_url: str | None) -> None:
    """Merge the shards' server-side spans for this trace into the local sink.

    Each cache server buffers the spans of the traced requests it handled;
    draining them here gives the trace file one coherent tree in which
    ``server.*`` spans sit under the client spans that issued the requests.
    A dead shard simply contributes nothing — exactly like its cache entries.
    """
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    if not tracer.enabled or not cache_url:
        return
    from repro.cacheserver import parse_endpoints, server_trace

    for endpoint in parse_endpoints(cache_url):
        try:
            tracer.absorb(server_trace(endpoint, trace_id=tracer.trace_id))
        except CharlesError:
            continue


def _write_stats_json(
    path: Path,
    command: str,
    target: str,
    config: CharlesConfig,
    wall_seconds: float,
    stats,
    extra: dict | None = None,
) -> None:
    payload = {
        "command": command,
        "target": target,
        "config_fingerprint": config.cache_fingerprint().hex(),
        "wall_time_seconds": wall_seconds,
        "stats": stats.as_dict() if stats is not None else None,
    }
    if extra:
        payload.update(extra)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_pair(args: argparse.Namespace) -> SnapshotPair:
    from repro.relational.csv_io import read_csv
    from repro.relational.snapshot import SnapshotPair

    source = read_csv(args.source, primary_key=args.key)
    target = read_csv(args.target_file, primary_key=args.key)
    return SnapshotPair.align(source, target, key=args.key)


def _render_plan(plan, index) -> str:
    """The dry-run report: the plan's shape plus per-round bound histograms."""
    from repro.search.bounds import bound_histogram

    lines = [plan.describe()]
    if index is not None:
        lines.append("  score-bound histogram per round (bucket:specs):")
        for round_number, round_specs in enumerate(plan.rounds):
            if not round_specs:
                continue
            label = "global" if round_number == 0 else f"k={round_number}"
            histogram = bound_histogram(index.round_bounds(round_specs))
            lines.append(f"    round {round_number} ({label}): {histogram}")
    else:
        lines.append("  (no score bounds computed: exhaustive search or empty plan)")
    return "\n".join(lines)


def _command_plan(args: argparse.Namespace) -> int:
    from repro.core.charles import Charles
    from repro.core.config import CharlesConfig

    config = CharlesConfig(
        alpha=args.alpha,
        max_condition_attributes=args.max_condition_attributes,
        max_transformation_attributes=args.max_transformation_attributes,
        top_k=args.top,
    )
    pair = _load_pair(args)
    plan, index = Charles(config).plan_pair(
        pair,
        args.target,
        condition_attributes=args.condition_attributes,
        transformation_attributes=args.transformation_attributes,
    )
    print(_render_plan(plan, index))
    return 0


def _command_summarize(args: argparse.Namespace) -> int:
    from repro.core.charles import Charles
    from repro.core.config import CharlesConfig
    from repro.core.sql import summary_to_sql_update
    from repro.viz.report import result_to_markdown
    from repro.viz.tree_render import render_summary_tree
    from repro.viz.treemap import render_partition_treemap

    config = CharlesConfig(
        alpha=args.alpha,
        max_condition_attributes=args.max_condition_attributes,
        max_transformation_attributes=args.max_transformation_attributes,
        top_k=args.top,
        n_jobs=args.jobs,
        search_cache_capacity=args.cache_capacity,
        cache_backend=args.cache_backend,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        cache_url=args.cache_url,
        cache_replication=args.cache_replication,
        trace_path=str(args.trace) if args.trace is not None else None,
    )
    pair = _load_pair(args)
    _begin_tracing(args)
    started = time.perf_counter()
    result = Charles(config).summarize_pair(
        pair,
        args.target,
        condition_attributes=args.condition_attributes,
        transformation_attributes=args.transformation_attributes,
    )
    wall_seconds = time.perf_counter() - started
    if args.trace is not None:
        _collect_server_spans(args.cache_url)
    if args.stats_json is not None:
        _write_stats_json(
            args.stats_json,
            "summarize",
            args.target,
            config,
            wall_seconds,
            result.search_stats,
        )
    print(result.describe())
    if result.search_stats is not None:
        print(f"search: {result.search_stats.describe()}")
    if args.details and result.summaries:
        best = result.best.summary
        print(render_summary_tree(best))
        print()
        print(render_partition_treemap(best, pair))
    if args.sql and result.summaries:
        print()
        print(summary_to_sql_update(result.best.summary, args.source.stem))
    if args.markdown is not None:
        args.markdown.write_text(result_to_markdown(result), encoding="utf-8")
        print(f"\nmarkdown report written to {args.markdown}")
    return 0


def _command_suggest(args: argparse.Namespace) -> int:
    from repro.core.charles import Charles

    pair = _load_pair(args)
    suggestions = Charles().suggest_attributes(pair.source, pair.target, args.target, key=pair.key)
    print(suggestions.describe())
    return 0


def _command_diff(args: argparse.Namespace) -> int:
    from repro.diff import batch_update_distance, diff_snapshots, drift_report, update_distance

    pair = _load_pair(args)
    report = diff_snapshots(pair)
    print(report.describe(limit=args.limit))
    print()
    print(update_distance(pair.source, pair.target, key=pair.key))
    print(f"batch update distance (changed attributes): {batch_update_distance(pair)}")
    print()
    print(drift_report(pair).describe())
    return 0


def _command_timeline(args: argparse.Namespace) -> int:
    if len(args.versions) < 2:
        print("error: a timeline needs at least two snapshot CSVs", file=sys.stderr)
        return 2
    from repro.core.config import CharlesConfig
    from repro.relational.csv_io import read_csv
    from repro.timeline import EngineSession, TimelineStore

    config = CharlesConfig(
        alpha=args.alpha,
        max_condition_attributes=args.max_condition_attributes,
        max_transformation_attributes=args.max_transformation_attributes,
        top_k=args.top,
        n_jobs=args.jobs,
        search_cache_capacity=args.cache_capacity,
        cache_backend=args.cache_backend,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        cache_url=args.cache_url,
        cache_replication=args.cache_replication,
        trace_path=str(args.trace) if args.trace is not None else None,
    )
    store = TimelineStore(key=args.key)
    for path in args.versions:
        store.append(path.stem, read_csv(path, primary_key=args.key))
    if not 1 <= args.window <= len(store) - 1:
        print(
            f"error: --window must be between 1 and {len(store) - 1} "
            f"for {len(store)} versions, got {args.window}",
            file=sys.stderr,
        )
        return 2

    _begin_tracing(args)
    started = time.perf_counter()
    with EngineSession(config) as session:
        timeline_result = session.summarize_timeline(
            store,
            args.target,
            condition_attributes=args.condition_attributes,
            transformation_attributes=args.transformation_attributes,
            window=args.window,
        )
        print(timeline_result.describe(limit=args.limit))
    if args.trace is not None:
        _collect_server_spans(args.cache_url)
    if args.stats_json is not None:
        hop_stats = [
            (hop.source_version, hop.target_version, hop.stats)
            for hop in timeline_result.hops
        ]
        _write_timeline_stats(args, config, time.perf_counter() - started, hop_stats)
    return 0


def _write_timeline_stats(
    args: argparse.Namespace,
    config: CharlesConfig,
    wall_seconds: float,
    hop_stats: list[tuple[str, str, object]],
) -> None:
    hops = [
        {
            "source": source,
            "version": version,
            "stats": stats.as_dict() if stats is not None else None,
        }
        for source, version, stats in hop_stats
    ]
    _write_stats_json(
        args.stats_json,
        "timeline",
        args.target,
        config,
        wall_seconds,
        None,
        extra={"hops": hops},
    )


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.analyze import load_trace, render_tree, summarize_trace

    spans = load_trace(args.trace_file)
    if args.action == "summarize":
        print(summarize_trace(spans, slowest=args.slowest))
    else:
        print(render_tree(spans, trace_id=args.trace_id))
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from repro.relational.csv_io import write_csv
    from repro.workloads import billionaires_pair, employee_pair, example_pair, montgomery_pair

    if args.workload == "example":
        pair = example_pair()
    elif args.workload == "employee":
        pair = employee_pair(args.rows, seed=args.seed, noise_fraction=args.noise)
    elif args.workload == "montgomery":
        pair = montgomery_pair(args.rows, seed=args.seed, noise_fraction=args.noise)
    else:
        pair = billionaires_pair(args.rows, seed=args.seed, noise_fraction=args.noise)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    source_path = args.out_dir / f"{args.workload}_source.csv"
    target_path = args.out_dir / f"{args.workload}_target.csv"
    write_csv(pair.source, source_path)
    write_csv(pair.target, target_path)
    print(f"wrote {source_path} and {target_path} ({pair.num_rows} rows, key={pair.key})")
    return 0


def _command_cache_server(args: argparse.Namespace) -> int:
    from repro.cacheserver import DEFAULT_PORT, AsyncCacheServer

    port = DEFAULT_PORT if args.port is None else args.port
    server = AsyncCacheServer(host=args.host, port=port, capacity=args.capacity)
    bound_host, bound_port = server.address
    if bound_host in ("0.0.0.0", "::"):
        # a wildcard bind is not a reachable address: other machines must
        # connect to this host's name, never to 0.0.0.0 (their own loopback)
        import socket as socket_module

        advertised = f"{socket_module.gethostname()}:{bound_port}"
    else:
        advertised = server.url
    print(
        f"cache server listening on {server.url} "
        f"(asyncio, oldest write evicted first, capacity={args.capacity or 'unbounded'}); "
        "point engines at it with --cache-backend remote --cache-url "
        f"{advertised}",
        flush=True,
    )
    if args.ready_file is not None:
        args.ready_file.write_text(advertised, encoding="utf-8")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.config import ServingConfig
    from repro.serving.service import CharlesServingService

    _begin_tracing(args)
    overrides = {
        name: value
        for name, value in (
            ("max_sessions", args.max_sessions),
            ("session_ttl_seconds", args.session_ttl),
            ("sweep_interval_seconds", args.sweep_interval),
            ("queue_depth", args.queue_depth),
            ("tenant_concurrency", args.tenant_concurrency),
            ("worker_threads", args.worker_threads),
        )
        if value is not None
    }
    infra = {
        "cache_backend": args.cache_backend,
        "cache_dir": str(args.cache_dir) if args.cache_dir is not None else None,
        "cache_url": args.cache_url,
        "cache_replication": args.cache_replication,
        "trace_path": str(args.trace) if args.trace is not None else None,
    }

    async def _run() -> None:
        service = CharlesServingService(
            serving=ServingConfig(**overrides),
            host=args.host,
            port=args.port,
            infra=infra,
        )
        await service.start()
        host, port = service.address
        serving = service.serving
        print(
            f"charles serving on {service.url} "
            f"(max_sessions={serving.max_sessions}, "
            f"ttl={serving.session_ttl_seconds:g}s, "
            f"queue_depth={serving.queue_depth}, "
            f"tenant_concurrency={serving.tenant_concurrency}, "
            f"worker_threads={serving.worker_threads}, "
            f"cache_backend={args.cache_backend})",
            flush=True,
        )
        if args.ready_file is not None:
            args.ready_file.write_text(f"{host}:{port}", encoding="utf-8")
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _disk_cache_files(cache_dir: Path) -> list[Path]:
    files = sorted(cache_dir.glob("*.sqlite"))
    if not files:
        raise CharlesError(f"no cache files (*.sqlite) under {cache_dir}")
    return files


def _shard_stats_table(per_shard: dict[str, "dict | None"]) -> str:
    """A per-shard + aggregate table of every shard's STATS payload.

    A shard whose stats are ``None`` (unreachable during the fan-out) renders
    as a ``DOWN`` row — the operator sees exactly which shard is dead next to
    the live ones, instead of the whole table aborting.  The aggregate row
    then covers the reachable shards only.
    """
    regions = sorted(
        {
            name
            for stats in per_shard.values()
            if stats is not None
            for name in stats["regions"]
        }
    )
    header = ["shard"] + [f"{name} entries" for name in regions] + ["hits", "misses", "evictions", "requests"]
    rows = [header]
    totals = {name: 0 for name in regions}
    hits = misses = evictions = requests = 0
    down = 0
    for url, stats in per_shard.items():
        if stats is None:
            down += 1
            rows.append([url, "DOWN"] + [""] * (len(header) - 2))
            continue
        row = [url]
        for name in regions:
            entries = stats["regions"].get(name, {}).get("entries", 0)
            totals[name] += entries
            row.append(str(entries))
        shard_hits = sum(r.get("hits", 0) for r in stats["regions"].values())
        shard_misses = sum(r.get("misses", 0) for r in stats["regions"].values())
        shard_evictions = sum(r.get("evictions", 0) for r in stats["regions"].values())
        shard_requests = stats["server"].get("requests", 0)
        hits += shard_hits
        misses += shard_misses
        evictions += shard_evictions
        requests += shard_requests
        row += [str(shard_hits), str(shard_misses), str(shard_evictions), str(shard_requests)]
        rows.append(row)
    label = "TOTAL" if not down else f"TOTAL ({down} shard{'s' if down > 1 else ''} DOWN)"
    aggregate = [label] + [str(totals[name]) for name in regions]
    aggregate += [str(hits), str(misses), str(evictions), str(requests)]
    rows.append(aggregate)
    widths = [max(len(row[column]) for row in rows) for column in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _command_cache(args: argparse.Namespace) -> int:
    if (args.cache_url is None) == (args.cache_dir is None):
        print("error: pass exactly one of --cache-url or --cache-dir", file=sys.stderr)
        return 2
    if args.cache_url is not None:
        from repro.cacheserver import (
            parse_endpoints,
            server_clear,
            server_metrics,
            server_stats,
        )

        endpoints = parse_endpoints(args.cache_url)
        if args.action == "stats" and args.metrics:
            # the same exposition a Prometheus scrape of each shard would see;
            # a dead shard becomes a note, not an abort mid-fan-out
            for endpoint in endpoints:
                if len(endpoints) > 1:
                    print(f"== {endpoint} ==")
                try:
                    print(server_metrics(endpoint), end="")
                except CharlesError as error:
                    print(f"# DOWN: {error}")
            return 0
        if args.action == "clear":
            # fan out to every shard; an unreachable one is an error the
            # operator must see (a half-cleared fabric serves stale hit rates)
            for endpoint in endpoints:
                server_clear(endpoint)
                print(f"cleared every region of {endpoint}")
            return 0
        if len(endpoints) == 1:
            print(json.dumps(server_stats(endpoints[0]), indent=2))
            return 0

        def _stats_or_down(url: str) -> "dict | None":
            # stats fan-out must survive a dead shard: the operator asking
            # "how is the fabric doing" most needs the answer when part of
            # it is down, and the live shards' numbers are still true
            try:
                return server_stats(url)
            except CharlesError:
                return None

        print(_shard_stats_table({url: _stats_or_down(url) for url in endpoints}))
        return 0
    from repro.cachestore.disk import DiskBackend

    for path in _disk_cache_files(args.cache_dir):
        backend = DiskBackend(path)
        try:
            # the strict variants: an operator must see a locked or corrupt
            # store as an error, not as "cleared"/"0 entries"
            if args.action == "clear":
                backend.strict_clear()
                print(f"{path.name}: cleared")
            else:
                size = path.stat().st_size
                print(f"{path.name}: {backend.strict_len()} entries, {size} bytes on disk")
        finally:
            backend.close()
    return 0


_COMMANDS = {
    "summarize": _command_summarize,
    "suggest": _command_suggest,
    "plan": _command_plan,
    "diff": _command_diff,
    "timeline": _command_timeline,
    "trace": _command_trace,
    "generate": _command_generate,
    "cache-server": _command_cache_server,
    "serve": _command_serve,
    "cache": _command_cache,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CharlesError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. `charles trace tree | head`); not an error
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
