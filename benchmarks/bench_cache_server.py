"""Cache-server benchmark: what a fleet-shared result store buys, end to end.

The cache service (:mod:`repro.cacheserver`) lets a *fleet* of engine
instances with no filesystem or memory in common, connected only by TCP,
serve each other's repeated requests: every summarize request publishes its
ranked result into one :class:`~repro.cacheserver.aserver.AsyncCacheServer`
(per-spec memo entries stay in each engine's process).

This benchmark runs the repeated-query workload of ``bench_cache_backends.py``
(the streaming-audit chain, re-audited hop by hop through a warm
:class:`~repro.timeline.session.EngineSession`) under three deployments:

1. ``serial``      — ``n_jobs=1``, in-process caches (the reference);
2. ``remote-cold`` — a *freshly spawned interpreter* pointed at an empty
   cache server: every entry it uses, it first computes and publishes;
3. ``remote-warm`` — a second freshly spawned interpreter against the same
   server: the fleet's second member, served the first one's published
   result entries.

Each scenario reports ``result_hits`` (requests served whole from a result
entry) beside its memo ``misses`` (per-spec work recomputed), so each arm
says what served it.  The workload re-audits every earlier hop on each
arrival, so even the cold member serves its repeats from result entries.

Spawning (not forking) proves the fleet claim end to end: the children share
no memory with this process or each other, so every warm hit travelled
through the server's TCP frames.

Contract points, recorded in the JSON report:

* rankings are byte-identical across every scenario (always enforced — the
  subsystem's hard invariant);
* the warm fleet member misses (almost) nothing: its memo misses are under
  10 % of the cold member's (enforced outside smoke mode) — its requests are
  served from the cold member's result entries;
* the warm fleet member is measurably faster than the cold one (enforced
  outside smoke mode; timing on shared CI runners only warns);
* the server's view of the traffic (per-region hits/misses/entries) is
  included for inspection, as ``charles cache stats --cache-url`` would
  print it.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_cache_server.py --smoke --output bench_cache_server.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path

from repro.core import CharlesConfig
from repro.cacheserver import AsyncCacheServer, server_stats
from repro.timeline import EngineSession, TimelineStore
from repro.workloads import streaming_employee_timeline

try:
    from _meta import stamp as _stamp
except ImportError:  # imported as a module (pytest, spawn workers), not run directly
    def _stamp(report):
        return report


TARGET = "bonus"


def _run_scenario(name: str, config: CharlesConfig, rows: int, versions: int, seed: int) -> dict:
    full_store, _ = streaming_employee_timeline(rows, num_versions=versions, seed=seed)
    stats_sum = {"hits": 0, "misses": 0, "result_hits": 0}
    started = time.perf_counter()
    with EngineSession(config) as session:
        store = TimelineStore(key=full_store.key)
        chain = list(full_store)
        store.append(chain[0].name, chain[0].table)
        rankings = None
        for version in chain[1:]:
            store.append(version.name, version.table)
            result = session.summarize_timeline(store, TARGET)
            rankings = result.rankings()
            for hop in result.hops:
                if hop.stats is None:
                    continue
                stats_sum["hits"] += hop.stats.cache_hits
                stats_sum["misses"] += hop.stats.cache_lookups - hop.stats.cache_hits
                stats_sum["result_hits"] += hop.stats.result_hits
        seconds = time.perf_counter() - started
    lookups = stats_sum["hits"] + stats_sum["misses"]
    return {
        "scenario": name,
        "cache_backend": config.cache_backend,
        "seconds": seconds,
        "rankings": [[list(entry) for entry in hop] for hop in rankings],
        "cache_hit_rate": stats_sum["hits"] / lookups if lookups else 0.0,
        **stats_sum,
    }


def _remote_process(rows: int, versions: int, seed: int, url: str, out_path: str) -> None:
    """One fleet member's worth of work against the server (spawn target)."""
    config = CharlesConfig(cache_backend="remote", cache_url=url)
    report = _run_scenario("remote", config, rows, versions, seed)
    Path(out_path).write_text(json.dumps(report), encoding="utf-8")


def _run_remote_scenario(name: str, rows: int, versions: int, seed: int, url: str) -> dict:
    """Run the workload in a genuinely fresh interpreter (spawned, not forked)."""
    context = multiprocessing.get_context("spawn")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = handle.name
    process = context.Process(
        target=_remote_process, args=(rows, versions, seed, url, out_path)
    )
    process.start()
    process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"remote scenario process exited with {process.exitcode}")
    report = json.loads(Path(out_path).read_text(encoding="utf-8"))
    Path(out_path).unlink()
    report["scenario"] = name
    return report


def run_benchmark(rows: int, versions: int, seed: int) -> dict:
    scenarios = [
        _run_scenario("serial", CharlesConfig(n_jobs=1), rows, versions, seed)
    ]
    with AsyncCacheServer() as server:
        scenarios.append(
            _run_remote_scenario("remote-cold", rows, versions, seed, server.url)
        )
        scenarios.append(
            _run_remote_scenario("remote-warm", rows, versions, seed, server.url)
        )
        server_view = server_stats(server.url)

    by_name = {scenario["scenario"]: scenario for scenario in scenarios}
    reference = by_name["serial"]["rankings"]
    for scenario in scenarios:
        scenario["rankings_identical_to_serial"] = scenario["rankings"] == reference

    cold = by_name["remote-cold"]
    warm = by_name["remote-warm"]
    return {
        "experiment": "cache_server",
        "rows": rows,
        "versions": versions,
        "seed": seed,
        "target": TARGET,
        "scenarios": [
            {key: value for key, value in scenario.items() if key != "rankings"}
            for scenario in scenarios
        ],
        "server_stats": server_view,
        "remote_cold_seconds": cold["seconds"],
        "remote_warm_seconds": warm["seconds"],
        "warm_fleet_speedup": (
            cold["seconds"] / warm["seconds"] if warm["seconds"] > 0 else None
        ),
        "warm_fleet_faster": warm["seconds"] < cold["seconds"],
        "cold_misses": cold["misses"],
        "warm_misses": warm["misses"],
        "cold_result_hits": cold["result_hits"],
        "warm_result_hits": warm["result_hits"],
        "warm_fleet_served_off_server": warm["misses"] <= 0.1 * max(cold["misses"], 1),
        "all_rankings_identical": all(
            scenario["rankings_identical_to_serial"] for scenario in scenarios
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cache-server benchmark: two spawned engines sharing one server"
    )
    parser.add_argument("--rows", type=int, default=1_500, help="entities per version")
    parser.add_argument("--versions", type=int, default=4, help="versions in the chain")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI (overrides --rows to 150, --versions to 3)")
    parser.add_argument("--output", type=Path, default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    rows = 150 if args.smoke else args.rows
    versions = 3 if args.smoke else args.versions

    report = run_benchmark(rows, versions, args.seed)
    report["smoke"] = args.smoke
    text = json.dumps(_stamp(report), indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)

    # the ranking invariant is deterministic and always enforced; the miss
    # and timing recoveries are statistical, so in smoke mode (tiny inputs on
    # noisy shared runners) they warn instead of failing the build
    failures = []
    warnings_ = []
    if not report["all_rankings_identical"]:
        failures.append("rankings diverged between local and fleet deployments")
    if not report["warm_fleet_served_off_server"]:
        message = (
            "second fleet member was not served off the server "
            f"({report['warm_misses']} misses vs {report['cold_misses']} cold)"
        )
        (warnings_ if args.smoke else failures).append(message)
    if not report["warm_fleet_faster"]:
        message = (
            "second (warm) fleet member was not faster than the first "
            f"({report['remote_warm_seconds']:.2f}s vs {report['remote_cold_seconds']:.2f}s)"
        )
        (warnings_ if args.smoke else failures).append(message)
    for message in warnings_:
        print(f"WARN: {message}", file=sys.stderr)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
