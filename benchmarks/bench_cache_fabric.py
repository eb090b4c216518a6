"""Cache-fabric benchmark: sharding and replication, end to end.

``bench_cache_server.py`` proves one cache server lets a fleet serve each
other's repeated requests from result entries.  This benchmark measures
what the *fabric* adds on top:

1. **topology never changes results** — the repeated-query workload (the
   streaming-audit chain re-audited hop by hop) runs against in-process
   caches, a 1-shard fabric, an N-shard replicated fabric, and the same
   fabric with one shard killed partway through the benchmark; every arm's
   rankings must be byte-identical to the serial reference;
2. **replication makes shard death cheap** — the post-kill arm reports its
   memo misses, result hits and ring failovers: with replication on, the
   dead shard's result entries are served off successors instead of being
   recomputed;
3. **a warm fleet pays off** — a second engine against the same fleet is
   served the first one's result entries (``fleet_warm_speedup``);
4. **no stalls on the wire** — the ``wire`` arm runs cycles of two
   replicated 32 KiB PUTs and one GET against two spawned shard processes
   and reports the GET latency quantiles.  Two servers in one process would
   not show a stall of the shards' own sockets.

Each scenario reports ``result_hits`` (requests served whole from a result
entry) beside its memo ``misses`` (per-spec work recomputed), so each arm
says what served it.

Engine arms run in freshly *spawned* interpreters (no shared memory), so
every warm hit demonstrably travelled through TCP frames.

Contract points, recorded in the JSON report:

* rankings identical across every topology: memory, 1 shard, N shards
  replicated, and N shards with one killed (always enforced);
* with replication, the degraded arm's misses stay under 10 % of the cold
  arm's (enforced outside smoke mode; warns in smoke, where shared runners
  are noisy) and its failover count is non-zero;
* every ``wire`` GET hits, and its p99 stays under 20 ms (enforced outside
  smoke mode; warns in smoke).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_cache_fabric.py --smoke --output bench_cache_fabric.json
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

from repro.core import CharlesConfig
from repro.cacheserver import AsyncCacheServer, ShardedRemoteBackend
from repro.timeline import EngineSession, TimelineStore
from repro.workloads import streaming_employee_timeline

try:
    from _meta import stamp as _stamp
except ImportError:  # imported as a module (pytest, spawn workers), not run directly
    def _stamp(report):
        return report


TARGET = "bonus"

#: the wire arm's cycles, value size and p99 bound.  Engine entries are
#: smaller (median 175 bytes, at most 3 KiB on a 500-row chain); two 32 KiB
#: values fill the client's write-behind outbox, so each cycle's PUTs leave
#: in a send of their own, as a search's do whenever it publishes 64 KiB
WIRE_CYCLES = 300
WIRE_VALUE_BYTES = 32 * 1024
WIRE_P99_LIMIT_SECONDS = 0.020


# -- engine arms (spawned interpreters against live fleets) ---------------------


def _run_scenario(name: str, config: CharlesConfig, rows: int, versions: int, seed: int) -> dict:
    full_store, _ = streaming_employee_timeline(rows, num_versions=versions, seed=seed)
    stats_sum = {"hits": 0, "misses": 0, "result_hits": 0, "failovers": 0, "round_trips": 0}
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
                remote = hop.stats.backend_counters.get("remote")
                if remote is not None:
                    stats_sum["failovers"] += remote.failovers
                    stats_sum["round_trips"] += remote.round_trips
        seconds = time.perf_counter() - started
    lookups = stats_sum["hits"] + stats_sum["misses"]
    return {
        "scenario": name,
        "cache_backend": config.cache_backend,
        "shards": len(config.cache_url.split(",")) if config.cache_url else 0,
        "replication": config.cache_replication,
        "seconds": seconds,
        "rankings": [[list(entry) for entry in hop] for hop in rankings],
        "cache_hit_rate": stats_sum["hits"] / lookups if lookups else 0.0,
        **stats_sum,
    }


def _fabric_process(
    rows: int, versions: int, seed: int, url: str, replication: int, out_path: str
) -> None:
    """One fleet member's worth of work against the fabric (spawn target)."""
    config = CharlesConfig(
        cache_backend="remote", cache_url=url, cache_replication=replication
    )
    report = _run_scenario("fabric", config, rows, versions, seed)
    Path(out_path).write_text(json.dumps(report), encoding="utf-8")


def _run_fabric_scenario(
    name: str,
    rows: int,
    versions: int,
    seed: int,
    url: str,
    replication: int,
) -> dict:
    """Run the workload in a genuinely fresh interpreter (spawned, not forked)."""
    context = multiprocessing.get_context("spawn")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = handle.name
    process = context.Process(
        target=_fabric_process, args=(rows, versions, seed, url, replication, out_path)
    )
    process.start()
    process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"fabric scenario process exited with {process.exitcode}")
    report = json.loads(Path(out_path).read_text(encoding="utf-8"))
    Path(out_path).unlink()
    report["scenario"] = name
    return report


# -- the wire arm (client latency against two spawned shard processes) -----------


def _shard_process(connection) -> None:
    """One cache shard in its own interpreter (spawn target): serve until told to stop."""
    server = AsyncCacheServer().start()
    connection.send(server.url)
    connection.recv()
    server.shutdown()


def run_wire_arm(cycles: int = WIRE_CYCLES, value_bytes: int = WIRE_VALUE_BYTES) -> dict:
    """GET latency after ``cycles`` of replicated PUTs on a 2-shard, 2-replica fabric."""
    context = multiprocessing.get_context("spawn")
    pipes, processes = [], []
    try:
        for _ in range(2):
            parent_end, child_end = context.Pipe()
            process = context.Process(target=_shard_process, args=(child_end,))
            process.start()
            pipes.append(parent_end)
            processes.append(process)
        url = ",".join(pipe.recv() for pipe in pipes)
        backend = ShardedRemoteBackend(url, namespace=b"wire", replication=2)
        value = bytes(value_bytes)
        latencies = []
        hits = 0
        backend.put(("wire", -1, 0), value)
        for index in range(cycles):
            # two acknowledged PUTs, then the GET of the previous cycle's entry
            backend.put(("wire", index, 0), value)
            backend.put(("wire", index, 1), value)
            started = time.perf_counter()
            hits += backend.get(("wire", index - 1, 0)) == value
            latencies.append(time.perf_counter() - started)
        backend.close()
    finally:
        for pipe in pipes:
            pipe.send("stop")
        for process in processes:
            process.join(timeout=30)
    percentiles = statistics.quantiles(latencies, n=100)
    return {
        "shards": 2,
        "replication": 2,
        "cycles": cycles,
        "value_bytes": value_bytes,
        "hits": hits,
        "get_p50_s": percentiles[49],
        "get_p99_s": percentiles[98],
        "get_max_s": max(latencies),
        "gets_over_20ms": sum(latency > 0.020 for latency in latencies),
    }


# -- the benchmark --------------------------------------------------------------


def run_benchmark(
    rows: int,
    versions: int,
    seed: int,
    shard_count: int,
    replication: int,
) -> dict:
    scenarios = [_run_scenario("serial", CharlesConfig(n_jobs=1), rows, versions, seed)]

    with AsyncCacheServer() as single:
        scenarios.append(
            _run_fabric_scenario(
                "one-shard-cold", rows, versions, seed, single.url, 1
            )
        )

    shards = [AsyncCacheServer().start() for _ in range(shard_count)]
    try:
        fleet_url = ",".join(shard.url for shard in shards)
        scenarios.append(
            _run_fabric_scenario(
                "fleet-cold", rows, versions, seed, fleet_url, replication
            )
        )
        scenarios.append(
            _run_fabric_scenario(
                "fleet-warm", rows, versions, seed, fleet_url, replication
            )
        )
        # one fleet member dies mid-benchmark; with replication on, the
        # survivors hold every entry and reads fail over around the ring
        shards[0].shutdown()
        scenarios.append(
            _run_fabric_scenario(
                "fleet-degraded", rows, versions, seed, fleet_url, replication
            )
        )
    finally:
        for shard in shards:
            shard.shutdown()

    by_name = {scenario["scenario"]: scenario for scenario in scenarios}
    reference = by_name["serial"]["rankings"]
    for scenario in scenarios:
        scenario["rankings_identical_to_serial"] = scenario["rankings"] == reference

    cold = by_name["fleet-cold"]
    warm = by_name["fleet-warm"]
    degraded = by_name["fleet-degraded"]
    return {
        "experiment": "cache_fabric",
        "rows": rows,
        "versions": versions,
        "seed": seed,
        "target": TARGET,
        "shard_count": shard_count,
        "replication": replication,
        "scenarios": [
            {key: value for key, value in scenario.items() if key != "rankings"}
            for scenario in scenarios
        ],
        "fleet_warm_speedup": (
            cold["seconds"] / warm["seconds"] if warm["seconds"] > 0 else None
        ),
        "cold_misses": cold["misses"],
        "warm_misses": warm["misses"],
        "degraded_misses": degraded["misses"],
        "warm_result_hits": warm["result_hits"],
        "degraded_result_hits": degraded["result_hits"],
        "degraded_failovers": degraded["failovers"],
        "degraded_served_off_replicas": (
            degraded["misses"] <= 0.1 * max(cold["misses"], 1)
            and degraded["failovers"] > 0
        ),
        "all_rankings_identical": all(
            scenario["rankings_identical_to_serial"] for scenario in scenarios
        ),
        "wire": run_wire_arm(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cache-fabric benchmark: sharded, replicated fleet cache"
    )
    parser.add_argument("--rows", type=int, default=1_500, help="entities per version")
    parser.add_argument("--versions", type=int, default=4, help="versions in the chain")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--shards", type=int, default=3, help="fleet size for the N-shard arms")
    parser.add_argument("--replication", type=int, default=2,
                        help="replica copies per entry (>= 2 makes shard death free)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI (150 rows, 3 versions, 2 shards)")
    parser.add_argument("--output", type=Path, default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    rows = 150 if args.smoke else args.rows
    versions = 3 if args.smoke else args.versions
    shard_count = 2 if args.smoke else args.shards
    replication = min(args.replication, shard_count)

    report = run_benchmark(rows, versions, args.seed, shard_count, replication)
    report["smoke"] = args.smoke
    text = json.dumps(_stamp(report), indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)

    # the ranking invariant is deterministic and always enforced; the
    # miss-recovery margin is statistical, so smoke mode (tiny inputs on
    # noisy shared runners) warns instead of failing the build
    failures = []
    warnings_ = []
    if not report["all_rankings_identical"]:
        failures.append("rankings diverged between cache topologies")
    if not report["degraded_served_off_replicas"]:
        message = (
            "shard death was not absorbed by replicas "
            f"({report['degraded_misses']} misses vs {report['cold_misses']} cold, "
            f"{report['degraded_failovers']} failovers)"
        )
        (warnings_ if args.smoke else failures).append(message)
    wire = report["wire"]
    if wire["hits"] != wire["cycles"]:
        failures.append(f"wire arm: {wire['hits']} of {wire['cycles']} GETs hit")
    if wire["get_p99_s"] >= WIRE_P99_LIMIT_SECONDS:
        message = (
            f"wire arm: GET p99 {wire['get_p99_s'] * 1e3:.1f} ms is not under "
            f"{WIRE_P99_LIMIT_SECONDS * 1e3:.0f} ms ({wire['gets_over_20ms']} GETs over 20 ms)"
        )
        (warnings_ if args.smoke else failures).append(message)
    for message in warnings_:
        print(f"WARN: {message}", file=sys.stderr)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
