"""Cache-backend benchmark: what sharing memo entries and persisting results buys.

The cachestore subsystem (:mod:`repro.cachestore`) exists for two losses the
default in-process caches cannot recover:

* **parallel workers recompute each other's work** — with ``n_jobs > 1`` each
  process holds private caches, so the measured hit rate collapses versus a
  serial run of the same workload (the ``shared`` store);
* **answers die with the interpreter** — a production service restarted (or
  a second analyst on the same data) pays the whole search again (the
  ``disk`` store's result entries).

This benchmark runs one repeated-query workload — the streaming-audit chain
of ``bench_incremental.py``, re-audited hop by hop through a warm
:class:`~repro.timeline.session.EngineSession` — under four deployments:

1. ``serial``           — ``n_jobs=1``, in-process caches (the reference);
2. ``parallel-no-share``— ``n_jobs=2``, private per-worker caches;
3. ``parallel-shared``  — ``n_jobs=2``, one shared store all workers attach to;
4. ``disk``             — two *freshly spawned interpreters* in sequence, both
   pointed at the same on-disk store: the first is cold, the second is
   served the first one's result entries.

Each scenario reports ``result_hits`` (requests served whole from a result
entry) beside its memo misses, so each arm says what served it.

Contract points, recorded in the JSON report:

* rankings are byte-identical across every scenario (always enforced — this
  is the subsystem's hard invariant);
* the shared store recovers the parallel partition-discovery hit rate to
  within 10 % of the serial rate (enforced outside smoke mode);
* the second disk process is measurably faster than the first (enforced
  outside smoke mode; timing on shared CI runners only warns).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_cache_backends.py --smoke --output bench_cache_backends.json
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
from repro.timeline import EngineSession, TimelineStore
from repro.workloads import streaming_employee_timeline

try:
    from _meta import stamp as _stamp
except ImportError:  # imported as a module (pytest, spawn workers), not run directly
    def _stamp(report):
        return report


TARGET = "bonus"


def _build_store(rows: int, versions: int, seed: int) -> TimelineStore:
    full_store, _ = streaming_employee_timeline(rows, num_versions=versions, seed=seed)
    return full_store


def _run_scenario(name: str, config: CharlesConfig, rows: int, versions: int, seed: int) -> dict:
    full_store = _build_store(rows, versions, seed)
    stats_sum = {
        "partition_hits": 0, "partition_misses": 0, "hits": 0, "misses": 0, "result_hits": 0,
    }
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
                stats_sum["partition_hits"] += hop.stats.partition_cache_hits
                stats_sum["partition_misses"] += hop.stats.partition_cache_misses
                stats_sum["hits"] += hop.stats.cache_hits
                stats_sum["misses"] += hop.stats.cache_lookups - hop.stats.cache_hits
                stats_sum["result_hits"] += hop.stats.result_hits
        seconds = time.perf_counter() - started
    partition_lookups = stats_sum["partition_hits"] + stats_sum["partition_misses"]
    lookups = stats_sum["hits"] + stats_sum["misses"]
    return {
        "scenario": name,
        "cache_backend": config.cache_backend,
        "n_jobs": config.n_jobs,
        "seconds": seconds,
        "rankings": [[list(entry) for entry in hop] for hop in rankings],
        "partition_hit_rate": (
            stats_sum["partition_hits"] / partition_lookups if partition_lookups else 0.0
        ),
        "cache_hit_rate": stats_sum["hits"] / lookups if lookups else 0.0,
        **stats_sum,
    }


def _disk_process(rows: int, versions: int, seed: int, cache_dir: str, out_path: str) -> None:
    """One interpreter's worth of work against the on-disk store (spawn target)."""
    config = CharlesConfig(cache_backend="disk", cache_dir=cache_dir)
    report = _run_scenario("disk", config, rows, versions, seed)
    Path(out_path).write_text(json.dumps(report), encoding="utf-8")


def _run_disk_scenario(name: str, rows: int, versions: int, seed: int, cache_dir: str) -> dict:
    """Run the workload in a genuinely fresh interpreter (spawned, not forked).

    Spawning proves the persistence claim end to end: the child shares no
    memory with this process, so every entry its second run hits came off the
    SQLite file the first run wrote.
    """
    context = multiprocessing.get_context("spawn")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = handle.name
    process = context.Process(
        target=_disk_process, args=(rows, versions, seed, cache_dir, out_path)
    )
    process.start()
    process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"disk scenario process exited with {process.exitcode}")
    report = json.loads(Path(out_path).read_text(encoding="utf-8"))
    Path(out_path).unlink()
    report["scenario"] = name
    return report


def run_benchmark(rows: int, versions: int, seed: int) -> dict:
    scenarios = []
    scenarios.append(
        _run_scenario("serial", CharlesConfig(n_jobs=1), rows, versions, seed)
    )
    scenarios.append(
        _run_scenario("parallel-no-share", CharlesConfig(n_jobs=2), rows, versions, seed)
    )
    scenarios.append(
        _run_scenario(
            "parallel-shared",
            CharlesConfig(n_jobs=2, cache_backend="shared"),
            rows,
            versions,
            seed,
        )
    )
    with tempfile.TemporaryDirectory(prefix="charles-cache-") as cache_dir:
        scenarios.append(_run_disk_scenario("disk-cold", rows, versions, seed, cache_dir))
        scenarios.append(_run_disk_scenario("disk-warm", rows, versions, seed, cache_dir))

    by_name = {scenario["scenario"]: scenario for scenario in scenarios}
    reference = by_name["serial"]["rankings"]
    for scenario in scenarios:
        scenario["rankings_identical_to_serial"] = scenario["rankings"] == reference

    serial_rate = by_name["serial"]["partition_hit_rate"]
    shared_rate = by_name["parallel-shared"]["partition_hit_rate"]
    private_rate = by_name["parallel-no-share"]["partition_hit_rate"]
    disk_cold = by_name["disk-cold"]["seconds"]
    disk_warm = by_name["disk-warm"]["seconds"]
    report = {
        "experiment": "cache_backends",
        "rows": rows,
        "versions": versions,
        "seed": seed,
        "target": TARGET,
        "scenarios": [
            {key: value for key, value in scenario.items() if key != "rankings"}
            for scenario in scenarios
        ],
        "serial_partition_hit_rate": serial_rate,
        "parallel_private_partition_hit_rate": private_rate,
        "parallel_shared_partition_hit_rate": shared_rate,
        "shared_recovers_serial_hit_rate": shared_rate >= 0.9 * serial_rate,
        "disk_cold_seconds": disk_cold,
        "disk_warm_seconds": disk_warm,
        "disk_warm_speedup": disk_cold / disk_warm if disk_warm > 0 else None,
        "disk_warm_faster": disk_warm < disk_cold,
        "all_rankings_identical": all(
            scenario["rankings_identical_to_serial"] for scenario in scenarios
        ),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cache-backend benchmark: serial vs parallel-shared vs disk-warm"
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

    # the ranking invariant is deterministic and always enforced; the hit-rate
    # and timing recoveries are statistical, so in smoke mode (tiny inputs on
    # noisy shared runners) they warn instead of failing the build
    failures = []
    warnings_ = []
    if not report["all_rankings_identical"]:
        failures.append("rankings diverged across cache backends")
    if not report["shared_recovers_serial_hit_rate"]:
        message = (
            "shared store did not recover the serial partition hit rate "
            f"(serial {report['serial_partition_hit_rate']:.3f}, "
            f"shared {report['parallel_shared_partition_hit_rate']:.3f})"
        )
        (warnings_ if args.smoke else failures).append(message)
    if not report["disk_warm_faster"]:
        message = (
            "second (warm) disk process was not faster than the first "
            f"({report['disk_warm_seconds']:.2f}s vs {report['disk_cold_seconds']:.2f}s)"
        )
        (warnings_ if args.smoke else failures).append(message)
    for message in warnings_:
        print(f"WARN: {message}", file=sys.stderr)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
