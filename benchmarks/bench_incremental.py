"""Incremental timeline benchmark: cold per-pair runs vs one warm engine session.

Models the streaming-audit serving pattern the timeline subsystem exists for:
versions of a dataset arrive one at a time, and every arrival triggers a
re-audit of the whole chain so far (the dashboard-refresh workload).  A cold
deployment re-runs every hop from scratch on every refresh; a warm
:class:`~repro.timeline.session.EngineSession` answers previously-served hops
from their result entries and only pays for the new hop.  Each refresh
reports ``result_hits`` (hops served whole from a result entry) beside the
session's memo traffic, so the report says what served the warm run.

The run enforces the subsystem's three contract points and records them in a
machine-readable JSON report (like ``bench_scaling.py``'s E6 output):

* rankings of the warm ``summarize_timeline`` over the full chain are
  byte-identical to independent cold per-pair runs;
* the warm session's measured memo-cache hit rate is greater than zero;
* the warm run of the full chain is faster than the cold per-pair runs.

Run it directly (pytest is not involved, so CI can execute it in smoke mode
without extra dependencies)::

    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke --output bench_incremental.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core import Charles, CharlesConfig
from repro.timeline import EngineSession, TimelineStore
from repro.workloads import streaming_employee_timeline


try:
    from _meta import stamp as _stamp
except ImportError:  # imported as a module (pytest, spawn workers), not run directly
    def _stamp(report):
        return report


def _ranking(result):
    return [(s.summary.describe(), s.score) for s in result.summaries]


def _cold_refresh(store: TimelineStore, target: str, config: CharlesConfig):
    """Re-audit every hop of the chain with fresh cold engines."""
    rankings = []
    stats = []
    started = time.perf_counter()
    for _, _, pair in store.consecutive_pairs():
        result = Charles(config).summarize_pair(pair, target)
        rankings.append(_ranking(result))
        stats.append(result.search_stats)
    return rankings, stats, time.perf_counter() - started


def run_benchmark(rows: int, versions: int, seed: int, config: CharlesConfig) -> dict:
    full_store, policies = streaming_employee_timeline(rows, num_versions=versions, seed=seed)
    target = "bonus"

    # replay the stream: versions arrive one by one, each arrival re-audits
    store = TimelineStore(key="name")
    store.append("v1", full_store.checkout("v1"))
    session = EngineSession(config)
    refreshes = []
    cold_total = 0.0
    warm_total = 0.0
    final = None
    for version in list(full_store)[1:]:
        store.append(version.name, version.table)
        cold_rankings, cold_stats, cold_seconds = _cold_refresh(store, target, config)
        started = time.perf_counter()
        timeline_result = session.summarize_timeline(store, target)
        warm_seconds = time.perf_counter() - started
        identical = timeline_result.rankings() == cold_rankings
        result_hits = sum(hop.stats.result_hits for hop in timeline_result.hops if hop.stats)
        cold_total += cold_seconds
        warm_total += warm_seconds
        refreshes.append(
            {
                "arrived": version.name,
                "hops": len(store) - 1,
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "rankings_identical": identical,
                "result_hits": result_hits,
            }
        )
        final = {
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else None,
            "warm_faster_than_cold": warm_seconds < cold_seconds,
            "rankings_identical": identical,
            "per_hop_stats": [
                hop.stats.as_dict() if hop.stats else None for hop in timeline_result.hops
            ],
            "per_hop_cold_stats": [s.as_dict() if s else None for s in cold_stats],
        }

    counters = session.cache_counters()
    return {
        "experiment": "incremental_timeline",
        "rows": rows,
        "versions": versions,
        "seed": seed,
        "policies": [policy.name for policy in policies],
        "refreshes": refreshes,
        "cold_total_seconds": cold_total,
        "warm_total_seconds": warm_total,
        "speedup": cold_total / warm_total if warm_total > 0 else None,
        "final_chain": final,
        "session": {
            "runs_completed": session.runs_completed,
            "result_hits": sum(refresh["result_hits"] for refresh in refreshes),
            "cache_hit_rate": counters.hit_rate,
            "cache_hits": counters.hits,
            "cache_misses": counters.misses,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cold vs warm incremental timeline benchmark")
    parser.add_argument("--rows", type=int, default=2_000, help="entities per version")
    parser.add_argument("--versions", type=int, default=4, help="versions in the chain")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI (overrides --rows to 250)")
    parser.add_argument("--output", type=Path, default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    rows = 250 if args.smoke else args.rows

    report = run_benchmark(rows, args.versions, args.seed, CharlesConfig())
    report["smoke"] = args.smoke
    text = json.dumps(_stamp(report), indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)

    # deterministic contract points fail the run (and CI); the wall-clock
    # comparison is recorded in the JSON but only enforced outside smoke mode,
    # where a noisy shared runner must not be able to redden a build
    failures = []
    if not all(refresh["rankings_identical"] for refresh in report["refreshes"]):
        failures.append("warm rankings diverged from cold rankings")
    if not report["session"]["cache_hit_rate"] > 0:
        failures.append("warm session recorded no cache hits")
    if not report["final_chain"]["warm_faster_than_cold"]:
        message = (
            "warm full-chain run was not faster than cold per-pair runs "
            f"({report['final_chain']['warm_seconds']:.2f}s vs "
            f"{report['final_chain']['cold_seconds']:.2f}s)"
        )
        if args.smoke:
            print(f"WARN: {message}", file=sys.stderr)
        else:
            failures.append(message)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
