"""Bound-planning benchmark: the default bound-pruned search vs exhaustive search.

Models the serving pattern the bound layer (:mod:`repro.search.bounds`)
exists for: a wide snapshot pair where the
change is explained by a *small* subset of the shortlisted attributes, so
most candidate specs read unions that provably cannot reproduce the new
values.  Without bounds the search pays partition discovery — the dominant
cost — for every one of them; with bounds a single vectorised grouping pass
over the pair state skips them before discovery ever runs.

The workload is quantised on purpose: the old bonus is a coarse function of
grade and the policy rewrites it for two department-and-region slices only,
so any spec union missing ``dept`` or ``region`` groups each changed row
with a majority of untouched twins — the group median is the old value, the
residual floor approaches the whole baseline, and the union's score bound
collapses toward ``1 - alpha``.  The two-slice shape matters for *when*
pruning can start: a global rule's score is itself bounded by its T-only
union bound, so the round-0 floor can never exceed a bad union's bound; the
floor has to jump in an early partitioned round instead.  Here a two-rule
summary already captures the policy exactly, so round ``n=2`` lifts the
floor above every bad union's bound and the expensive ``n=3``/``n=4``
rounds prune them all before discovery.

Three arms summarise the identical pair from cold caches:

* ``off`` — ``prune_search=False``: exhaustive search, the one configuration
  that computes no pre-discovery bounds (bound pruning has no switch of its
  own, so this is the baseline left to measure against);
* ``bounds`` — the default configuration (serial, bound pruning on);
* ``parallel`` — the default configuration with ``n_jobs=2``, so each round
  runs as contiguous worker chunks (its wall clock is recorded for
  information — process-pool dispatch is too noisy for a CI-enforced ratio).

The run enforces the layer's contract points and records them in a
machine-readable JSON report (like ``bench_incremental.py``):

* rankings are byte-identical across all three arms;
* the bounds arm prunes specs before discovery
  (``candidates_pruned_spec_bounds > 0``) and those specs really never
  invoked discovery: the exhaustive off-arm's partition-cache lookups exceed
  the bounds-arm's by at least the pruned-spec count;
* the bounds arm beats the off arm by at least 1.5x wall clock (enforced
  outside smoke mode; recorded always).

Run it directly (pytest is not involved, so CI can execute it in smoke mode
without extra dependencies)::

    PYTHONPATH=src python benchmarks/bench_bound_planning.py --smoke --output bench_bound_planning.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import Charles, CharlesConfig
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table

try:
    from _meta import stamp as _stamp
except ImportError:  # imported as a module (pytest, spawn workers), not run directly
    def _stamp(report):
        return report


_DEPARTMENTS = ["ENG", "FIN", "OPS", "POL"]
_REGIONS = ["N", "S", "W"]
_TEAMS = ["alpha", "beta", "gamma", "delta", "epsilon"]


def _build_pair(rows: int, seed: int) -> SnapshotPair:
    """A quantised snapshot pair whose policy reads ``dept`` and ``region``.

    The old bonus is exactly ``grade * 1000`` (five distinct levels) and
    salary is a pure function of grade, so grouping by any attribute union
    plus the source target collapses rows into a handful of fingerprint
    groups.  The policy touches exactly two department-and-region slices —
    POL/W gets ``2 * bonus + 5000``, FIN/S gets ``0.5 * bonus`` — leaving a
    zero residual floor only for unions containing both attributes, while a
    two-rule summary reproduces it exactly.  ``team``, ``tenure`` and
    ``age`` are plausible but irrelevant attributes that widen the plan
    with prunable specs, the way a real audit's shortlists do.
    """
    rng = np.random.default_rng(seed)
    dept = rng.choice(_DEPARTMENTS, size=rows).tolist()
    region = rng.choice(_REGIONS, size=rows).tolist()
    team = rng.choice(_TEAMS, size=rows).tolist()
    grade = rng.integers(1, 6, size=rows)
    tenure = rng.integers(0, 21, size=rows).astype(float)
    age = rng.integers(21, 66, size=rows).astype(float)
    salary = 40_000.0 + grade * 5_000.0
    bonus = grade.astype(float) * 1_000.0
    records = [
        {
            "id": f"e{i}",
            "dept": dept[i],
            "region": region[i],
            "team": team[i],
            "grade": float(grade[i]),
            "tenure": float(tenure[i]),
            "age": float(age[i]),
            "salary": float(salary[i]),
            "bonus": float(bonus[i]),
        }
        for i in range(rows)
    ]
    source = Table.from_rows(records, primary_key="id")
    pol_w = np.array([d == "POL" and r == "W" for d, r in zip(dept, region)])
    fin_s = np.array([d == "FIN" and r == "S" for d, r in zip(dept, region)])
    new_bonus = bonus.copy()
    new_bonus[pol_w] = np.round(new_bonus[pol_w] * 2.0 + 5_000.0, 2)
    new_bonus[fin_s] = np.round(new_bonus[fin_s] * 0.5, 2)
    target = source.with_column("bonus", [float(b) for b in new_bonus])
    return SnapshotPair.align(source, target, key="id")


def _ranking(result):
    return [(s.summary.describe(), s.score) for s in result.summaries]


def _partition_lookups(stats) -> int:
    return stats.partition_cache_hits + stats.partition_cache_misses


def _run_arm(pair: SnapshotPair, config: CharlesConfig) -> dict:
    started = time.perf_counter()
    result = Charles(config).summarize_pair(
        pair,
        "bonus",
        condition_attributes=["dept", "region", "grade", "team"],
        transformation_attributes=["bonus", "salary", "tenure", "age"],
    )
    seconds = time.perf_counter() - started
    stats = result.search_stats
    return {
        "seconds": seconds,
        "ranking": _ranking(result),
        "partition_lookups": _partition_lookups(stats),
        "stats": stats.as_dict(),
    }


def run_benchmark(rows: int, seed: int, config: CharlesConfig) -> dict:
    pair = _build_pair(rows, seed)
    arms = {
        "off": config.replace(prune_search=False),
        "bounds": config,
        "parallel": config.replace(n_jobs=2),
    }
    report_arms = {name: _run_arm(pair, arm_config) for name, arm_config in arms.items()}

    off = report_arms["off"]
    bounds = report_arms["bounds"]
    speedup = off["seconds"] / bounds["seconds"] if bounds["seconds"] > 0 else None
    pruned = bounds["stats"]["candidates_pruned_spec_bounds"]
    report = {
        "experiment": "bound_planning",
        "rows": rows,
        "seed": seed,
        "arms": {
            name: {key: value for key, value in arm.items() if key != "ranking"}
            for name, arm in report_arms.items()
        },
        "rankings_identical": (
            bounds["ranking"] == off["ranking"]
            and report_arms["parallel"]["ranking"] == off["ranking"]
        ),
        "spec_bound_pruned": pruned,
        "partition_lookups_saved": off["partition_lookups"] - bounds["partition_lookups"],
        "speedup_bounds_vs_off": speedup,
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="the default bound-pruned search vs exhaustive search"
    )
    parser.add_argument("--rows", type=int, default=4_000, help="entities in the snapshot")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI (overrides --rows to 600)")
    parser.add_argument("--output", type=Path, default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    rows = 600 if args.smoke else args.rows

    # accuracy-weighted scoring (every arm shares it): with the default
    # alpha=0.5 the interpretability half alone puts every bound at >= 0.5,
    # so an admissible bound can only rarely undercut the floor; at 0.8 the
    # quantised workload's irrelevant unions bound near 0.2 and prune early
    report = run_benchmark(rows, args.seed, CharlesConfig(alpha=0.8, top_k=5))
    report["smoke"] = args.smoke
    text = json.dumps(_stamp(report), indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=sys.stderr)

    # deterministic contract points fail the run (and CI); the wall-clock
    # contract is recorded in the JSON but only enforced outside smoke mode,
    # where a noisy shared runner must not be able to redden a build
    failures = []
    if not report["rankings_identical"]:
        failures.append("bound-pruned/parallel rankings diverged from the exhaustive arm")
    if report["spec_bound_pruned"] <= 0:
        failures.append("bound pruning never skipped a spec before discovery")
    if report["partition_lookups_saved"] < report["spec_bound_pruned"]:
        failures.append(
            "pruned specs still reached partition discovery "
            f"(saved {report['partition_lookups_saved']} lookups for "
            f"{report['spec_bound_pruned']} pruned specs)"
        )
    speedup = report["speedup_bounds_vs_off"]
    if not args.smoke and (speedup is None or speedup < 1.5):
        failures.append(f"bounds arm speedup {speedup} is below the 1.5x contract")
    elif args.smoke and (speedup is None or speedup < 1.5):
        print(f"WARN: smoke-mode speedup {speedup} below 1.5x (not enforced)",
              file=sys.stderr)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
