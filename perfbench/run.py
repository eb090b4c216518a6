"""ChARLES end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pair-cold --seed 1 --seconds 12 --trace 0

The workloads, their metrics and the layer table are described in
``perfbench/README.md``.  With ``--trace 0`` the last line of standard output
is a JSON object carrying the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run.  Lines before it name every
metric with its unit, and a provenance-stamped report goes to standard error.
Any ranking that differs from the direct serial reference, any exception and
any non-2xx response is a failed op, and a failed op makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import host
import inputs
from common import LIGHT_CONFIG, SERVE_CONFIG, SERVE_SHORTLISTS, SHORTLISTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: every BLAS/OpenMP pool numpy may start is pinned to one thread, so numpy
#: never oversubscribes the cores next to pool workers and server threads
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

#: fresh interpreters whose set-up time is measured; the median is reported
SETUP_SAMPLES = 7
#: hash seeds of the measured processes and of the reference process
HASH_SEED, TRACED_HASH_SEED, REFERENCE_HASH_SEED = 0, 1, 2
CHILD_TIMEOUT_S = 170
#: cache shards behind the served workload
SHARDS = 2

#: name -> (input kind, rows, nominal seconds per op, engine configuration).
#: The op count of a run is ``--seconds`` over the nominal cost, so a run
#: measures about ``--seconds`` and a given ``--seconds`` always yields the
#: same op sequence.
WORKLOADS = {
    "pair-cold": ("pairs", 500, 1.0, {}),
    "timeline-refresh": ("chain", 500, 0.27, LIGHT_CONFIG),
    "serve-fabric": ("chain", 500, 0.4, SERVE_CONFIG),
}

#: the end-to-end metrics of the JSON result (BENCHMARK.json lists them)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))


class BenchmarkError(RuntimeError):
    """A process of the benchmark failed (not an op of the program)."""


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # children compile the program from source (host.py) and leave no
    # bytecode behind, so every set-up does the same work
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({name: "1" for name in THREAD_VARS})
    return env


def last_json(text: str, who: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchmarkError(f"{who} printed no result")
    return json.loads(lines[-1])


def run_engine(job: dict, hash_seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "engine.py")],
        input=json.dumps(job), capture_output=True, text=True,
        env=child_env(hash_seed), timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if completed.returncode != 0:
        raise BenchmarkError(f"engine process failed:\n{completed.stderr[-2000:]}")
    return last_json(completed.stdout, "engine process")


# -- inputs ----------------------------------------------------------------------------


def make_job(workload: str, seed: int, seconds: int) -> dict:
    kind, rows, op_cost, config = WORKLOADS[workload]
    ops = max(1, round(seconds / op_cost))
    job = {"mode": "run", "config": config, "shortlists": SHORTLISTS}
    if kind == "pairs":
        return dict(job, pairs=inputs.pairs(seed, ops, rows))
    job["chain"] = inputs.chain(seed, ops + 1, rows)
    if workload == "serve-fabric":
        # tenants ask for a summary only when a hop changed the bonus, as an
        # auditor watching the bonus would; a hop that did not is answered in
        # milliseconds, too fast for two clients to overlap reliably
        job["summarize"] = [inputs.touches_target(hop) for hop in range(ops)]
        job["shortlists"] = SERVE_SHORTLISTS
    return job


# -- in-process workloads --------------------------------------------------------------


def in_process(job: dict, trace: bool) -> dict:
    """Both in-process workloads' measured ops are direct serial runs."""
    if trace:
        # the untraced run is the traced run's reference (other hash seed)
        measured = run_engine(job, HASH_SEED)
        traced = run_engine(dict(job, trace=True), TRACED_HASH_SEED)
        return {"measured": measured, "traced": traced, "reference": measured["digests"],
                "runs": [measured, traced]}
    setups = [run_engine(dict(job, mode="setup"), HASH_SEED) for _ in range(SETUP_SAMPLES - 1)]
    measured = run_engine(job, HASH_SEED)
    setups.append(measured)
    reference = run_engine(job, REFERENCE_HASH_SEED)
    return {"measured": measured, "setups": setups, "reference": reference["digests"],
            "runs": [measured]}


# -- serve-fabric ----------------------------------------------------------------------


class ServeRun:
    """Two shard processes, a server and a load client, reaped on exit."""

    def __init__(self, job: dict, trace: bool, hash_seed: int):
        self.job, self.trace = job, trace
        self.env = child_env(hash_seed)
        self.shards: list[subprocess.Popen] = []
        self.server = self.client = None

    def _spawn(self, *args: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, str(HERE / "fabric.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=self.env, cwd=ROOT,
        )

    @staticmethod
    def _read(process: subprocess.Popen, who: str) -> dict:
        line = process.stdout.readline()
        if not line:
            raise BenchmarkError(f"{who} exited early (code {process.wait()})")
        return json.loads(line)

    @staticmethod
    def _send(process: subprocess.Popen, line: str) -> None:
        process.stdin.write(line + "\n")
        process.stdin.flush()

    def __enter__(self) -> "ServeRun":
        return self

    def run(self, mode: str) -> dict:
        self.shards = [self._spawn("shard") for _ in range(SHARDS)]
        shards = [self._read(shard, "cache shard") for shard in self.shards]
        cache_url = ",".join(shard["url"] for shard in shards)
        self.server = self._spawn("server", cache_url, *(["--trace"] if self.trace else []))
        boot = self._read(self.server, "server")
        self.client = self._spawn("client")
        self._send(self.client, json.dumps(dict(self.job, mode=mode, url=boot["url"])))
        # shards boot side by side, then the server, then the client opens sessions
        client = self._read(self.client, "load client")
        setup = {
            "setup_s": (max(shard["boot_s"] for shard in shards) + boot["boot_s"]
                        + client["setup_s"]),
            "raw_setup_s": (max(shard["raw_boot_s"] for shard in shards) + boot["raw_boot_s"]
                            + client["raw_setup_s"]),
        }
        if mode == "setup":
            return setup
        self._send(self.server, "reset")
        self._read(self.server, "server")
        self._send(self.client, "go")
        result = self._read(self.client, "load client")
        # layer spans are clock readings, so the accounting uses raw latencies
        totals = {"read_s": sum(result["raw"]["reads"]), "write_s": sum(result["raw"]["writes"])}
        self._send(self.server, "dump " + json.dumps(totals))
        result.update(self._read(self.server, "server"), **setup)
        return result

    def __exit__(self, *exc_info) -> None:
        # end of input stops both: the server leaves its command loop, a
        # client still waiting for "go" gives up
        processes = [p for p in (self.client, self.server, *self.shards) if p is not None]
        for process in processes:
            process.stdin.close()
        for process in processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()


def serve_once(job: dict, mode: str, trace: bool = False, hash_seed: int = HASH_SEED) -> dict:
    with ServeRun(job, trace, hash_seed) as serve_run:
        return serve_run.run(mode)


def served(job: dict, trace: bool) -> dict:
    reference = run_engine(job, REFERENCE_HASH_SEED)["digests"]
    reference = [digest for digest, asked in zip(reference, job["summarize"]) if asked]
    if trace:
        measured = serve_once(job, "run")
        traced = serve_once(job, "run", trace=True, hash_seed=TRACED_HASH_SEED)
        return {"measured": measured, "traced": traced, "reference": reference,
                "runs": [measured, traced]}
    setups = [serve_once(job, "setup") for _ in range(SETUP_SAMPLES - 1)]
    measured = serve_once(job, "run")
    setups.append(measured)
    return {"measured": measured, "setups": setups, "reference": reference,
            "runs": [measured]}


# -- checking and reporting ------------------------------------------------------------


def check(runs: list[dict], reference: list) -> tuple[int, int]:
    """``(attempted, failed)`` over every op of ``runs`` against the reference."""
    attempted = failed = 0
    for run in runs:
        digests = run["digests"]
        streams = digests.values() if isinstance(digests, dict) else [digests]
        for stream in streams:
            attempted += len(reference)
            failed += sum(1 for got, want in zip(stream, reference) if got is None or got != want)
            failed += max(0, len(reference) - len(stream))
        for failure in run["failures"]:
            print(failure, file=sys.stderr)
    return attempted, failed


def end_to_end(outcome: dict) -> dict[str, tuple[float, str]]:
    measured = outcome["measured"]
    values = {
        "setup_s": statistics.median(setup["setup_s"] for setup in outcome["setups"]),
        "wall_s": measured["wall_s"],
        "op_p50_s": statistics.median(measured["reads"]),
        "peak_rss_mb": measured["rss_mb"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def report_only(outcome: dict, attempted: int, failed: int) -> dict[str, tuple[float, str]]:
    """End-to-end figures printed for people but left out of the JSON result.

    ``error_rate`` is zero whenever the result counts, the write path's
    ~10 ms ops swing twice over with the host's state, and a 90th
    percentile needs ten samples beyond it; see README.md.  The ``raw_``
    figures are the gated times as the clock read them, before scaling to
    the reference speed.
    """
    measured = outcome["measured"]
    reads, writes, raw = measured["reads"], measured["writes"], measured["raw"]
    extra = {
        "error_rate": (failed / attempted, "ratio"),
        "write_p50_s": (statistics.median(writes), "s"),
        "read_samples": (len(reads), "count"),
        "write_samples": (len(writes), "count"),
        "raw_setup_s": (statistics.median(setup["raw_setup_s"] for setup in outcome["setups"]), "s"),
        "raw_wall_s": (raw["wall_s"], "s"),
        "raw_op_p50_s": (statistics.median(raw["reads"]), "s"),
        "host_probe_s": (statistics.median(measured["probes"]), "s"),
    }
    if len(reads) >= 100:  # at least ten samples lie beyond the 90th percentile
        extra["op_p90_s"] = (statistics.quantiles(reads, n=10)[-1], "s")
    return extra


def stamp(report: dict) -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from _meta import stamp as meta_stamp

    return meta_stamp(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ChARLES end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    job = make_job(args.workload, args.seed, args.seconds)
    if args.workload == "serve-fabric":
        outcome = served(job, trace)
    else:
        outcome = in_process(job, trace)
    attempted, failed = check(outcome["runs"], outcome["reference"])

    if trace:
        traced = outcome["traced"]
        metrics = {name: tuple(value) for name, value in traced["layers"].items()}
        overhead = traced["wall_s"] / outcome["measured"]["wall_s"] - 1.0
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        extra = {}
    else:
        metrics = end_to_end(outcome)
        extra = report_only(outcome, attempted, failed)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:<17} {name:<34} {value:>14.6g} {unit}")
    settings = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "ops": len(job.get("pairs") or job["chain"][1:]),
        "clients": 2 if args.workload == "serve-fabric" else 1,
        "threads": {name: "1" for name in THREAD_VARS},
        "bytecode_cache": False,
        "reference_probe_s": host.REFERENCE_S,
        "hash_seeds": {"measured": HASH_SEED, "traced": TRACED_HASH_SEED,
                       "reference": REFERENCE_HASH_SEED},
    }
    report = {
        "settings": settings,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "report_only": {name: {"value": value, "unit": unit} for name, (value, unit) in extra.items()},
        "attempted": attempted, "failed": failed,
    }
    if not trace:
        report["setup_samples_s"] = [setup["setup_s"] for setup in outcome["setups"]]
    print(json.dumps(stamp(report), indent=2), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
