"""One engine process of the in-process workloads (and every reference run).

Reads a JSON job on stdin, runs it, and prints one JSON line on stdout::

    {"setup_s": ..., "wall_s": ..., "reads": [...], "writes": [...],
     "digests": [...], "failures": [...], "rss_mb": ..., "layers": {...},
     "raw_setup_s": ..., "raw": {"wall_s": ..., "reads": [...], "writes": [...]},
     "probes": [...]}

Times are in seconds at the reference speed (``host.py``): a host probe
follows each op, the probes nearest an op scale it, and probes right after
the set-up scale the set-up.  ``raw`` and ``raw_setup_s`` hold the same
times as the clock read them.

With ``"mode": "setup"`` it stops once the first op could be issued; with
``"mode": "run"`` it runs the op sequence (a reference run is the same job
started under another hash seed).  ``run.py`` starts this file; it is not
meant to be run by hand.
"""

import json
import sys
import time

import host

JOB = json.loads(sys.stdin.read())
host.compile_program_from_source()
# the set-up clock starts in a fresh interpreter, before `import repro`
SETUP_START = time.perf_counter()

import contextlib  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from repro import Charles, CharlesConfig, EngineSession, SnapshotPair, TimelineStore  # noqa: E402
from repro.relational.csv_io import read_csv_text  # noqa: E402

from common import KEY, TARGET, digest_result  # noqa: E402

perf_counter = time.perf_counter


def _config(job) -> CharlesConfig:
    return CharlesConfig(**job.get("config", {}))


def _shortlists(job) -> dict:
    condition, transformation = job["shortlists"]
    return {"condition_attributes": condition, "transformation_attributes": transformation}


class PairOps:
    """pair-cold: each op loads, aligns and summarizes one pair."""

    def __init__(self, job):
        self.config = _config(job)
        self.shortlists = _shortlists(job)
        self.pairs = job["pairs"]

    def ops(self):
        for source_text, target_text in self.pairs:
            yield self._write(source_text, target_text), self._read

    @staticmethod
    def _write(source_text, target_text):
        def write():
            source = read_csv_text(source_text, primary_key=KEY)
            target = read_csv_text(target_text, primary_key=KEY)
            return SnapshotPair.align(source, target, key=KEY)

        return write

    def _read(self, pair):
        return Charles(self.config).summarize_pair(pair, TARGET, **self.shortlists)

    def close(self):
        pass


class ChainOps:
    """timeline-refresh: append the next version, then summarize the newest hop."""

    def __init__(self, job):
        self.chain = job["chain"]
        self.shortlists = _shortlists(job)
        self.session = EngineSession(_config(job))
        self.store = TimelineStore(key=KEY)
        # the first version is input the ops do not load themselves: set-up
        self.store.append("v1", read_csv_text(self.chain[0], primary_key=KEY))

    def ops(self):
        for index, text in enumerate(self.chain[1:], start=2):
            yield self._write(index, text), self._read

    def _write(self, index, text):
        def write():
            self.store.append(f"v{index}", read_csv_text(text, primary_key=KEY))
            # what the new version changed, as `charles timeline` computes per hop
            self.store.delta(f"v{index - 1}", f"v{index}")
            return index

        return write

    def _read(self, index):
        return self.session.summarize_pair(
            self.store.pair(f"v{index - 1}", f"v{index}"), TARGET, **self.shortlists
        )

    def close(self):
        self.session.close()


def run(job) -> dict:
    recorder = None
    if job.get("trace"):
        import tracing

        recorder = tracing.install()
    workload = PairOps(job) if "pairs" in job else ChainOps(job)
    raw_setup = perf_counter() - SETUP_START
    # the probe needs numpy, so the set-up is scaled by probes after it
    before = host.probe(runs=2)
    report = {"setup_s": raw_setup * host.scale(before), "raw_setup_s": raw_setup}
    if job["mode"] == "setup":
        workload.close()
        return report

    raw_reads, raw_writes, intervals = [], [], []
    digests, failures, probes = [], [], [before]
    if recorder is not None:
        recorder.reset()
    root = recorder.span if recorder is not None else contextlib.nullcontext
    for write, read in workload.ops():
        try:
            with root():
                started = perf_counter()
                loaded = write()
                written = perf_counter()
                result = read(loaded)
                finished = perf_counter()
        except Exception:  # an op that raises is a failed op, not a crash
            failures.append(traceback.format_exc(limit=4))
            digests.append(None)
            continue
        finally:
            probes.append(host.probe())
        raw_writes.append(written - started)
        raw_reads.append(finished - written)
        intervals.append(len(probes) - 2)
        digests.append(digest_result(result))
    workload.close()

    scales = host.scales(probes)
    factors = [scales[interval] for interval in intervals]
    reads = [seconds * factor for seconds, factor in zip(raw_reads, factors)]
    writes = [seconds * factor for seconds, factor in zip(raw_writes, factors)]
    raw = {"wall_s": sum(raw_reads) + sum(raw_writes), "reads": raw_reads, "writes": raw_writes}
    report.update(wall_s=sum(reads) + sum(writes), reads=reads, writes=writes, digests=digests,
                  failures=failures, raw=raw, probes=probes)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.restore()
        sessions = recorder.seen["session"].values()
        extra = {"warm_fallbacks": sum(s.warm_start_fallbacks for s in sessions)}
        report["layers"] = tracing.layer_metrics(recorder.merged(), extra)
    return report


if __name__ == "__main__":
    print(json.dumps(run(JOB)))
