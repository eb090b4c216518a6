"""The serve-fabric workload's processes.

``python3 fabric.py shard`` runs one loopback ``AsyncCacheServer`` (the
``charles cache-server`` default) and prints its ``host:port`` once it
listens.  ``python3 fabric.py server CACHE_URL [--trace]`` runs the
``charles serve`` front door: a ``ServingServer`` whose sessions use the
shards at ``CACHE_URL`` as a ``remote`` cache fabric.  It prints one JSON line
once it listens, then obeys commands on stdin, one per line: ``reset``
(start of the timed phase) and ``dump <json>`` (print memory, and with
``--trace`` the layer metrics).  Shards and server stop at the end of their
input.

``python3 fabric.py client`` is the load: one closed-loop keep-alive client
per tenant.  The job arrives as the first stdin line.  It opens a session
per tenant and uploads the first version (set-up), prints a ready line,
waits for ``go``, then walks the chain.  Per hop both clients upload the
version (write) and, when the hop changed the target, ask for a summary
(read).  A barrier releases both tenants' requests together, so their
identical summarize requests are in flight at once and the server
deduplicates them.  ``run.py`` starts every process.

Like ``engine.py``, every process reports its times in seconds at the
reference speed of ``host.py`` and adds the clock's readings under ``raw``:
the barrier that starts each hop probes the host on both CPUs
(:class:`BothCpus`), and each hop's latencies are scaled by the probes
nearest it.
"""

import json
import sys
import time

import host

host.compile_program_from_source()
SETUP_START = time.perf_counter()

import http.client  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

from common import KEY, TARGET, digest_rankings  # noqa: E402

perf_counter = time.perf_counter

TENANTS = ("tenant-a", "tenant-b")


# -- server ------------------------------------------------------------------------


def shard() -> None:
    from repro.cacheserver.aserver import AsyncCacheServer

    server = AsyncCacheServer().start()
    print(json.dumps(dict(url=server.url, **_boot_times())), flush=True)
    sys.stdin.read()
    server.shutdown()


def serve(cache_url: str, trace: bool) -> None:
    from repro.core import ServingConfig
    from repro.serving import ServingServer

    recorder = None
    if trace:
        import tracing

        recorder = tracing.install()
    shards = cache_url.split(",")
    server = ServingServer(
        serving=ServingConfig(),
        infra={"cache_backend": "remote", "cache_url": cache_url},
    ).start()
    print(json.dumps(dict(url=server.url, **_boot_times())), flush=True)

    baseline = [0, 0]
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "reset":
            if recorder is not None:
                recorder.reset()
            baseline = _shard_counts(shards)
            print("{}", flush=True)
        elif command == "dump":
            report = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if recorder is not None:
                report["layers"] = _layers(
                    recorder, server, json.loads(argument),
                    _shard_counts(shards), baseline,
                )
            print(json.dumps(report), flush=True)
    server.stop()
    if recorder is not None:
        recorder.restore()


def _boot_times() -> dict:
    """This process's time from start to ready, scaled and raw."""
    raw = perf_counter() - SETUP_START
    return {"boot_s": raw * host.scale(host.probe(runs=2)), "raw_boot_s": raw}


def _shard_counts(shards) -> list[int]:
    """Hits and misses summed over every region of every shard (``STATS``)."""
    from repro.cacheserver.client import server_stats

    hits = misses = 0
    for url in shards:
        for region in server_stats(url)["regions"].values():
            hits += region["hits"]
            misses += region["misses"]
    return [hits, misses]


def _layers(recorder, server, client, shard_counts, baseline) -> dict:
    """Layer metrics of the timed phase; ``client`` carries its op latencies."""
    import tracing

    merged = recorder.merged()
    roots, totals, counts = merged["root_s"], merged["total_s"], merged["counts"]
    # the engine time a summarize request waited on: its own flight for a
    # leader, the flight it rode for a deduplicated follower
    summarize_engine = totals["serving.flight"]
    advance_engine = roots["relational.parse"] + roots["timeline.append"]
    requests = counts["serving.leaders"] + counts["serving.followers"]
    hits, misses = (now - then for now, then in zip(shard_counts, baseline))
    fabrics = recorder.seen["fabric"].values()
    admission = server.service.admission.snapshot().values()
    extra = {
        "op_s": client["read_s"] + client["write_s"],
        # engine work done once for a leader and waited on by its follower
        "dedup_shared_s": totals["serving.flight.followers"],
        "serving": {
            "summarize.engine_s": summarize_engine,
            "summarize.overhead_s": client["read_s"] - summarize_engine,
            "advance.engine_s": advance_engine,
            "admission_wait_s": totals["serving.admission_wait"],
            "dedup_ratio": counts["serving.followers"] / requests if requests else 0.0,
            "shed": sum(state["shed"] for state in admission),
            # request latency minus the engine work it waited on: HTTP,
            # admission, locks and loopback network
            "self_s": client["read_s"] - summarize_engine + client["write_s"] - advance_engine,
        },
        "shard_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "connection_failures": sum(fabric.connection_failures for fabric in fabrics),
        "warm_fallbacks": sum(s.warm_start_fallbacks for s in recorder.seen["session"].values()),
    }
    return tracing.layer_metrics(merged, extra)


# -- client ------------------------------------------------------------------------


class Tenant:
    """One tenant's keep-alive connection and session."""

    def __init__(self, name: str, hostname: str, port: int):
        self.name = name
        self.connection = http.client.HTTPConnection(hostname, port, timeout=120)
        self.session = None
        self.reads, self.writes, self.digests, self.failures = [], [], [], []

    def request(self, method: str, path: str, payload=None) -> dict:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"X-Charles-Tenant": self.name}
        if body is not None:
            headers["Content-Type"] = "application/json"
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        if not 200 <= response.status < 300:
            raise RuntimeError(f"{method} {path} -> {response.status}: {data[:200]!r}")
        return json.loads(data or b"{}")

    def open(self, config: dict, first_csv: str) -> None:
        self.session = self.request("POST", "/v1/sessions", {"key": KEY, "config": config})["session"]
        self.advance("v1", first_csv)

    def advance(self, version: str, csv_text: str) -> None:
        self.request("POST", f"/v1/sessions/{self.session}/advance",
                     {"version": version, "csv": csv_text})

    def summarize(self, shortlists) -> str:
        condition, transformation = shortlists
        body = self.request("POST", f"/v1/sessions/{self.session}/summarize", {
            "target": TARGET,
            "condition_attributes": condition,
            "transformation_attributes": transformation,
        })
        return digest_rankings((entry["summary"], entry["score"]) for entry in body["rankings"])

    def walk(self, job: dict, hop_start: threading.Barrier, release: threading.Barrier) -> None:
        """Upload every version and summarize the hops asked for; latencies by hop."""
        steps = zip(job["chain"][1:], job["summarize"])
        for hop, (text, summarize) in enumerate(steps):
            try:
                hop_start.wait()
                started = perf_counter()
                self.advance(f"v{hop + 2}", text)
                self.writes.append((hop, perf_counter() - started))
                if not summarize:
                    continue
                release.wait()
                started = perf_counter()
                digest = self.summarize(job["shortlists"])
                self.reads.append((hop, perf_counter() - started))
                self.digests.append(digest)
            except Exception:  # a failed request is a failed op, not a crash
                self.failures.append(traceback.format_exc(limit=4))
                self.digests.append(None)
                # release the other client: the run is already failed
                hop_start.abort()
                release.abort()
                return

    def close(self) -> None:
        if self.session is not None:
            self.request("DELETE", f"/v1/sessions/{self.session}")
        self.connection.close()


class BothCpus:
    """Probes the host on two CPUs at once: here and in a helper process.

    Served work keeps both CPUs busy (server, shards, client), so it runs at
    about the mean speed of the two.  A probe on one CPU misses a slowdown of
    the other, and the served reads then slow more than the probe shows.
    """

    def __init__(self):
        self.helper = subprocess.Popen(
            [sys.executable, __file__, "probe"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.helper.stdout.readline()  # warmed up

    def probe(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        here = host.probe()
        return (here + float(self.helper.stdout.readline())) / 2.0

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()


def probe_helper() -> None:
    """The helper of :class:`BothCpus`: one probe per line of input."""
    print(host.probe(runs=2), flush=True)
    for _ in sys.stdin:
        print(host.probe(), flush=True)


def load() -> None:
    job = json.loads(sys.stdin.readline())
    started = perf_counter()
    hostname, port = job["url"].split("//", 1)[1].rsplit(":", 1)
    tenants = [Tenant(name, hostname, int(port)) for name in TENANTS]
    for tenant in tenants:
        tenant.open(job["config"], job["chain"][0])
    raw_setup = perf_counter() - started
    setup = raw_setup * host.scale(host.probe(runs=2))
    print(json.dumps({"setup_s": setup, "raw_setup_s": raw_setup}), flush=True)
    # "go" means the server has reset its counters; end of input means stop
    if job["mode"] == "setup" or not sys.stdin.readline():
        for tenant in tenants:
            tenant.close()
        return

    # every hop starts with a host probe while no request is in flight;
    # hop h runs from marks[h][1] to marks[h + 1][0]
    probes, marks = [], []
    both_cpus = BothCpus()

    def start_hop() -> None:
        ended = perf_counter()
        probes.append(both_cpus.probe())
        marks.append((ended, perf_counter()))

    hop_start = threading.Barrier(len(tenants), action=start_hop)
    release = threading.Barrier(len(tenants))
    threads = [
        threading.Thread(target=tenant.walk, args=(job, hop_start, release))
        for tenant in tenants
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    start_hop()
    both_cpus.close()
    for tenant in tenants:
        tenant.close()
    factors = host.scales(probes)
    durations = [end[0] - begin[1] for begin, end in zip(marks, marks[1:])]

    def scaled(samples):
        return [seconds * factors[hop] for hop, seconds in samples]

    def raw(samples):
        return [seconds for _, seconds in samples]

    print(json.dumps({
        "wall_s": sum(d * f for d, f in zip(durations, factors)),
        "reads": [v for tenant in tenants for v in scaled(tenant.reads)],
        "writes": [v for tenant in tenants for v in scaled(tenant.writes)],
        "digests": {tenant.name: tenant.digests for tenant in tenants},
        "failures": [value for tenant in tenants for value in tenant.failures],
        "raw": {
            "wall_s": sum(durations),
            "reads": [v for tenant in tenants for v in raw(tenant.reads)],
            "writes": [v for tenant in tenants for v in raw(tenant.writes)],
        },
        "probes": probes,
    }), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "shard":
        shard()
    elif sys.argv[1] == "server":
        serve(sys.argv[2], "--trace" in sys.argv[3:])
    elif sys.argv[1] == "probe":
        probe_helper()
    else:
        load()
