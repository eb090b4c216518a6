"""Layer tracing installed from outside the program.

:func:`install` replaces each layer's public functions with timing wrappers
and returns a :class:`Recorder`; :meth:`Recorder.restore` puts every original
object back.  A function is patched wherever callers look it up: a method on
the class that defines it, a module-level function in every loaded module
that holds it (so names brought in with ``from ... import`` are covered too).
A module imported after :func:`install` binds the wrapper from the module
that defines it; :meth:`Recorder.restore` finds and reverts those bindings
too.

Spans nest per thread.  A span's self time is its duration minus the time of
the wrapped spans it encloses, so on each thread the self times of the
outermost span and everything under it add up to the outermost duration.
Spans are aggregated in memory per name and read out when the run ends.
Coroutines (the serving front door) cannot nest on a thread stack, since
requests interleave on one event loop; they record durations only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import defaultdict
from importlib import import_module
from time import perf_counter

#: (span name, module, qualified name) of every wrapped function; the layer
#: is the span name up to the first dot
TARGETS = (
    ("relational.numeric_column", "repro.relational.table", "Table.numeric_column"),
    ("relational.numeric_matrix", "repro.relational.table", "Table.numeric_matrix"),
    ("relational.take", "repro.relational.table", "Table.take"),
    ("relational.mask", "repro.relational.table", "Table.mask"),
    ("relational.parse", "repro.relational.csv_io", "read_csv_text"),
    ("relational.align", "repro.relational.snapshot", "SnapshotPair.align"),
    ("ml.kmeans", "repro.ml.kmeans", "KMeans.fit"),
    ("ml.linreg", "repro.ml.linreg", "LinearRegression.fit"),
    ("core.cluster", "repro.core.partitioning", "cluster_changed_rows"),
    ("core.induce", "repro.core.partitioning", "partitions_from_labels"),
    ("core.snap", "repro.core.transformation", "LinearTransformation.snapped"),
    ("core.score", "repro.core.scoring", "score_summary"),
    ("core.suggest", "repro.core.setup_assistant", "SetupAssistant.suggest"),
    ("search.execute", "repro.search.executors", "SearchExecutor.execute"),
    ("search.evaluate", "repro.search.evaluator", "CandidateEvaluator.evaluate"),
    ("search.bounds.build", "repro.search.bounds", "ScoreBoundIndex.__init__"),
    ("search.bounds.build", "repro.search.bounds", "ScoreBoundIndex.round_bounds"),
    ("timeline.append", "repro.timeline.store", "TimelineStore.append"),
    ("timeline.delta", "repro.timeline.delta", "VersionDelta.from_pair"),
    ("timeline.session", "repro.timeline.session", "EngineSession.summarize_pair"),
    ("cachestore.get", "repro.cachestore.memory", "InProcessBackend.get"),
    ("cachestore.put", "repro.cachestore.memory", "InProcessBackend.put"),
    ("cacheserver.get", "repro.cacheserver.fabric", "ShardedRemoteBackend.get"),
    ("cacheserver.put", "repro.cacheserver.fabric", "ShardedRemoteBackend.put"),
    ("cacheserver.get_many", "repro.cacheserver.fabric", "ShardedRemoteBackend.get_many"),
    ("cacheserver.prefetch", "repro.cacheserver.fabric", "ShardedRemoteBackend.prefetch"),
    ("serving.admission_wait", "repro.serving.admission", "_AdmissionSlot.__aenter__"),
    ("serving.flight", "repro.serving.batcher", "RequestBatcher.run"),
)

LAYERS = (
    "relational", "ml", "core", "search", "timeline", "cachestore", "cacheserver", "serving",
)

ROOT = "bench.op"

_SUMS = ("self_s", "total_s", "root_s", "calls", "counts")


class _ThreadState:
    """One thread's span stack and aggregates (only that thread writes them)."""

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.root_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.stats: list = []


class Recorder:
    """Per-thread span aggregates plus the patches that feed them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        #: id of each module-level wrapper -> (wrapper, original)
        self._wrapped: dict[int, tuple[object, object]] = {}
        #: objects the wrappers saw, by kind (engine sessions, fabric clients)
        self.seen: dict[str, dict[int, object]] = defaultdict(dict)

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def reset(self) -> None:
        """Forget everything recorded so far (call when the timed phase starts)."""
        with self._lock:
            for state in self._states:
                for key in (*_SUMS, "stats"):
                    getattr(state, key).clear()

    def merged(self) -> dict:
        """Every thread's aggregates summed into one snapshot."""
        merged = {key: defaultdict(float) for key in _SUMS}
        merged["stats"] = []
        with self._lock:
            for state in self._states:
                for key in _SUMS:
                    for name, value in getattr(state, key).items():
                        merged[key][name] += value
                merged["stats"].extend(state.stats)
        return merged

    # -- spans -------------------------------------------------------------------

    def _enter(self) -> tuple[_ThreadState, float]:
        state = self.state()
        state.stack.append(0.0)
        return state, perf_counter()

    @staticmethod
    def _exit(state: _ThreadState, name: str, start: float) -> None:
        elapsed = perf_counter() - start
        stack = state.stack
        state.self_s[name] += elapsed - stack.pop()
        state.total_s[name] += elapsed
        state.calls[name] += 1
        if stack:
            stack[-1] += elapsed
        else:
            state.root_s[name] += elapsed

    def span(self, name: str = ROOT):
        """A context manager recording one span (the benchmark's op roots)."""
        return _Span(self, name)

    # -- patching ----------------------------------------------------------------

    def _sync(self, fn, name: str, hook):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, start = recorder._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._exit(state, name, start)
            if hook is not None:
                hook(recorder, state, args, result)
            return result

        return wrapper

    def _async(self, fn, name: str, hook):
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state = recorder.state()
                state.total_s[name] += elapsed
                state.calls[name] += 1
            if hook is not None:
                hook(recorder, state, args, result, elapsed)
            return result

        return wrapper

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        if inspect.iscoroutinefunction(fn):
            return self._async(fn, name, hook)
        return self._sync(fn, name, hook)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self, targets=TARGETS) -> "Recorder":
        for name, module_name, qualname in targets:
            module = import_module(module_name)
            if "." in qualname:
                class_name, attribute = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    self._patch(owner, attribute, classmethod(self._wrap(raw.__func__, name)))
                else:
                    self._patch(owner, attribute, self._wrap(raw, name))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, name)
            self._wrapped[id(wrapper)] = (wrapper, original)
            # every module holding the function, under any name
            for holder, attribute, value in _module_bindings():
                if value is original:
                    self._patch(holder, attribute, wrapper)
        return self

    def restore(self) -> None:
        """Put every patched attribute back to the original object."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        # modules imported after install() bound the wrappers themselves
        for holder, attribute, value in _module_bindings():
            wrapped = self._wrapped.get(id(value))
            if wrapped is not None and wrapped[0] is value:
                setattr(holder, attribute, wrapped[1])
        self._wrapped.clear()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every live patch."""
        return list(self._patches)


def _module_bindings():
    """``(module, attribute, value)`` of every global of every loaded module."""
    for holder in list(sys.modules.values()):
        namespace = getattr(holder, "__dict__", None)
        if isinstance(namespace, dict):
            for attribute, value in list(namespace.items()):
                yield holder, attribute, value


class _Span:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        self._state, self._start = self._recorder._enter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._recorder._exit(self._state, self._name, self._start)


# -- hooks: counts taken from what a wrapped call returns -------------------------


def _rows_copied(recorder, state, args, result) -> None:
    state.counts["relational.rows_copied"] += result.num_rows


def _search_stats(recorder, state, args, result) -> None:
    state.stats.append(result[1])


def _seen_session(recorder, state, args, result) -> None:
    recorder.seen["session"][id(args[0])] = args[0]


def _seen_fabric(recorder, state, args, result) -> None:
    recorder.seen["fabric"][id(args[0])] = args[0]


def _flight(recorder, state, args, result, elapsed) -> None:
    if result[1]:
        state.counts["serving.followers"] += 1
        state.total_s["serving.flight.followers"] += elapsed
    else:
        state.counts["serving.leaders"] += 1


HOOKS = {
    "relational.take": _rows_copied,
    "search.execute": _search_stats,
    "timeline.session": _seen_session,
    "cacheserver.get": _seen_fabric,
    "cacheserver.put": _seen_fabric,
    "cacheserver.get_many": _seen_fabric,
    "cacheserver.prefetch": _seen_fabric,
    "serving.flight": _flight,
}


def install(targets=TARGETS) -> Recorder:
    """Import every layer module, patch its functions, return the recorder."""
    return Recorder().install(targets)


# -- per-layer metrics --------------------------------------------------------------


def _is_endpoint_layer(layer: str) -> bool:
    return "[" in layer


def layer_metrics(merged: dict, extra: dict | None = None) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as ``name -> (value, unit)``.

    ``merged`` is :meth:`Recorder.merged` output; ``extra`` carries figures
    only the caller can know: ``op_s`` (total op time, when no ``bench.op``
    root spans exist), ``dedup_shared_s`` (engine time deduplicated requests
    waited on but did not run), ``serving`` timings, ``shard_hit_ratio``,
    ``connection_failures`` and ``warm_fallbacks``.
    """
    extra = extra or {}
    self_s, calls, counts = merged["self_s"], merged["calls"], merged["counts"]
    stats = merged["stats"]

    def total(key: str) -> float:
        return float(sum(getattr(s, key) for s in stats))

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        seconds = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_s"] = (seconds, "s")

    metrics["relational.parse_s"] = (self_s["relational.parse"], "s")
    metrics["relational.numeric_column.calls"] = (calls["relational.numeric_column"], "count")
    metrics["relational.rows_copied"] = (counts["relational.rows_copied"], "count")
    for name in ("kmeans", "linreg"):
        metrics[f"ml.{name}.self_s"] = (self_s[f"ml.{name}"], "s")
        metrics[f"ml.{name}.fits"] = (calls[f"ml.{name}"], "count")
    for name in ("cluster", "induce", "snap", "score", "suggest"):
        metrics[f"core.{name}.self_s"] = (self_s[f"core.{name}"], "s")

    metrics["search.evaluate.self_s"] = (self_s["search.evaluate"], "s")
    metrics["search.bounds.build_s"] = (self_s["search.bounds.build"], "s")
    metrics["search.specs_evaluated"] = (total("candidates_evaluated"), "count")
    metrics["search.specs_pruned_bound"] = (total("candidates_pruned_spec_bounds"), "count")
    lookups = total("cache_lookups")
    metrics["search.memo.lookups"] = (lookups, "count")
    metrics["search.memo.hit_ratio"] = (total("cache_hits") / lookups if lookups else 0.0, "ratio")
    metrics["search.partitions_patched"] = (total("partitions_patched"), "count")
    metrics["search.patch_fallbacks"] = (total("partition_patch_fallbacks"), "count")
    metrics["search.partitions_recomputed"] = (total("partitions_recomputed"), "count")

    metrics["timeline.append_s"] = (self_s["timeline.append"], "s")
    metrics["timeline.delta_s"] = (self_s["timeline.delta"], "s")
    metrics["timeline.warm_fallbacks"] = (extra.get("warm_fallbacks", 0), "count")

    backends: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for stat in stats:
        for layer, counter in stat.backend_counters.items():
            sums = backends[layer]
            sums[0] += counter.hits
            sums[1] += counter.misses
            sums[2] += counter.round_trips
            sums[3] += counter.failovers
    hits = sum(v[0] for k, v in backends.items() if not _is_endpoint_layer(k))
    looked = hits + sum(v[1] for k, v in backends.items() if not _is_endpoint_layer(k))
    # every get_many implementation loops over get, so gets count keys looked up
    metrics["cachestore.gets"] = (calls["cachestore.get"] + calls["cacheserver.get"], "count")
    metrics["cachestore.puts"] = (calls["cachestore.put"] + calls["cacheserver.put"], "count")
    metrics["cachestore.hit_ratio"] = (hits / looked if looked else 0.0, "ratio")

    remote = [v for k, v in backends.items() if k.startswith("remote") and not _is_endpoint_layer(k)]
    metrics["cacheserver.round_trips"] = (sum(v[2] for v in remote), "count")
    metrics["cacheserver.failovers"] = (sum(v[3] for v in remote), "count")
    metrics["cacheserver.prefetch_s"] = (self_s["cacheserver.prefetch"], "s")
    metrics["cacheserver.get_s"] = (self_s["cacheserver.get"] + self_s["cacheserver.get_many"], "s")
    metrics["cacheserver.put_s"] = (self_s["cacheserver.put"], "s")
    metrics["cacheserver.connection_failures"] = (extra.get("connection_failures", 0), "count")
    metrics["cacheserver.shard_hit_ratio"] = (extra.get("shard_hit_ratio", 0.0), "ratio")

    serving = extra.get("serving", {})
    for name in ("summarize.engine_s", "summarize.overhead_s", "advance.engine_s",
                 "admission_wait_s", "dedup_ratio", "shed"):
        unit = "ratio" if name == "dedup_ratio" else "count" if name == "shed" else "s"
        metrics[f"serving.{name}"] = (serving.get(name, 0.0), unit)
    if serving:
        metrics["serving.self_s"] = (serving["self_s"], "s")

    # accounting: op time = every layer's self time + engine time shared by
    # deduplicated requests + the unattributed rest
    op_s = extra.get("op_s", merged["total_s"].get(ROOT, 0.0))
    shared = extra.get("dedup_shared_s", 0.0)
    attributed = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) + shared
    unattributed = op_s - attributed
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.dedup_shared_s"] = (shared, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.unattributed_share"] = (unattributed / op_s if op_s else 0.0, "ratio")
    return metrics
