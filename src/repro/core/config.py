"""Configuration of the ChARLES pipeline.

The paper exposes a small set of user-facing parameters (Fig. 4, steps 3 and
6): the maximum number of condition attributes ``c``, the maximum number of
transformation attributes ``t``, and the accuracy weight ``alpha`` of the
score.  :class:`CharlesConfig` gathers those together with the internal knobs
of the reproduction (correlation threshold of the setup assistant, partition
counts tried by the search, snapping tolerance, interpretability weights) and
validates every value, so that both the "novice" default path and the "expert"
tuning path of the demo are covered by one object.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.cachestore import BACKEND_CHOICES
from repro.exceptions import ConfigurationError

__all__ = ["CharlesConfig", "InterpretabilityWeights", "ServingConfig"]

#: fields that choose *where and how* a search runs, never what it computes —
#: the cache fingerprint ignores them so that e.g. changing ``n_jobs`` or the
#: backend kind keeps a persistent cache warm, while any knob that can change
#: a fitted model or a discovered partition (seed, thresholds, weights, ...)
#: rotates the namespace
_RESULT_NEUTRAL_FIELDS = frozenset(
    {
        "n_jobs",
        "top_k",
        "prune_search",
        "search_cache_capacity",
        "cache_backend",
        "cache_dir",
        "cache_url",
        "cache_replication",
        "warm_start",
        "partition_maintenance",
        "trace_path",
    }
)


@dataclass(frozen=True)
class InterpretabilityWeights:
    """Relative weights of the four interpretability components (paper §2).

    The components are: summary size (fewer CTs), simplicity (fewer descriptors
    and model variables), coverage (larger partitions) and normality (rounder
    constants).  Weights are normalised at scoring time, so only their ratios
    matter.
    """

    size: float = 1.0
    simplicity: float = 1.0
    coverage: float = 1.0
    normality: float = 1.0

    def __post_init__(self) -> None:
        for name in ("size", "simplicity", "coverage", "normality"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"interpretability weight {name} must be >= 0, got {value}")
        if self.total == 0:
            raise ConfigurationError("at least one interpretability weight must be positive")

    @property
    def total(self) -> float:
        """Sum of all weights."""
        return self.size + self.simplicity + self.coverage + self.normality


@dataclass(frozen=True)
class CharlesConfig:
    """All tunable parameters of the ChARLES pipeline.

    The paper's user-facing knobs are ``alpha``, ``c`` and ``t``; the rest
    tune the reproduction's search, caching and serving.  An execution-only
    field exists only where real workloads need different values, so
    pre-discovery bound pruning has no switch of its own beyond
    ``prune_search``: exhaustive search (``prune_search=False``) is the one
    way to turn it off.

    Parameters
    ----------
    alpha:
        Weight of accuracy in ``Score = alpha * Accuracy + (1 - alpha) *
        Interpretability``.  Default 0.5, as in the paper.
    max_condition_attributes:
        The paper's ``c``: maximum number of condition attributes used to
        build a single summary's partitions.
    max_transformation_attributes:
        The paper's ``t``: maximum number of numeric attributes used in each
        leaf's linear model.
    correlation_threshold:
        Minimum association with the target attribute for the setup assistant
        to shortlist a candidate attribute (paper default 0.5).
    max_partitions:
        Largest number of partitions (k of k-means) tried per attribute
        combination.
    top_k:
        Number of ranked summaries returned (paper default 10).
    min_partition_coverage:
        Partitions covering a smaller fraction of rows than this are discarded
        during partition discovery (they explain too little of the change).
    purity_threshold:
        Minimum fraction of a cluster that must share a categorical value for
        that value to become a descriptor of the induced condition.
    snapping_tolerance:
        Maximum *relative* accuracy loss allowed when snapping fitted
        coefficients to "normal" (round) values.
    accuracy_sharpness:
        Exponent ``gamma`` applied to the normalised residual error before it
        is subtracted from 1: ``Accuracy = 1 - (error / baseline) ** gamma``.
        Values below 1 make the score distinguish "almost exact" from
        "roughly right" summaries more strongly (see DESIGN.md; ablated in the
        E8 benchmark).  ``1.0`` recovers the plain inverse-L1 ratio.
    residual_weights:
        Multipliers applied to the regression-residual feature during partition
        discovery; the engine tries each one and lets scoring pick the winner.
        The residual is one column among potentially many encoded
        condition-attribute columns: weight 1.0 treats it like any other
        feature (clusters follow the attribute geometry), larger weights anchor
        the clustering on *how the value changed* (ablated by the
        ``no_residual``/``residual_only`` strategies).
    refine_partitions:
        Whether the engine recursively re-partitions discovered partitions
        whose transformation leaves a noticeable share of their change
        unexplained (hierarchical refinement; produces deeper model trees like
        the paper's Fig. 2).
    refinement_error_threshold:
        Minimum unexplained-change ratio within a partition before refinement
        is attempted.
    min_refinement_rows:
        Partitions smaller than this are never refined.
    ridge:
        L2 regularisation used in every regression fit (keeps collinear
        transformation attributes, e.g. salary = 10 x bonus, well behaved).
    interpretability_weights:
        Relative weights of the interpretability components.
    include_identity_fallback:
        Whether rows not covered by any conditional transformation are
        predicted as "unchanged" (the paper's None leaf) instead of NaN.
    seed:
        Seed for every stochastic component (k-means restarts).
    n_jobs:
        Number of worker processes the candidate search uses, passed to
        :class:`~repro.search.executors.SearchExecutor`.  ``1`` (the
        default) evaluates every spec in process; values above 1 fan each
        round out over a process pool of that many workers, and a pool that
        fails hands the search back to the in-process path (then
        ``SearchStats.n_jobs`` reports 1).  Rankings are identical for any
        value; only wall time and cache hit rates differ.
    prune_search:
        Whether the search may skip candidates that provably cannot enter the
        ranked top-k: a spec is skipped *before* partition discovery when its
        admissible bound from :class:`~repro.search.bounds.ScoreBoundIndex`
        is below the k-th best score of the earlier rounds.  Pruning never
        changes the top-k; disable it to rank the complete candidate space,
        e.g. for exhaustive analyses.
    search_cache_capacity:
        Maximum number of result entries the results store keeps (one per
        summarize request), evicting the oldest write beyond it.  ``None``
        (the default) leaves it unbounded.  With ``cache_backend="remote"``
        the value is not enforced: the bound on the fabric is each shard's
        own ``charles cache-server --capacity``.  It is still accepted, so
        served tenant configs that carry it keep loading.  The pair memo
        needs no bound: it holds one pair's work and is dropped when the
        pair changes.  Eviction never changes results — an evicted request
        is simply searched again.
    cache_backend:
        Where stored results live (see :mod:`repro.cachestore`).
        ``"memory"`` (the default) keeps them in a process-local dict.
        ``"disk"`` keeps one result entry per summarize request in a
        SQLite file under ``cache_dir`` that survives interpreter restarts;
        ``"remote"`` keeps them on a fleet of
        :class:`~repro.cacheserver.aserver.AsyncCacheServer` shards at
        ``cache_url``, so any engine serves a request another one answered.
        Per-spec memo entries stay in the process for every kind.
        ``"shared"``, the retired cross-process memo store, is still
        accepted and resolves to ``"memory"``.
        Backends change where entries live, never what a search returns —
        rankings are byte-identical across all of them (a remote server
        outage degrades to cache misses, never to different results).
    cache_dir:
        Directory holding the on-disk cache files.  Required by the
        ``"disk"`` backend, ignored by the others.  Cached
        values are deserialised with :mod:`pickle`, so the directory must be
        private to trusted users (files are created owner-only); different
        configurations may safely share one directory — entries are
        namespaced by :meth:`cache_fingerprint`.
    cache_url:
        ``host:port`` of the cache server (``charles cache-server``) the
        ``"remote"`` backend connects to.  Required by ``"remote"``, ignored
        by the others.  Values cross the wire pickled, so the server must
        live on a trusted network — exactly the trust a shared ``cache_dir``
        needs; different configurations may safely share one server
        (entries are namespaced by :meth:`cache_fingerprint`).  A
        comma-separated list of ``host:port`` endpoints shards the cache over
        all of them with consistent-hash routing — every engine in the fleet
        must list the *same* endpoints (order-insensitive routing, but the
        strings themselves are hashed) to reach the same shard per key.
    cache_replication:
        How many shards store each entry when ``cache_url`` lists several
        endpoints (clamped to the endpoint count).  At the default 1 a shard
        death degrades its share of keys to cache misses; at 2+ writes go to
        the owner and its ring successors and reads fail over around the
        ring, so losing a shard costs a failover round trip instead of the
        cached work.  Replication never changes results — only how much
        recomputation a shard failure causes.
    warm_start:
        Retired and ignored.  It once let an
        :class:`~repro.timeline.session.EngineSession` seed a run's top-k
        pruning floor from the previous run; every run's floor now starts at
        ``-inf`` and rises with the run's own scores.  The field is still
        accepted so existing configurations keep loading, and it does not
        rotate the cache fingerprint.
    partition_maintenance:
        Retired and ignored.  It once let a session patch cached partition
        discoveries across deltas; every partition-cache miss now runs the
        full discovery.  The field is still accepted so existing
        configurations keep loading, and it does not rotate the cache
        fingerprint.
    trace_path:
        When set, the engine enables the process-wide tracer
        (:mod:`repro.obs.trace`) and appends one JSON span record per line to
        this file: search rounds, bound pruning, partition discoveries,
        per-mask fits — including spans collected
        back from parallel workers and (via the ``TRACE`` verb) from remote
        cache shards.  Read the file with ``charles trace summarize`` /
        ``charles trace tree``.  Tracing is execution-only: it never feeds
        :meth:`cache_fingerprint` or any scoring path, and rankings are
        byte-identical with tracing on or off.
    """

    alpha: float = 0.5
    max_condition_attributes: int = 3
    max_transformation_attributes: int = 2
    correlation_threshold: float = 0.5
    max_partitions: int = 4
    top_k: int = 10
    min_partition_coverage: float = 0.02
    purity_threshold: float = 0.8
    snapping_tolerance: float = 0.002
    accuracy_sharpness: float = 0.5
    residual_weights: tuple[float, ...] = (1.0, 4.0)
    refine_partitions: bool = True
    refinement_error_threshold: float = 0.05
    min_refinement_rows: int = 8
    ridge: float = 1e-8
    interpretability_weights: InterpretabilityWeights = field(
        default_factory=InterpretabilityWeights
    )
    include_identity_fallback: bool = True
    seed: int = 0
    n_jobs: int = 1
    prune_search: bool = True
    search_cache_capacity: int | None = None
    cache_backend: str = "memory"
    cache_dir: str | None = None
    cache_url: str | None = None
    cache_replication: int = 1
    warm_start: bool = True
    partition_maintenance: bool = True
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.max_condition_attributes < 1:
            raise ConfigurationError(
                f"max_condition_attributes must be >= 1, got {self.max_condition_attributes}"
            )
        if self.max_transformation_attributes < 1:
            raise ConfigurationError(
                "max_transformation_attributes must be >= 1, got "
                f"{self.max_transformation_attributes}"
            )
        if not 0.0 <= self.correlation_threshold <= 1.0:
            raise ConfigurationError(
                f"correlation_threshold must be in [0, 1], got {self.correlation_threshold}"
            )
        if self.max_partitions < 1:
            raise ConfigurationError(f"max_partitions must be >= 1, got {self.max_partitions}")
        if self.top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {self.top_k}")
        if not 0.0 <= self.min_partition_coverage < 1.0:
            raise ConfigurationError(
                f"min_partition_coverage must be in [0, 1), got {self.min_partition_coverage}"
            )
        if not 0.0 < self.purity_threshold <= 1.0:
            raise ConfigurationError(
                f"purity_threshold must be in (0, 1], got {self.purity_threshold}"
            )
        if self.snapping_tolerance < 0.0:
            raise ConfigurationError(
                f"snapping_tolerance must be >= 0, got {self.snapping_tolerance}"
            )
        if self.accuracy_sharpness <= 0.0:
            raise ConfigurationError(
                f"accuracy_sharpness must be > 0, got {self.accuracy_sharpness}"
            )
        if not self.residual_weights:
            raise ConfigurationError("residual_weights must contain at least one value")
        object.__setattr__(self, "residual_weights", tuple(self.residual_weights))
        for weight in self.residual_weights:
            if weight < 0.0:
                raise ConfigurationError(
                    f"residual weights must be >= 0, got {weight}"
                )
        if self.refinement_error_threshold < 0.0:
            raise ConfigurationError(
                f"refinement_error_threshold must be >= 0, got {self.refinement_error_threshold}"
            )
        if self.min_refinement_rows < 2:
            raise ConfigurationError(
                f"min_refinement_rows must be >= 2, got {self.min_refinement_rows}"
            )
        if self.ridge < 0.0:
            raise ConfigurationError(f"ridge must be >= 0, got {self.ridge}")
        if self.n_jobs < 1:
            raise ConfigurationError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.search_cache_capacity is not None and self.search_cache_capacity < 1:
            raise ConfigurationError(
                "search_cache_capacity must be >= 1 or None, got "
                f"{self.search_cache_capacity}"
            )
        if self.cache_backend not in BACKEND_CHOICES:
            raise ConfigurationError(
                f"cache_backend must be one of {BACKEND_CHOICES}, got {self.cache_backend!r}"
            )
        if self.cache_backend == "shared":
            # the retired cross-process memo store: memo entries always stay
            # in the process now, so an existing config runs as the default
            object.__setattr__(self, "cache_backend", "memory")
        if self.cache_backend == "disk" and self.cache_dir is None:
            raise ConfigurationError(
                f"cache_backend {self.cache_backend!r} requires cache_dir"
            )
        if self.cache_backend == "remote" and self.cache_url is None:
            raise ConfigurationError(
                "cache_backend 'remote' requires cache_url (host:port of a "
                "running `charles cache-server`, or a comma-separated list "
                "of them)"
            )
        if self.cache_replication < 1:
            raise ConfigurationError(
                f"cache_replication must be >= 1, got {self.cache_replication}"
            )

    def replace(self, **changes: Any) -> "CharlesConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **changes)

    def with_serving_defaults(self, infra: "dict[str, Any] | None") -> "CharlesConfig":
        """This configuration with server-owned infrastructure fields applied.

        The serving layer lets tenants choose any *result-affecting* knob but
        owns the execution substrate itself — which cache fabric the sessions
        join, how many worker processes a search may fork, whether tracing is
        on.  All of those fields are in :data:`_RESULT_NEUTRAL_FIELDS`, so
        applying them never moves a tenant's :meth:`cache_fingerprint` (their
        namespace, and therefore their isolation, is unaffected).
        """
        if not infra:
            return self
        illegal = set(infra) - _RESULT_NEUTRAL_FIELDS
        if illegal:
            raise ConfigurationError(
                "serving infrastructure overrides must be execution-only "
                f"fields, got {sorted(illegal)}"
            )
        return replace(self, **infra)

    def cache_fingerprint(self) -> bytes:
        """A 16-byte digest of every result-affecting field.

        Memo-cache keys hash the data a computation reads and the candidate
        spec's parameters, but not the configuration — knobs like the k-means
        ``seed`` or ``min_partition_coverage`` change computed values without
        changing keys.  In-process stores die with the run (one
        config per owner), but a persistent store must not serve a second run
        configured differently, so :class:`~repro.cachestore.disk.DiskBackend`
        folds this fingerprint into every key: two configs sharing a
        ``cache_dir`` read and write disjoint namespaces.  Fields that only
        pick the execution strategy (``n_jobs``, backend selection,
        ``prune_search``, the retired ``warm_start`` and
        ``partition_maintenance``, tracing) are excluded — they are
        documented never to change results, so flipping them keeps the cache
        warm.
        """
        relevant = tuple(
            (spec.name, repr(getattr(self, spec.name)))
            for spec in fields(self)
            if spec.name not in _RESULT_NEUTRAL_FIELDS
        )
        return hashlib.blake2b(repr(relevant).encode("utf-8"), digest_size=16).digest()


@dataclass(frozen=True)
class ServingConfig:
    """Capacity knobs of the multi-tenant serving layer (``charles serve``).

    These govern the *service* — how many tenant sessions one process holds,
    how deep the per-tenant admission queues run before load shedding, how
    many searches execute concurrently — never what any search computes, so
    they live beside :class:`CharlesConfig` rather than inside it: one server
    hosts many tenant configurations, each with its own cache fingerprint.

    Parameters
    ----------
    max_sessions:
        Hard cap on live sessions across every tenant.  Creation beyond it is
        load-shed (HTTP 503 with a retry-after), not queued: a session pins an
        :class:`~repro.timeline.session.EngineSession` with its caches, so
        unbounded creation is a memory leak with extra steps.
    session_ttl_seconds:
        Idle time after which the registry sweeper closes a session and
        releases its cache backends.  Entries in persistent backends survive,
        so a tenant that returns later starts a new session warm.
    sweep_interval_seconds:
        How often the sweeper looks for expired sessions.
    queue_depth:
        Maximum requests *waiting* for an execution slot per tenant.  A
        request arriving at a full queue is shed immediately with a
        retry-after estimate — a bounded queue plus early shedding is what
        keeps saturation from turning into unbounded latency.
    tenant_concurrency:
        Maximum searches one tenant may have executing simultaneously.  A
        per-tenant quota (not a global one) so a flooding tenant queues and
        sheds against its own budget instead of starving the others.
    worker_threads:
        Size of the thread pool that runs the synchronous engine off the
        event loop.  Searches release the GIL in their numpy kernels, so a
        few threads keep the loop responsive without oversubscribing cores.
    max_body_bytes:
        Largest request body accepted (snapshot uploads dominate; anything
        larger is refused with HTTP 413 before buffering).
    """

    max_sessions: int = 1024
    session_ttl_seconds: float = 600.0
    sweep_interval_seconds: float = 20.0
    queue_depth: int = 64
    tenant_concurrency: int = 4
    worker_threads: int = 8
    max_body_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ConfigurationError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.session_ttl_seconds <= 0:
            raise ConfigurationError(
                f"session_ttl_seconds must be > 0, got {self.session_ttl_seconds}"
            )
        if self.sweep_interval_seconds <= 0:
            raise ConfigurationError(
                f"sweep_interval_seconds must be > 0, got {self.sweep_interval_seconds}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.tenant_concurrency < 1:
            raise ConfigurationError(
                f"tenant_concurrency must be >= 1, got {self.tenant_concurrency}"
            )
        if self.worker_threads < 1:
            raise ConfigurationError(
                f"worker_threads must be >= 1, got {self.worker_threads}"
            )
        if self.max_body_bytes < 1024:
            raise ConfigurationError(
                f"max_body_bytes must be >= 1024, got {self.max_body_bytes}"
            )
