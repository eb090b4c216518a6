"""Tenant-namespaced registry of live timeline sessions.

Each lease pairs one tenant's :class:`~repro.timeline.session.EngineSession`
(the warm engine: persistent caches and pruning floors) with
the :class:`~repro.timeline.store.TimelineStore` its uploads accumulate in,
under a capability-style session id.  Tenancy is enforced twice over:

* **Access** — every operation names the tenant, and a lease is only
  reachable by the tenant that created it (anything else is
  :class:`TenantAccessError`, an HTTP 403).
* **Caches** — a tenant's result-affecting configuration is folded into
  every persistent/remote cache key via ``CharlesConfig.cache_fingerprint()``
  (see :mod:`repro.cachestore`), so even tenants sharing one disk directory
  or cache fabric can never read each other's entries.  Identically
  configured tenants *do* share a namespace — deliberately: identical
  fingerprints mean identical computations, which is what makes cross-tenant
  reuse (and the single-flight dedup in :mod:`repro.serving.batcher`) safe.

The registry is sized (``max_sessions``) and swept: sessions idle past the
TTL are closed — releasing their cache backends via the
``EngineSession.close()`` teardown path — and removed, so abandoned tenants
cannot pin SQLite handles or remote connections forever.  All mutation
happens on the event loop thread; the searches themselves run in worker
threads under each lease's ``lock``, which also keeps the sweeper from
tearing down a session mid-query.
"""

from __future__ import annotations

import asyncio
import secrets
import time
from dataclasses import dataclass, field

from repro.core.config import CharlesConfig
from repro.exceptions import ServingError
from repro.serving.admission import LoadShedError
from repro.timeline.session import EngineSession
from repro.timeline.store import TimelineStore

__all__ = ["SessionLease", "SessionRegistry", "TenantAccessError", "UnknownSessionError"]


class UnknownSessionError(ServingError):
    """No live session has this id (never created, closed, or expired)."""


class TenantAccessError(ServingError):
    """The session exists but belongs to a different tenant."""


@dataclass
class SessionLease:
    """One tenant's live session: engine + timeline + upload fingerprints."""

    session_id: str
    tenant: str
    config: CharlesConfig
    engine: EngineSession
    store: TimelineStore
    #: wall-clock creation stamp, for humans reading ``info()`` only — all
    #: age/TTL math uses the monotonic stamp below, so a system clock step
    #: (NTP, DST, VM resume) can never age or rejuvenate a lease
    created_at: float
    created_monotonic: float
    #: content digest of each uploaded version (feeds the single-flight work key)
    version_digests: dict[str, bytes] = field(default_factory=dict)
    #: serialises queries per session (EngineSession is not thread-safe) and
    #: marks the lease busy so the sweeper never closes it mid-query
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    @property
    def fingerprint_hex(self) -> str:
        """The tenant's cache-namespace fingerprint (result-affecting config)."""
        return self.config.cache_fingerprint().hex()

    @property
    def age_seconds(self) -> float:
        """Seconds since creation, on the same monotonic clock the engine's
        ``idle_seconds`` uses — immune to wall-clock steps."""
        return time.monotonic() - self.created_monotonic

    def info(self) -> dict:
        """The operator-facing description (``GET /v1/sessions/<id>``)."""
        return {
            "session": self.session_id,
            "tenant": self.tenant,
            "fingerprint": self.fingerprint_hex,
            "key": self.store.key,
            "versions": self.store.names,
            "runs_completed": self.engine.runs_completed,
            "warm_start_fallbacks": self.engine.warm_start_fallbacks,
            "idle_seconds": round(self.engine.idle_seconds, 3),
            "age_seconds": round(self.age_seconds, 3),
            "created_at": self.created_at,
        }


class SessionRegistry:
    """Live sessions by id, capped in count and swept on idleness."""

    def __init__(self, max_sessions: int):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self._leases: dict[str, SessionLease] = {}
        self.expired_total = 0

    def __len__(self) -> int:
        return len(self._leases)

    def tenants(self) -> dict[str, int]:
        """Live session count per tenant."""
        counts: dict[str, int] = {}
        for lease in self._leases.values():
            counts[lease.tenant] = counts.get(lease.tenant, 0) + 1
        return dict(sorted(counts.items()))

    def create(
        self, tenant: str, config: CharlesConfig, key: str | None = None
    ) -> SessionLease:
        """Open a new session for ``tenant``; shed when the registry is full."""
        if len(self._leases) >= self.max_sessions:
            raise LoadShedError(
                f"session capacity reached ({self.max_sessions}); retry after "
                "idle sessions expire or close one",
                retry_after_seconds=5,
                reason="session_capacity",
            )
        session_id = secrets.token_hex(16)
        lease = SessionLease(
            session_id=session_id,
            tenant=tenant,
            config=config,
            engine=EngineSession(config),
            store=TimelineStore(key=key),
            # two stamps, one instant: wall-clock for display, monotonic for
            # every age comparison (idle_seconds on the engine already is)
            created_at=time.time(),
            created_monotonic=time.monotonic(),
        )
        self._leases[session_id] = lease
        return lease

    def get(self, session_id: str, tenant: str) -> SessionLease:
        """The lease for ``session_id``, provided ``tenant`` owns it."""
        lease = self._leases.get(session_id)
        if lease is None:
            raise UnknownSessionError(f"no live session {session_id!r}")
        if lease.tenant != tenant:
            # the id was guessed or leaked across tenants; same 403 either way
            raise TenantAccessError(
                f"session {session_id!r} does not belong to tenant {tenant!r}"
            )
        return lease

    def close(self, session_id: str, tenant: str) -> SessionLease:
        """Close and remove one session (tenant-checked); idempotent-friendly."""
        lease = self.get(session_id, tenant)
        del self._leases[session_id]
        lease.engine.close()
        return lease

    def sweep_expired(self, ttl_seconds: float) -> list[SessionLease]:
        """Close and remove every lease idle past the TTL; returns the victims.

        A lease whose lock is held is mid-query by definition — its idle
        clock is stale, not its tenant — so it is skipped and re-examined on
        the next sweep.
        """
        victims = [
            lease
            for lease in self._leases.values()
            if not lease.lock.locked() and lease.engine.idle_seconds >= ttl_seconds
        ]
        for lease in victims:
            del self._leases[lease.session_id]
            lease.engine.close()
            self.expired_total += 1
        return victims

    def close_all(self) -> None:
        """Tear down every session (service shutdown)."""
        for lease in self._leases.values():
            lease.engine.close()
        self._leases.clear()
