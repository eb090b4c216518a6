"""Cross-tenant single-flight deduplication of identical in-flight work.

Tenants are independent, but their work frequently is not: two analysts
serving the same published dataset through identically parameterised sessions
ask the engine for byte-identical evaluations — the same
:class:`~repro.search.planner.CandidateSpec` plan over the same pair under
the same result-affecting configuration.  Memo caches already collapse that
work *sequentially*; the :class:`RequestBatcher` collapses it *in flight*:
requests are keyed by :func:`~repro.search.cache.work_key` — the key
result entries use too — a digest of the configuration's
``cache_fingerprint()`` (every result-affecting knob) and result size, the
exact content of both snapshots, the target and the attribute shortlists —
and while a
request for some key is executing, every further request for the same key
becomes a *follower* that simply awaits the leader's result instead of
reaching the executors.  N tenants asking for the same fingerprinted work
pay for one evaluation.

Sharing is safe precisely because the key is total over everything that can
affect the answer: two requests with equal keys are the same computation, so
handing the follower the leader's :class:`~repro.core.charles.CharlesResult`
is byte-identical to running it again (the differential suite in
``tests/serving/`` enforces this).  Tenants whose configurations differ in
any result-affecting field get different fingerprints and therefore never
share — the same isolation line the cache namespaces draw.

The batcher runs on the event loop thread (no locks); leaders execute the
supplied coroutine, and failures propagate to every waiter of that flight
without being cached — the next request for the key starts a fresh flight.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.exceptions import ServingError
from repro.search.cache import work_key

__all__ = ["RequestBatcher", "work_key"]


class RequestBatcher:
    """Single-flight execution: one evaluation per in-flight work key."""

    def __init__(self) -> None:
        self._inflight: dict[bytes, asyncio.Future] = {}
        self.leaders = 0
        self.followers = 0

    @property
    def inflight(self) -> int:
        """How many distinct flights are currently executing."""
        return len(self._inflight)

    async def run(
        self, key: bytes, produce: Callable[[], Awaitable[Any]]
    ) -> tuple[Any, bool]:
        """Run ``produce`` once per concurrently requested ``key``.

        Returns ``(result, deduped)`` where ``deduped`` is True when this
        request rode an already-executing flight instead of evaluating.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.followers += 1
            # shield: a follower whose connection dies must not cancel the
            # leader's future out from under the other waiters
            ok, payload = await asyncio.shield(existing)
            if not ok:
                raise payload
            return payload, True

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self.leaders += 1
        try:
            try:
                value = await produce()
            except Exception as error:
                # outcome tuples, not set_exception: every follower (or none)
                # may collect, and nobody trips "exception never retrieved"
                future.set_result((False, error))
                raise
            except BaseException:
                # leader cancelled: wake followers with a retryable refusal
                future.set_result(
                    (False, ServingError("deduplicated work was cancelled; retry"))
                )
                raise
            future.set_result((True, value))
            return value, False
        finally:
            self._inflight.pop(key, None)
