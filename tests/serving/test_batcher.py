"""Single-flight dedup: one evaluation per in-flight key, failures propagate."""

from __future__ import annotations

import asyncio

import pytest

from repro.core import CharlesConfig
from repro.serving.batcher import RequestBatcher, work_key


def run(coro):
    return asyncio.run(coro)


class TestWorkKey:
    def test_total_over_every_input(self):
        base = dict(
            config=CharlesConfig(),
            source_digest=b"s" * 16,
            target_digest=b"t" * 16,
            target="bonus",
            condition_attributes=("dept",),
            transformation_attributes=None,
        )
        reference = work_key(**base)
        assert work_key(**base) == reference  # deterministic
        for field, changed in [
            ("config", CharlesConfig(seed=7)),
            # neutral for memo entries, but a result's length and count
            ("config", CharlesConfig(top_k=3)),
            ("config", CharlesConfig(prune_search=False)),
            ("source_digest", b"S" * 16),
            ("target_digest", b"T" * 16),
            ("target", "salary"),
            ("condition_attributes", ("dept", "title")),
            ("transformation_attributes", ("exp",)),
        ]:
            assert work_key(**{**base, field: changed}) != reference, field
        # execution-only knobs do not split flights or result entries
        assert work_key(**{**base, "config": CharlesConfig(n_jobs=2)}) == reference

    def test_none_and_empty_shortlists_differ(self):
        base = dict(
            config=CharlesConfig(),
            source_digest=b"s" * 16,
            target_digest=b"t" * 16,
            target="bonus",
            transformation_attributes=None,
        )
        # None means "resolve via the setup assistant", () means "none at all"
        assert work_key(**base, condition_attributes=None) != work_key(
            **base, condition_attributes=()
        )
        # a list and a tuple of the same names are the same request
        assert work_key(**base, condition_attributes=["dept"]) == work_key(
            **base, condition_attributes=("dept",)
        )


class TestSingleFlight:
    def test_concurrent_same_key_evaluates_once(self):
        async def scenario():
            batcher = RequestBatcher()
            evaluations = 0
            gate = asyncio.Event()

            async def produce():
                nonlocal evaluations
                evaluations += 1
                await gate.wait()
                return "answer"

            tasks = [
                asyncio.create_task(batcher.run(b"key", produce)) for _ in range(5)
            ]
            await asyncio.sleep(0.05)
            assert batcher.inflight == 1
            gate.set()
            results = await asyncio.gather(*tasks)
            assert evaluations == 1
            assert [value for value, _ in results] == ["answer"] * 5
            assert sorted(deduped for _, deduped in results) == [False] + [True] * 4
            assert batcher.leaders == 1
            assert batcher.followers == 4
            assert batcher.inflight == 0

        run(scenario())

    def test_different_keys_run_independently(self):
        async def scenario():
            batcher = RequestBatcher()

            async def produce_a():
                return "a"

            async def produce_b():
                return "b"

            (va, da), (vb, db) = await asyncio.gather(
                batcher.run(b"ka", produce_a), batcher.run(b"kb", produce_b)
            )
            assert (va, vb) == ("a", "b")
            assert (da, db) == (False, False)
            assert batcher.leaders == 2
            assert batcher.followers == 0

        run(scenario())

    def test_sequential_same_key_is_not_deduped(self):
        async def scenario():
            batcher = RequestBatcher()
            calls = 0

            async def produce():
                nonlocal calls
                calls += 1
                return calls

            first, _ = await batcher.run(b"key", produce)
            second, deduped = await batcher.run(b"key", produce)
            # the flight is over; a new request must re-evaluate (results may
            # legitimately be served by the memo caches, but never by a stale
            # in-flight future)
            assert (first, second, deduped) == (1, 2, False)

        run(scenario())


class TestFailurePropagation:
    def test_leader_error_reaches_followers_and_clears_flight(self):
        async def scenario():
            batcher = RequestBatcher()
            gate = asyncio.Event()

            async def explode():
                await gate.wait()
                raise ValueError("search failed")

            leader = asyncio.create_task(batcher.run(b"key", explode))
            follower = asyncio.create_task(batcher.run(b"key", explode))
            await asyncio.sleep(0.05)
            gate.set()
            with pytest.raises(ValueError):
                await leader
            with pytest.raises(ValueError):
                await follower
            assert batcher.inflight == 0

            async def recover():
                return "recovered"

            value, deduped = await batcher.run(b"key", recover)
            assert (value, deduped) == ("recovered", False)

        run(scenario())

    def test_cancelled_follower_does_not_kill_the_flight(self):
        async def scenario():
            batcher = RequestBatcher()
            gate = asyncio.Event()

            async def produce():
                await gate.wait()
                return "answer"

            leader = asyncio.create_task(batcher.run(b"key", produce))
            follower = asyncio.create_task(batcher.run(b"key", produce))
            await asyncio.sleep(0.05)
            follower.cancel()
            with pytest.raises(asyncio.CancelledError):
                await follower
            gate.set()
            value, deduped = await leader
            assert (value, deduped) == ("answer", False)

        run(scenario())

    def test_cancelled_leader_wakes_followers_with_retryable_error(self):
        from repro.exceptions import ServingError

        async def scenario():
            batcher = RequestBatcher()
            gate = asyncio.Event()

            async def produce():
                await gate.wait()
                return "answer"

            leader = asyncio.create_task(batcher.run(b"key", produce))
            follower = asyncio.create_task(batcher.run(b"key", produce))
            await asyncio.sleep(0.05)
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            with pytest.raises(ServingError, match="retry"):
                await follower

        run(scenario())
