"""Eviction policies: LRU keeps the old in-process order; cost-aware beats it."""

from repro.cachestore import MISSING, CostAwarePolicy, InProcessBackend, LRUPolicy


class TestLRUPolicy:
    def test_backend_default_is_lru(self):
        assert InProcessBackend().policy.name == "lru"

    def test_get_refreshes_recency(self):
        backend = InProcessBackend(capacity=2, policy=LRUPolicy())
        backend.put("a", 1)
        backend.put("b", 2)
        backend.get("a")
        backend.put("c", 3)
        assert backend.get("b") is MISSING
        assert backend.get("a") == 1 and backend.get("c") == 3


class TestCostAwarePolicy:
    def test_retains_expensive_entries_lru_would_evict(self):
        # the scenario the policy exists for: one expensive discovery followed
        # by a stream of cheap fits that never touches it again
        def fill(backend):
            backend.put("expensive", b"x" * 64, cost_hint=5.0)
            for index in range(10):
                backend.put(f"cheap{index}", b"y" * 64, cost_hint=0.001)

        lru = InProcessBackend(capacity=3, policy=LRUPolicy())
        fill(lru)
        assert lru.get("expensive") is MISSING  # recency alone forgets it

        aware = InProcessBackend(capacity=3, policy=CostAwarePolicy())
        fill(aware)
        assert aware.get("expensive") == b"x" * 64  # cost keeps it resident
        assert aware.evictions == lru.evictions == 8

    def test_evicts_cheapest_per_byte_first(self):
        backend = InProcessBackend(capacity=2, policy=CostAwarePolicy())
        backend.put("dense", b"x" * 10, cost_hint=1.0)    # 0.1 s/byte
        backend.put("sparse", b"y" * 1000, cost_hint=1.0)  # 0.001 s/byte
        backend.put("new", b"z" * 10, cost_hint=0.5)       # 0.05 s/byte
        assert backend.get("sparse") is MISSING
        assert backend.get("dense") == b"x" * 10 and backend.get("new") == b"z" * 10

    def test_cheap_newcomer_may_be_its_own_victim(self):
        backend = InProcessBackend(capacity=1, policy=CostAwarePolicy())
        backend.put("expensive", b"x", cost_hint=9.0)
        backend.put("cheap", b"y", cost_hint=0.0)
        # refusing to displace expensive work is the policy working as intended
        assert backend.get("cheap") is MISSING
        assert backend.get("expensive") == b"x"
        assert backend.evictions == 1

    def test_unmeasured_entries_fall_back_to_fifo_among_themselves(self):
        backend = InProcessBackend(capacity=2, policy=CostAwarePolicy())
        backend.put("first", b"a")
        backend.put("second", b"b")
        backend.put("third", b"c")
        assert backend.get("first") is MISSING
        assert backend.get("second") == b"b" and backend.get("third") == b"c"

    def test_overwrite_keeps_the_higher_observed_cost(self):
        backend = InProcessBackend(capacity=2, policy=CostAwarePolicy())
        backend.put("k", b"x", cost_hint=5.0)
        backend.put("k", b"x", cost_hint=0.001)  # a racing fast recomputation
        backend.put("other", b"y", cost_hint=1.0)
        backend.put("straw", b"z", cost_hint=0.5)
        # were the overwrite to downgrade "k" to 0.001, "k" would be the
        # cheapest entry and the one evicted here; instead "straw" loses
        assert backend.get("k") == b"x"
        assert backend.get("other") == b"y"
        assert backend.get("straw") is MISSING

    def test_clear_resets_the_policy_state(self):
        backend = InProcessBackend(capacity=2, policy=CostAwarePolicy())
        backend.put("a", b"x", cost_hint=2.0)
        backend.clear()
        backend.put("b", b"y", cost_hint=0.1)
        backend.put("c", b"z", cost_hint=0.2)
        backend.put("d", b"w", cost_hint=0.3)
        # eviction still works and never references the cleared "a"
        assert len(backend) == 2
        assert backend.get("b") is MISSING
