"""Backends change where entries live, never what a search returns."""

import pytest

from repro.core import Charles, CharlesConfig
from repro.search.cache import MemoTable, SearchCaches
from repro.timeline import EngineSession


def _ranking(result):
    """Byte-exact identity of a ranked result: text, scores and provenance."""
    return [
        (
            scored.summary.describe(),
            scored.score,
            scored.condition_attributes,
            scored.transformation_attributes,
            scored.n_partitions,
        )
        for scored in result.summaries
    ]


def _summarize(pair, config):
    return Charles(config).summarize_pair(
        pair,
        "bonus",
        condition_attributes=["edu", "exp"],
        transformation_attributes=["bonus", "salary"],
    )


@pytest.fixture(scope="module")
def memory_ranking(fig1_pair):
    return _ranking(_summarize(fig1_pair, CharlesConfig()))


class TestRankingsAcrossBackends:
    def test_disk_backend_identical(self, fig1_pair, memory_ranking, tmp_path):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        result = _summarize(fig1_pair, config)
        assert _ranking(result) == memory_ranking
        assert result.search_stats.cache_backend == "disk"

    def test_shared_config_runs_as_memory(self, fig1_pair, memory_ranking):
        # `shared` names the retired cross-process memo store: old configs
        # still load, and run exactly as the in-process default
        config = CharlesConfig(cache_backend="shared")
        assert config.cache_backend == "memory"
        result = _summarize(fig1_pair, config)
        assert _ranking(result) == memory_ranking
        assert result.search_stats.cache_backend == "memory"
        with EngineSession(config) as session:
            served = session.summarize_pair(
                fig1_pair,
                "bonus",
                condition_attributes=["edu", "exp"],
                transformation_attributes=["bonus", "salary"],
            )
        assert _ranking(served) == memory_ranking
        assert served.search_stats.cache_backend == "memory"

    def test_shared_serving_default_runs_as_memory(self):
        infra = CharlesConfig().with_serving_defaults({"cache_backend": "shared"})
        assert infra.cache_backend == "memory"

    def test_parallel_shared_config_identical_to_memory(self, employee_200):
        shortlists = dict(
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"]
        )
        memory = Charles(CharlesConfig(n_jobs=2)).summarize_pair(
            employee_200, "bonus", **shortlists
        )
        shared = Charles(CharlesConfig(n_jobs=2, cache_backend="shared")).summarize_pair(
            employee_200, "bonus", **shortlists
        )
        assert _ranking(shared) == _ranking(memory)
        assert shared.search_stats.cache_backend == "memory"
        assert shared.search_stats.n_jobs == memory.search_stats.n_jobs


class TestDiskResultEntries:
    def test_second_run_is_served_from_the_file(self, fig1_pair, tmp_path):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        first = _summarize(fig1_pair, config)
        # a brand-new Charles (fresh engine, fresh caches object) over the same
        # cache_dir: the ranking comes off the result entry the first run wrote
        second = _summarize(fig1_pair, config)
        assert _ranking(second) == _ranking(first)
        assert second.total_candidates == first.total_candidates
        stats = second.search_stats
        assert stats.result_hits == 1 and first.search_stats.result_hits == 0
        assert stats.cache_lookups == stats.candidates_evaluated == 0
        # per-spec entries never reach the directory
        assert sorted(path.name for path in tmp_path.glob("*.sqlite")) == ["results.sqlite"]

    def test_fresh_session_is_served_from_disk(self, fig1_pair, tmp_path):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        with EngineSession(config) as session:
            cold = session.summarize_pair(fig1_pair, "bonus")
        with EngineSession(config) as session:
            warm = session.summarize_pair(fig1_pair, "bonus")
            counters = session.cache_counters()
        assert _ranking(warm) == _ranking(cold)
        assert warm.search_stats.result_hits == 1
        assert counters.hits == counters.misses == 0

    def test_per_backend_breakdown_travels_in_stats(self, fig1_pair, tmp_path):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        _summarize(fig1_pair, config)
        stats = _summarize(fig1_pair, config).search_stats
        assert set(stats.backend_counters) == {"disk"}
        # the second run finds the result entry the first one persisted
        assert stats.backend_counters["disk"].hits == 1
        assert stats.backend_counters["disk"].misses == 0
        payload = stats.as_dict()
        assert payload["cache_backend"] == "disk"
        assert payload["backend_counters"]["disk"]["hits"] > 0


class TestConfigNamespacing:
    """A shared cache_dir must never leak entries across configurations."""

    def test_fingerprint_ignores_execution_knobs(self):
        base = CharlesConfig()
        assert base.cache_fingerprint() == CharlesConfig().cache_fingerprint()
        neutral = base.replace(
            n_jobs=4,
            top_k=3,
            prune_search=False,
            search_cache_capacity=128,
            warm_start=False,
        )
        # these knobs pick the execution strategy, never the computed values:
        # flipping them must keep a persistent cache warm
        assert neutral.cache_fingerprint() == base.cache_fingerprint()
        # the retired partition_maintenance field is accepted and ignored
        assert (
            base.replace(partition_maintenance=True).cache_fingerprint()
            == base.replace(partition_maintenance=False).cache_fingerprint()
        )

    def test_fingerprint_rotates_on_result_affecting_knobs(self):
        base = CharlesConfig()
        for changed in (
            base.replace(seed=7),
            base.replace(min_partition_coverage=0.1),
            base.replace(ridge=1e-6),
            base.replace(residual_weights=(1.0,)),
        ):
            assert changed.cache_fingerprint() != base.cache_fingerprint()

    def test_reconfigured_run_starts_cold_on_a_shared_cache_dir(
        self, fig1_pair, tmp_path
    ):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        _summarize(fig1_pair, config)
        # a different seed changes k-means outcomes without changing content
        # keys — the second run must recompute, not reuse seed-0 entries
        stats = _summarize(fig1_pair, config.replace(seed=123)).search_stats
        assert stats.result_hits == 0
        assert stats.fit_cache_misses > 0 and stats.partition_cache_misses > 0
        # so must a shortlist the first run did not ask for
        narrower = Charles(config).summarize_pair(
            fig1_pair,
            "bonus",
            condition_attributes=["edu"],
            transformation_attributes=["bonus", "salary"],
        )
        assert narrower.search_stats.result_hits == 0
        # while the original request is still served alongside them
        warm = _summarize(fig1_pair, config).search_stats
        assert warm.result_hits == 1


class TestSearchCachesFromConfig:
    def test_disk_caches_keep_memo_entries_in_process(self, tmp_path):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        caches = SearchCaches.from_config(config)
        assert caches.backend_kind == "disk"
        assert type(caches.fits) is type(caches.partitions) is MemoTable
        caches.close()

    def test_memory_caches_stay_in_process(self):
        caches = SearchCaches.from_config(CharlesConfig(search_cache_capacity=5))
        assert caches.backend_kind == "memory"
        assert caches.results.kind == "memory" and caches.results.capacity == 5

    def test_config_rejects_disk_without_dir(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            CharlesConfig(cache_backend="disk")
        with pytest.raises(ConfigurationError):
            CharlesConfig(cache_backend="memcached")
