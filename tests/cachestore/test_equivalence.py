"""Backends change where entries live, never what a search returns."""

import pytest

from repro.core import Charles, CharlesConfig
from repro.search.cache import SearchCaches
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
        assert result.search_stats.cache_backend_requested is None

    def test_shared_backend_identical(self, fig1_pair, memory_ranking):
        config = CharlesConfig(cache_backend="shared")
        with EngineSession(config) as session:
            result = session.summarize_pair(
                fig1_pair,
                "bonus",
                condition_attributes=["edu", "exp"],
                transformation_attributes=["bonus", "salary"],
            )
        assert _ranking(result) == memory_ranking
        assert result.search_stats.cache_backend == "shared"

    def test_one_shot_serial_ignores_shared_backend(self, fig1_pair, memory_ranking):
        # with no session and no workers a shared store could not outlive the
        # run, so the serial executor uses in-process caches instead — and
        # records the substitution rather than pretending nothing happened
        result = _summarize(fig1_pair, CharlesConfig(cache_backend="shared"))
        assert _ranking(result) == memory_ranking
        stats = result.search_stats
        assert stats.cache_backend == "memory"
        assert stats.cache_backend_requested == "shared"
        assert stats.as_dict()["cache_backend_requested"] == "shared"
        assert "'shared' not used" in stats.describe()

    def test_parallel_workers_attached_to_shared_store_identical(
        self, employee_200, tmp_path
    ):
        serial = Charles(CharlesConfig()).summarize_pair(
            employee_200, "bonus",
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"],
        )
        shared = Charles(
            CharlesConfig(n_jobs=2, cache_backend="shared")
        ).summarize_pair(
            employee_200, "bonus",
            condition_attributes=["edu", "exp"], transformation_attributes=["bonus"],
        )
        assert _ranking(serial) == _ranking(shared)
        assert shared.search_stats.cache_backend == "shared"


class TestDiskWarmStart:
    def test_second_run_is_fully_warm(self, fig1_pair, tmp_path):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        first = _summarize(fig1_pair, config)
        # a brand-new Charles (fresh engine, fresh caches object) over the same
        # cache_dir: every lookup must come off the file the first run wrote
        second = _summarize(fig1_pair, config)
        assert _ranking(second) == _ranking(first)
        stats = second.search_stats
        assert stats.cache_hits > 0
        assert stats.fit_cache_misses == 0 and stats.partition_cache_misses == 0

    def test_fresh_session_starts_warm_from_disk(self, fig1_pair, tmp_path):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        with EngineSession(config) as session:
            cold = session.summarize_pair(fig1_pair, "bonus")
        with EngineSession(config) as session:
            warm = session.summarize_pair(fig1_pair, "bonus")
            counters = session.cache_counters()
        assert _ranking(warm) == _ranking(cold)
        assert counters.hits > 0 and counters.misses == 0

    def test_per_backend_breakdown_travels_in_stats(self, fig1_pair, tmp_path):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        _summarize(fig1_pair, config)
        stats = _summarize(fig1_pair, config).search_stats
        assert set(stats.backend_counters) == {"disk"}
        # the second run finds every entry the first one persisted
        assert stats.backend_counters["disk"].hits > 0
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
        assert stats.fit_cache_misses > 0 and stats.partition_cache_misses > 0
        # while the original config stays fully warm alongside it
        warm = _summarize(fig1_pair, config).search_stats
        assert warm.fit_cache_misses == 0 and warm.partition_cache_misses == 0


class TestSearchCachesFromConfig:
    def test_attach_shares_physical_storage(self, tmp_path):
        config = CharlesConfig(cache_backend="disk", cache_dir=str(tmp_path))
        caches = SearchCaches.from_config(config)
        assert caches.shareable and caches.backend_kind == "disk"
        caches.fits.get_or_compute("k", lambda: 41)
        attached = SearchCaches.attach(caches.handles())
        assert attached.fits.get_or_compute("k", lambda: 99) == 41
        caches.close()

    def test_memory_caches_are_not_shareable(self):
        caches = SearchCaches.from_config(CharlesConfig())
        assert not caches.shareable and caches.backend_kind == "memory"

    def test_config_rejects_disk_without_dir(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            CharlesConfig(cache_backend="disk")
        with pytest.raises(ConfigurationError):
            CharlesConfig(cache_backend="memcached")
