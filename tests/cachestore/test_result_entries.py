"""Result entries: an exact repeat of a request is served across processes.

A summarize request stores its ranked top-k under a content key; a fresh
interpreter repeating the request against the same ``cache_dir`` or the same
fabric is served that entry — byte-identically, with no search work.  Each
engine here runs in a new process, so nothing but the store connects them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cacheserver import AsyncCacheServer
from repro.core import Charles, CharlesConfig
from repro.workloads import employee_pair

_SRC = Path(__file__).resolve().parents[2] / "src"

_SHORTLISTS = dict(
    condition_attributes=["edu", "exp"], transformation_attributes=["bonus", "salary"]
)

# one engine process: summarize the pair, print what the parent compares
_ENGINE = """
import json, sys
from repro import Charles, CharlesConfig
from repro.workloads import employee_pair

config = CharlesConfig(**json.loads(sys.argv[1]))
shortlists = json.loads(sys.argv[2])
result = Charles(config).summarize_pair(employee_pair(120, seed=5), "bonus", **shortlists)
stats = result.search_stats
print(json.dumps({
    "ranking": [[s.summary.describe(), s.score] for s in result.summaries],
    "total_candidates": result.total_candidates,
    "result_hits": stats.result_hits,
    "cache_lookups": stats.cache_lookups,
    "candidates_evaluated": stats.candidates_evaluated,
}))
"""


def _engine_process(config: dict, shortlists: dict = _SHORTLISTS) -> dict:
    """Run one request in a new interpreter; its ranking and stats."""
    completed = subprocess.run(
        [sys.executable, "-c", _ENGINE, json.dumps(config), json.dumps(shortlists)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def in_process_ranking():
    result = Charles(CharlesConfig()).summarize_pair(
        employee_pair(120, seed=5), "bonus", **_SHORTLISTS
    )
    # through JSON, like the child's, so floats compare by their repr
    return json.loads(json.dumps([[s.summary.describe(), s.score] for s in result.summaries]))


def _assert_served_on_repeat(config: dict, in_process_ranking) -> None:
    first = _engine_process(config)
    repeat = _engine_process(config)
    assert first["ranking"] == repeat["ranking"] == in_process_ranking
    assert first["total_candidates"] == repeat["total_candidates"]
    assert first["result_hits"] == 0 and first["candidates_evaluated"] > 0
    assert repeat["result_hits"] == 1
    assert repeat["cache_lookups"] == repeat["candidates_evaluated"] == 0
    # another shortlist is another request: it runs its own search
    narrower = _engine_process(config, dict(_SHORTLISTS, condition_attributes=["edu"]))
    assert narrower["result_hits"] == 0 and narrower["candidates_evaluated"] > 0


class TestExactRepeatAcrossProcesses:
    def test_served_from_a_cache_dir(self, tmp_path, in_process_ranking):
        config = {"cache_backend": "disk", "cache_dir": str(tmp_path)}
        _assert_served_on_repeat(config, in_process_ranking)

    def test_served_from_the_fabric(self, in_process_ranking):
        with AsyncCacheServer() as first, AsyncCacheServer() as second:
            config = {
                "cache_backend": "remote",
                "cache_url": f"{first.url},{second.url}",
                "cache_replication": 2,
            }
            _assert_served_on_repeat(config, in_process_ranking)

    def test_another_config_is_another_namespace(self, tmp_path):
        config = {"cache_backend": "disk", "cache_dir": str(tmp_path)}
        _engine_process(config)
        reseeded = _engine_process(dict(config, seed=123))
        assert reseeded["result_hits"] == 0 and reseeded["candidates_evaluated"] > 0
