"""Cross-commit ranking goldens: the top-k must stay byte-identical.

Performance work must not move a ranking.  These tests pin the sha256 of the
ranked top-k (each summary's ``describe()`` text and exact score, digested as
perfbench's ``common.digest_rankings`` does) for three fixed inputs, so that
"rankings are byte-identical to the parent" is checkable without running the
benchmark.  Scores are exact floats: a change that is meant to move a ranking
must say so in CHANGES.md and regenerate these digests.
"""

import hashlib
import json

from repro import Charles
from repro.workloads import employee_pair
from repro.workloads.streaming import streaming_employee_timeline

EMPLOYEE_DIGEST = "3ac92cf6d954445ed64d0c39d88f48c3ae39e3cb9ae3a7638a64ef8309372c02"

SHORTLISTED_DIGEST = "b6d40b9f720840688bfa294f3d65d36e797bed72a25a8ebfdfa19ba19c917935"

TIMELINE_DIGESTS = [
    "f4e00c5f551c269dd369c1580fe2b007ef8800ebada9247888472e65b4ce5065",
    "512139e99ae027874b7b0ba4290478ae7b7941e36882b30880b0b91c4b892a4a",
    "53bc9b073b965f4d89d67f9b8585d0cca4e706a4c885ae038f75b4db538d0395",
    "c769d645da3d31b1e5d54f571c1255e42c3b740679c60dee9fd05b4e5f201b24",
    "3751701eb1cd7f0dc9877d0419dd380733d6365f644a1853afac105cb5dd0140",
]


def _digest(ranking) -> str:
    text = json.dumps([[summary, float(score)] for summary, score in ranking])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_employee_pair_ranking_is_pinned():
    """300 keyed rows, no missing values, default configuration."""
    result = Charles().summarize_pair(employee_pair(300, seed=11), "bonus")
    ranking = [(scored.summary.describe(), scored.score) for scored in result.summaries]
    assert len(ranking) == 10
    assert _digest(ranking) == EMPLOYEE_DIGEST


def test_shortlisted_pair_ranking_is_pinned():
    """perfbench's pair-cold shape: 500 rows, conditions edu, salary,
    transformations bonus, salary, default configuration."""
    result = Charles().summarize_pair(
        employee_pair(500, seed=3),
        "bonus",
        condition_attributes=["edu", "salary"],
        transformation_attributes=["bonus", "salary"],
    )
    ranking = [(scored.summary.describe(), scored.score) for scored in result.summaries]
    assert len(ranking) == 10
    assert _digest(ranking) == SHORTLISTED_DIGEST


def test_streaming_timeline_rankings_are_pinned():
    """A 6-version, 200-row streaming chain: one pinned ranking per hop."""
    store, _ = streaming_employee_timeline(200, num_versions=6, seed=5)
    result = Charles().summarize_timeline(store, "bonus")
    assert [_digest(ranking) for ranking in result.rankings()] == TIMELINE_DIGESTS
