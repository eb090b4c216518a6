"""Definitions shared by the benchmark's processes."""

import hashlib
import json

from inputs import KEY, TARGET

__all__ = [
    "KEY", "TARGET", "LIGHT_CONFIG", "SERVE_CONFIG", "SERVE_SHORTLISTS", "SHORTLISTS",
    "digest_rankings", "digest_result",
]

#: the light configuration of bench_serving.py's tenants, used by the chain
#: workloads so a run holds dozens of hops instead of a handful
LIGHT_CONFIG = {"max_partitions": 2, "max_condition_attributes": 2, "top_k": 5}

#: the served tenants' configuration.  Warm starts and partition maintenance
#: are off so that an engine session keeps no state between requests beyond
#: the shared fabric: whichever tenant's request leads a deduplicated flight,
#: the work done (and so every count) is the same.
SERVE_CONFIG = dict(LIGHT_CONFIG, warm_start=False, partition_maintenance=False)

#: the (condition, transformation) attribute shortlists every summarize uses,
#: pinned as an analyst would pin them in steps 4-5 of the demo.  Left to the
#: setup assistant, the shortlist length depends on the input, and a search
#: over one more condition attribute costs three times as much, which would
#: make op times depend on the seed far more than on the program.
SHORTLISTS = (["edu", "salary"], ["bonus", "salary"])

#: the served tenants pin ``exp`` in place of ``salary``.  Served read
#: latencies fall into a cheap and a dear group (fabric round trips grow
#: with the search); with ``salary`` the groups are the same size and the
#: median jumps between them from run to run, with ``exp`` the cheap group
#: holds about two thirds of the reads and the median sits inside it.
SERVE_SHORTLISTS = (["edu", "exp"], ["bonus", "salary"])


def digest_rankings(rankings) -> str:
    """Digest of a ranking given as ``[(describe() text, score), ...]``."""
    text = json.dumps([[summary, float(score)] for summary, score in rankings])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_result(result) -> str:
    """Digest of a ``CharlesResult``'s top-k: every summary's text and score."""
    return digest_rankings((s.summary.describe(), s.score) for s in result.summaries)
