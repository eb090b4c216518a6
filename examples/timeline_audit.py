"""Timeline audit: track a latent policy as it evolves across many versions.

A payroll roster receives a new export every period; each period a different
latent policy moves the bonuses (a PhD retention wave, an MS tenure wave, a BS
catch-up wave, a salary-only adjustment that leaves bonuses alone).  One warm
:class:`~repro.timeline.session.EngineSession` audits every hop of the chain:
the delta layer shows where each hop concentrated its edits (and skips the hop
that never touched the bonus), while the session's persistent caches and
warm-started pruning floors keep repeated audits cheap — with rankings
guaranteed byte-identical to cold one-shot runs.

Run with::

    PYTHONPATH=src python examples/timeline_audit.py
"""

from __future__ import annotations

from repro import Charles, EngineSession
from repro.diff import timeline_diff
from repro.workloads import streaming_employee_timeline


def main() -> None:
    # a 5-version roster chain with known per-hop policies (ground truth)
    store, policies = streaming_employee_timeline(400, num_versions=5, seed=42)
    print(f"timeline: {' -> '.join(store.names)} ({store.latest.num_rows} employees)")
    for policy in policies:
        print(f"  latent {policy.name}: {policy.description}")
    print()

    # the syntactic view first: what did each hop actually touch?
    for source, target, report in timeline_diff(store):
        attributes = ", ".join(
            f"{diff.attribute} ({diff.changed_cells} cells)" for diff in report.attribute_diffs
        ) or "nothing"
        print(f"{source} -> {target}: {attributes}")
    print()

    # the semantic view: one warm session recovers each hop's bonus policy
    session = EngineSession()
    result = session.summarize_timeline(store, target="bonus")
    print(result.describe(limit=1))
    print()
    print(
        f"session: {session.runs_completed} searches, "
        f"cache counters {session.cache_counters()}"
    )

    # the hard invariant, demonstrated on the first hop: a cold one-shot run
    # ranks byte-identically to the warm session
    first_hop = result.hops[0]
    cold = Charles().summarize_pair(store.pair("v1", "v2"), "bonus")
    identical = first_hop.ranking() == [
        (scored.summary.describe(), scored.score) for scored in cold.summaries
    ]
    print(f"warm ranking identical to cold ranking on v1 -> v2: {identical}")


if __name__ == "__main__":
    main()
