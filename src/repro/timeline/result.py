"""Results of summarising a whole version chain."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.charles import CharlesResult
from repro.exceptions import TimelineError
from repro.search.stats import SearchStats
from repro.timeline.delta import VersionDelta

__all__ = ["TimelineHop", "TimelineResult"]


@dataclass(frozen=True)
class TimelineHop:
    """One hop of a timeline run: the versions, their delta and the summaries."""

    source_version: str
    target_version: str
    delta: VersionDelta
    result: CharlesResult

    @property
    def stats(self) -> SearchStats | None:
        """The hop's search statistics (``None`` for delta-skipped hops)."""
        return self.result.search_stats

    def ranking(self) -> list[tuple[str, float]]:
        """The hop's ranked summaries as ``(description, score)`` pairs.

        This is the byte-comparable form used by the incremental-equals-cold
        equivalence checks: rendered text plus exact score.
        """
        return [
            (scored.summary.describe(), scored.score) for scored in self.result.summaries
        ]


@dataclass(frozen=True)
class TimelineResult:
    """Everything produced by one ``summarize_timeline`` call, hop by hop."""

    target: str
    hops: tuple[TimelineHop, ...]

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self):
        return iter(self.hops)

    def hop(self, source_version: str, target_version: str) -> TimelineHop:
        """The hop between the two named versions."""
        for hop in self.hops:
            if hop.source_version == source_version and hop.target_version == target_version:
                return hop
        raise TimelineError(
            f"no hop {source_version!r} -> {target_version!r} in this timeline result"
        )

    def rankings(self) -> list[list[tuple[str, float]]]:
        """Every hop's ranking, oldest hop first (for equivalence checks)."""
        return [hop.ranking() for hop in self.hops]

    @property
    def total_wall_time_seconds(self) -> float:
        """Summed search wall time across all hops."""
        return sum(hop.stats.wall_time_seconds for hop in self.hops if hop.stats)

    @property
    def aggregate_stats(self) -> SearchStats:
        """Counter totals over all hops (wall time summed, n_jobs from the last hop)."""
        total = SearchStats()
        for hop in self.hops:
            if hop.stats is not None:
                total.merge(hop.stats)
        return total

    def describe(self, limit: int = 1) -> str:
        """A per-hop report showing the top ``limit`` summaries of each hop."""
        lines = [f"Timeline summaries for target '{self.target}' ({len(self.hops)} hop(s))"]
        for hop in self.hops:
            changed = int(hop.delta.changed_mask(self.target).sum())
            lines.append("")
            lines.append(
                f"== {hop.source_version} -> {hop.target_version} "
                f"({changed}/{hop.delta.num_rows} rows of '{self.target}' changed) =="
            )
            for rank, scored in enumerate(hop.result.summaries[:limit], start=1):
                lines.append(f"#{rank}  {scored.breakdown}")
                lines.append(scored.summary.describe())
            if hop.stats is not None:
                lines.append(f"search: {hop.stats.describe()}")
        aggregate = self.aggregate_stats
        lines.append("")
        lines.append(
            f"total: {aggregate.wall_time_seconds:.2f}s search time, "
            f"cache hit rate {100.0 * aggregate.cache_hit_rate:.1f}%"
        )
        return "\n".join(lines)
