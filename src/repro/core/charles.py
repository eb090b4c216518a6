"""The public facade of the reproduction: the :class:`Charles` system.

``Charles`` wires the setup assistant, the diff discovery engine and the
scoring machinery together behind the workflow of the paper's demonstration
(Fig. 4): load two snapshots, pick a target attribute, optionally tune the
parameters and the attribute shortlists, then request a ranked list of change
summaries.

Typical use::

    from repro import Charles
    from repro.relational import read_csv

    charles = Charles()
    result = charles.summarize(read_csv("2016.csv"), read_csv("2017.csv"),
                               target="bonus", key="name")
    print(result.best.summary.describe())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import CharlesConfig
from repro.core.discovery import DiffDiscoveryEngine, ScoredSummary
from repro.core.setup_assistant import SetupAssistant, SetupSuggestions
from repro.exceptions import DiscoveryError
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.search.bounds import ScoreBoundIndex
from repro.search.cache import SearchCaches
from repro.search.planner import SearchPlan, build_search_plan
from repro.search.stats import SearchStats

__all__ = ["Charles", "CharlesResult"]


@dataclass(frozen=True)
class CharlesResult:
    """Everything produced by one :meth:`Charles.summarize` call."""

    pair: SnapshotPair
    target: str
    suggestions: SetupSuggestions
    summaries: tuple[ScoredSummary, ...]
    config: CharlesConfig
    condition_attributes: tuple[str, ...]
    transformation_attributes: tuple[str, ...]
    total_candidates: int
    search_stats: SearchStats | None = None

    @property
    def best(self) -> ScoredSummary:
        """The highest-scoring summary."""
        if not self.summaries:
            raise DiscoveryError("no summaries were produced")
        return self.summaries[0]

    def explain_entity(self, key_value: object) -> str:
        """Which rule of the best summary applies to one entity, and what it predicts.

        This is the drill-down a demo participant performs after step 10: pick
        an employee and ask "which part of the policy hit them, and does it
        reproduce their new value?".
        """
        try:
            index = self.pair.key_values.index(key_value)
        except ValueError as exc:
            raise DiscoveryError(f"unknown entity {key_value!r}") from exc
        summary = self.best.summary
        source = self.pair.source
        old_value = source.numeric_column(self.target)[index]
        new_value = self.pair.target.numeric_column(self.target)[index]
        assignments = summary.partition_assignments(source)
        for position, assignment in enumerate(assignments, start=1):
            if not assignment.mask[index]:
                continue
            if assignment.is_fallback:
                rule_text = "no rule applies (value treated as unchanged)"
                predicted = old_value
            else:
                ct = assignment.conditional_transformation
                rule_text = f"rule R{position}: {ct}"
                predicted = float(ct.transformation.apply(source.mask(assignment.mask))[
                    int(assignment.mask[: index].sum())
                ])
            return (
                f"{self.pair.key or 'row'}={key_value!r}: {self.target} "
                f"{old_value:g} -> {new_value:g}; {rule_text}; "
                f"predicted {predicted:g} (error {abs(predicted - new_value):g})"
            )
        raise DiscoveryError(f"entity {key_value!r} was not assigned to any partition")

    def describe(self, limit: int | None = None) -> str:
        """A human-readable report of the top ``limit`` summaries (all by default)."""
        shown = self.summaries if limit is None else self.summaries[:limit]
        lines = [
            f"ChARLES summaries for target '{self.target}' "
            f"(showing {len(shown)} of {self.total_candidates} candidates)",
            f"condition attributes: {list(self.condition_attributes)}",
            f"transformation attributes: {list(self.transformation_attributes)}",
            "",
        ]
        for rank, scored in enumerate(shown, start=1):
            lines.append(f"#{rank}  {scored.breakdown}")
            lines.append(scored.summary.describe())
            lines.append("")
        return "\n".join(lines)


class Charles:
    """Change-Aware Recovery of Latent Evolution Semantics — system facade."""

    def __init__(self, config: CharlesConfig | None = None):
        self._config = config or CharlesConfig()
        self._assistant = SetupAssistant(self._config)
        self._engine = DiffDiscoveryEngine(self._config)

    @property
    def config(self) -> CharlesConfig:
        """The active configuration."""
        return self._config

    def with_config(self, **changes) -> "Charles":
        """A new ``Charles`` instance with some configuration fields replaced."""
        return Charles(self._config.replace(**changes))

    def session(self):
        """A long-lived :class:`~repro.timeline.session.EngineSession` with this config.

        The session keeps memo caches and warm-start pruning floors alive
        across runs, so summarising consecutive hops of a version chain reuses
        every computation whose input rows are untouched.  Rankings stay
        byte-identical to one-shot ``summarize`` calls.
        """
        from repro.timeline.session import EngineSession

        return EngineSession(self._config)

    def summarize_timeline(
        self,
        timeline,
        target: str,
        condition_attributes: Sequence[str] | None = None,
        transformation_attributes: Sequence[str] | None = None,
        window: int = 1,
    ):
        """Summarise every hop of a :class:`~repro.timeline.store.TimelineStore`.

        A convenience that runs a fresh :meth:`session` over the chain; hold
        on to a session directly when more queries will follow, so its warmth
        carries over.  Returns a
        :class:`~repro.timeline.result.TimelineResult`.
        """
        return self.session().summarize_timeline(
            timeline,
            target,
            condition_attributes=condition_attributes,
            transformation_attributes=transformation_attributes,
            window=window,
        )

    def plan_pair(
        self,
        pair: SnapshotPair,
        target: str,
        condition_attributes: Sequence[str] | None = None,
        transformation_attributes: Sequence[str] | None = None,
    ) -> tuple[SearchPlan, ScoreBoundIndex | None]:
        """Dry-run of :meth:`summarize_pair`: the search plan, nothing evaluated.

        Returns the fully enumerated :class:`~repro.search.planner.SearchPlan`
        the search would execute (same setup-assistant shortlists, same
        rounds) plus the :class:`~repro.search.bounds.ScoreBoundIndex` over
        the pair — ``None`` when ``prune_search`` is off or the plan is
        empty, since no bound pruning would run — so operators can see plan
        size, per-round spec counts and bound histograms before paying for a
        run (``charles plan``).
        """
        suggestions = self._assistant.suggest(pair, target)
        if condition_attributes is None:
            condition_attributes = suggestions.selected_condition_attributes
        if transformation_attributes is None:
            transformation_attributes = suggestions.selected_transformation_attributes
        plan = build_search_plan(condition_attributes, transformation_attributes, self._config)
        index = None
        if self._config.prune_search and len(plan):
            index = ScoreBoundIndex(pair, target, self._config)
        return plan, index

    # -- the demo workflow -------------------------------------------------------

    def suggest_attributes(
        self, source: Table, target_table: Table, target: str, key: str | None = None
    ) -> SetupSuggestions:
        """Steps 4–5 of the demo: the setup assistant's attribute shortlists."""
        pair = SnapshotPair.align(source, target_table, key=key)
        return self._assistant.suggest(pair, target)

    def summarize(
        self,
        source: Table,
        target_table: Table,
        target: str,
        key: str | None = None,
        condition_attributes: Sequence[str] | None = None,
        transformation_attributes: Sequence[str] | None = None,
    ) -> CharlesResult:
        """Steps 1–8 of the demo: produce the ranked list of change summaries.

        Parameters
        ----------
        source, target_table:
            The earlier and later snapshots (identical schema, same entities).
        target:
            The numeric attribute whose evolution should be explained.
        key:
            Entity-identifying column used to align the snapshots; defaults to
            the source table's primary key, falling back to row order.
        condition_attributes, transformation_attributes:
            Explicit attribute shortlists.  When omitted, the setup assistant's
            selections (correlation threshold + the ``c``/``t`` caps) are used,
            exactly as in the demo's default path.
        """
        pair = SnapshotPair.align(source, target_table, key=key)
        return self.summarize_pair(
            pair,
            target,
            condition_attributes=condition_attributes,
            transformation_attributes=transformation_attributes,
        )

    def summarize_all(
        self,
        pair: SnapshotPair,
        targets: Sequence[str] | None = None,
    ) -> dict[str, CharlesResult]:
        """Summaries for every (or the given) changed numeric attribute of a pair.

        A convenience for exploratory use: the demo focuses on one target
        attribute at a time, but an analyst facing an unfamiliar snapshot pair
        usually first wants "what changed at all, and what explains each of
        those changes?".
        """
        if targets is None:
            targets = [
                name
                for name in pair.changed_attributes()
                if pair.schema.column(name).is_numeric
            ]
        return {target: self.summarize_pair(pair, target) for target in targets}

    def summarize_pair(
        self,
        pair: SnapshotPair,
        target: str,
        condition_attributes: Sequence[str] | None = None,
        transformation_attributes: Sequence[str] | None = None,
        *,
        caches: SearchCaches | None = None,
        initial_floor: float = float("-inf"),
    ) -> CharlesResult:
        """Same as :meth:`summarize` but starting from an already-aligned pair.

        ``caches`` and ``initial_floor`` are the session hooks: an
        :class:`~repro.timeline.session.EngineSession` passes its persistent
        memo caches and warm-start pruning floor through here so warm and
        cold runs share one code path (which is what makes their rankings
        provably identical).  One-shot callers leave both at their defaults.
        """
        suggestions = self._assistant.suggest(pair, target)
        if condition_attributes is None:
            condition_attributes = suggestions.selected_condition_attributes
        if transformation_attributes is None:
            transformation_attributes = suggestions.selected_transformation_attributes
        ranked, stats = self._engine.discover_with_stats(
            pair,
            target,
            condition_attributes,
            transformation_attributes,
            caches=caches,
            initial_floor=initial_floor,
        )
        top = tuple(ranked[: self._config.top_k])
        return CharlesResult(
            pair=pair,
            target=target,
            suggestions=suggestions,
            summaries=top,
            config=self._config,
            condition_attributes=tuple(condition_attributes),
            transformation_attributes=tuple(transformation_attributes),
            # score-bound-pruned specs were distinct summaries that provably
            # fell below the top-k; duplicate-pruned specs are not counted —
            # they would have merged into an existing candidate anyway — and
            # neither are spec-bound prunes, which never built a summary (so
            # whether they were distinct candidates is unknowable without
            # paying for the discovery the bound exists to avoid)
            total_candidates=len(ranked) + stats.candidates_pruned_bounds,
            search_stats=stats,
        )
