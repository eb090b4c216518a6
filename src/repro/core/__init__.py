"""The ChARLES core: the paper's primary contribution.

Submodules, in dependency order:

* :mod:`~repro.core.config` — :class:`CharlesConfig`, every tunable parameter.
* :mod:`~repro.core.normality` — roundness prior for numeric constants.
* :mod:`~repro.core.condition` — descriptors and conditions (partition "why").
* :mod:`~repro.core.transformation` — linear update rules (partition "what").
* :mod:`~repro.core.summary` — conditional transformations and change summaries.
* :mod:`~repro.core.scoring` — accuracy, interpretability, and the alpha tradeoff.
* :mod:`~repro.core.setup_assistant` — correlation-based attribute shortlists.
* :mod:`~repro.core.partitioning` — regression-guided k-means partition discovery.
* :mod:`~repro.core.charles` — the :class:`Charles` facade: validates a request,
  plans the candidate space and runs it through :mod:`repro.search`.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.charles": ("Charles", "CharlesResult"),
    "repro.core.config": ("CharlesConfig", "InterpretabilityWeights", "ServingConfig"),
    "repro.core.condition": ("Condition", "Descriptor", "DescriptorKind"),
    "repro.core.transformation": ("LinearTransformation",),
    "repro.core.summary": (
        "ChangeSummary",
        "ConditionalTransformation",
        "PartitionAssignment",
    ),
    "repro.core.scoring": ("ScoreBreakdown", "accuracy", "interpretability", "score_summary"),
    "repro.core.setup_assistant": ("SetupAssistant", "SetupSuggestions", "AttributeSuggestion"),
    "repro.core.partitioning": ("Partition", "discover_partitions", "induce_condition"),
    "repro.search.evaluator": ("ScoredSummary",),
    "repro.core.sql": ("condition_to_sql", "transformation_to_sql", "summary_to_sql_update"),
})
__all__ = list(_EXPORTS)
