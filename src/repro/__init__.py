"""ChARLES — Change-Aware Recovery of Latent Evolution Semantics in Relational Data.

A from-scratch reproduction of the SIGMOD 2025 demonstration paper by He,
Meliou and Fariha.  Given two snapshots of a relation (same schema, same
entities, only numeric cell updates), ChARLES recovers ranked, human-readable
*change summaries* — sets of ``condition -> linear transformation`` rules that
explain how a target attribute evolved and why.

Quick start::

    from repro import Charles
    from repro.workloads import example_snapshots

    source, target = example_snapshots()          # the paper's Fig. 1 tables
    result = Charles().summarize(source, target, target="bonus", key="name")
    print(result.best.summary.describe())

Package layout:

* :mod:`repro.relational`  — typed tables, predicates, CSV I/O, snapshot alignment
* :mod:`repro.ml`          — regression, k-means, association measures, model trees
* :mod:`repro.core`        — the ChARLES contribution (conditions, transformations,
  scoring, setup assistant, partition discovery, the ``Charles`` facade)
* :mod:`repro.search`      — the candidate search: planner, score bounds, memo
  caches, evaluator, and the one executor (serial or over a process pool)
* :mod:`repro.diff`        — syntactic baselines: cell diffs, update distance, drift
  (imported eagerly: it is small and loads no engine module)
* :mod:`repro.baselines`   — exhaustive / global-regression / greedy-tree baselines
* :mod:`repro.timeline`    — versioned snapshot chains, deltas, warm engine sessions
* :mod:`repro.cachestore`  — pluggable cache stores (in-process, disk, remote) behind
  one backend contract
* :mod:`repro.cacheserver` — the cache fabric: wire protocol, asyncio cache server,
  consistent-hash ring and the sharded remote backend
* :mod:`repro.serving`     — the multi-tenant HTTP front door behind ``charles serve``
* :mod:`repro.obs`         — tracing spans, Prometheus metrics and trace analysis
* :mod:`repro.workloads`   — synthetic datasets with known ground-truth policies
* :mod:`repro.evaluation`  — recovery metrics and the experiment harness
* :mod:`repro.viz`         — ASCII model trees, partition treemaps, markdown reports
* :mod:`repro.cli`         — the ``charles`` command-line front-end

The names below are imported from the module that defines them on first
use, so ``import repro`` loads nothing else and each process loads only the
parts it runs.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, Sequence

__version__ = "1.0.0"


def _lazy_exports(
    package: str, modules: Mapping[str, Sequence[str]]
) -> tuple[dict[str, str], Callable[[str], object], Callable[[], list[str]]]:
    """``(name -> defining module, __getattr__, __dir__)`` of a lazy package.

    ``modules`` maps each defining module to the names the package
    re-exports from it.  The first lookup of a name (``package.Name``,
    ``from package import Name`` or ``from package import *``) imports its
    defining module (PEP 562) and binds the object in the package, so it is
    the object the defining module holds and later lookups are plain
    attribute reads.  No public name may equal the name of one of the
    package's submodules: importing that submodule would rebind the package
    attribute to the module.
    """
    exports = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # the import statement's machinery, so `python -X importtime` logs it
        __import__(module)
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return exports, __getattr__, __dir__


# names resolve on first use, so `import repro` loads no other repro module
# and a process imports only the parts of the engine it runs
_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.charles": ("Charles", "CharlesResult"),
    "repro.core.config": ("CharlesConfig", "InterpretabilityWeights", "ServingConfig"),
    "repro.core.condition": ("Condition", "Descriptor"),
    "repro.core.transformation": ("LinearTransformation",),
    "repro.core.summary": ("ChangeSummary", "ConditionalTransformation"),
    "repro.core.scoring": ("ScoreBreakdown", "score_summary"),
    "repro.core.setup_assistant": ("SetupAssistant", "SetupSuggestions"),
    "repro.search.evaluator": ("ScoredSummary",),
    "repro.relational.table": ("Table",),
    "repro.relational.schema": ("Schema", "Column", "DType"),
    "repro.relational.snapshot": ("SnapshotPair",),
    "repro.relational.csv_io": ("read_csv", "write_csv"),
    "repro.timeline.store": ("TimelineStore",),
    "repro.timeline.delta": ("VersionDelta",),
    "repro.timeline.session": ("EngineSession",),
    "repro.timeline.result": ("TimelineHop", "TimelineResult"),
    "repro.exceptions": (
        "CharlesError",
        "SchemaError",
        "SnapshotAlignmentError",
        "ModelFitError",
        "ConfigurationError",
        "DiscoveryError",
        "TimelineError",
    ),
})
__all__ = list(_EXPORTS)
