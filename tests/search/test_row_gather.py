"""Per-spec steps read partition rows through their masks, not table copies.

Fitting a partition, measuring its error, refining it and applying a summary
read a few numeric columns of the rows a mask selects, and refinement's
partition discovery reads the parent partition's rows through its mask.  They gather those
columns from the pair's full-table arrays (``Table.numeric_matrix(names,
rows)``) instead of copying the table with ``Table.mask``.  The gathered
matrix holds the same values in the same layout, so every result must equal
the one the copying path gives, bit for bit; the copying path is kept below
as the oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Charles, CharlesConfig
from repro.core.condition import Condition, Descriptor
from repro.core.summary import ChangeSummary, ConditionalTransformation
from repro.core.transformation import LinearTransformation
from repro.exceptions import ModelFitError
from repro.ml.linreg import LinearRegression
from repro.obs.trace import BufferSink, disable_tracing, get_tracer
from repro.relational import table as table_module
from repro.search.evaluator import CandidateEvaluator
from repro.workloads import employee_pair

TRANSFORMATION_SUBSETS = (("bonus",), ("salary",), ("bonus", "salary"), ("exp", "bonus"))


def _copying_fit(evaluator: CandidateEvaluator, transformation_subset, mask):
    """Transformation discovery on a copied partition table: the oracle."""
    if not mask.any():
        return None
    pair = evaluator._pair
    source_rows = pair.source.mask(mask)
    actual_new = pair.target.numeric_column("bonus")[mask]
    features = source_rows.numeric_matrix(list(transformation_subset))
    try:
        model = LinearRegression(ridge=evaluator._config.ridge).fit(features, actual_new)
        model = evaluator._trimmed_refit(model, features, actual_new)
    except ModelFitError:
        return None
    transformation = LinearTransformation.from_regression(model, transformation_subset, "bonus")
    if not transformation.feature_names and transformation.intercept == 0.0:
        return None
    error = CandidateEvaluator._partition_error
    baseline_error = error(transformation, source_rows, None, actual_new)
    identity = LinearTransformation.identity("bonus")
    if error(identity, source_rows, None, actual_new) <= baseline_error + 1e-9:
        return identity
    return transformation.snapped(source_rows, actual_new, evaluator._config.snapping_tolerance)[0]


def _masks(num_rows: int):
    return st.lists(st.booleans(), min_size=num_rows, max_size=num_rows).map(np.array)


PAIR = employee_pair(80, seed=4, noise_fraction=0.1)


class TestGatheredRows:
    @settings(max_examples=60, deadline=None)
    @given(mask=_masks(PAIR.num_rows), subset=st.sampled_from(TRANSFORMATION_SUBSETS))
    def test_fit_equals_the_copying_path(self, mask, subset):
        evaluator = CandidateEvaluator(PAIR, "bonus", CharlesConfig())
        fit = evaluator._fit_transformation(subset, mask)
        want = _copying_fit(evaluator, subset, mask)
        assert (None if fit is None else fit.transformation) == want
        if fit is not None:
            got = fit.transformation
            actual = PAIR.target.numeric_column("bonus")[mask]
            gathered = CandidateEvaluator._partition_error(got, PAIR.source, mask, actual)
            copied = CandidateEvaluator._partition_error(got, PAIR.source.mask(mask), None, actual)
            assert np.float64(gathered).tobytes() == np.float64(copied).tobytes()
            # the error the fit memo keeps is the one refinement used to compute
            assert np.float64(fit.error).tobytes() == np.float64(gathered).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(mask=_masks(PAIR.num_rows), subset=st.sampled_from(TRANSFORMATION_SUBSETS))
    def test_numeric_matrix_and_apply_equal_the_copied_table(self, mask, subset):
        names = list(subset)
        copied = PAIR.source.mask(mask)
        indices = np.flatnonzero(mask)
        assert PAIR.source.numeric_matrix(names, mask).tobytes() == (
            copied.numeric_matrix(names).tobytes()
        )
        assert PAIR.source.numeric_matrix(names, indices).tobytes() == (
            copied.numeric_matrix(names).tobytes()
        )
        transformation = LinearTransformation("bonus", subset, (1.05,) * len(subset), 250.0)
        for candidate in (transformation, LinearTransformation("bonus", (), (), 3.0)):
            assert candidate.apply(PAIR.source, mask).tobytes() == (
                candidate.apply(copied).tobytes()
            )

    def test_summary_apply_copies_no_table(self, monkeypatch):
        summary = ChangeSummary(
            "bonus",
            (
                ConditionalTransformation(
                    Condition.of(Descriptor.equals("edu", "PhD")),
                    LinearTransformation("bonus", ("bonus",), (1.05,), 1000.0),
                ),
                ConditionalTransformation(
                    Condition.of(Descriptor.equals("edu", "MS")),
                    LinearTransformation("bonus", ("bonus", "salary"), (1.0, 0.01), 0.0),
                ),
            ),
        )
        want = np.full(PAIR.num_rows, np.nan)
        for assignment in summary.partition_assignments(PAIR.source):
            rows = PAIR.source.mask(assignment.mask)
            if assignment.conditional_transformation is not None:
                want[assignment.mask] = assignment.conditional_transformation.transformation.apply(
                    rows
                )
            else:
                want[assignment.mask] = rows.numeric_column("bonus")
        copies = []
        original = table_module.Table.take
        monkeypatch.setattr(
            table_module.Table, "take", lambda self, indices: copies.append(1) or original(self, indices)
        )
        got = summary.apply(PAIR.source)
        assert copies == []
        assert got.tobytes() == want.tobytes()

    def test_a_refined_search_copies_no_table_after_alignment(self, monkeypatch):
        pair = employee_pair(150, seed=11, noise_fraction=0.05)
        copies = []
        for name in ("take", "mask"):
            original = getattr(table_module.Table, name)

            def spy(self, rows, _name=name, _original=original):
                copies.append(_name)
                return _original(self, rows)

            monkeypatch.setattr(table_module.Table, name, spy)
        sink = BufferSink()
        get_tracer().configure(sink)
        try:
            result = Charles(CharlesConfig()).summarize_pair(pair, "bonus")
        finally:
            disable_tracing()
        assert result.summaries
        # refinement discovered partitions inside a partition's rows
        sub_scopes = [
            record for record in sink.records
            if record["name"] == "partitions.resolve" and not record["attributes"]["top_level"]
        ]
        assert any(record["attributes"]["clustered"] for record in sub_scopes)
        assert any(record["attributes"]["induced"] for record in sub_scopes)
        assert copies == []
