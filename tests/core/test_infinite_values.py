"""A non-finite value is a missing value, from the fits to the scorer.

One infinite cell must not decide a ranking: the regression fits drop the
row, the global residual behind clustering is zero there, condition
induction and condition predicates skip it, the error kernel skips it, and
scoring already ignores it.  The two measured cases check the
end result: a pair with the first changed new ``bonus`` set to ``inf`` ranks
exactly as the same pair with that cell blank.
"""

import numpy as np
import pytest

from repro.core import Charles, CharlesConfig
from repro.core.condition import Descriptor
from repro.core.partitioning import _global_residuals, _numeric_descriptor, clustering_matrix
from repro.core.transformation import partition_errors
from repro.exceptions import ModelFitError
from repro.ml.kmeans import KMeans
from repro.ml.linreg import LinearRegression
from repro.relational.snapshot import SnapshotPair
from repro.relational.table import Table
from repro.workloads import employee_pair


def _with_first_changed(pair: SnapshotPair, value, target: str = "bonus") -> SnapshotPair:
    row = int(np.nonzero(pair.changed_mask(target))[0][0])
    values = pair.target.column(target)
    values[row] = value
    return SnapshotPair(pair.source, pair.target.with_column(target, values), pair.key)


def _with_first_changed_source(pair: SnapshotPair, value, column: str = "salary") -> SnapshotPair:
    row = int(np.nonzero(pair.changed_mask("bonus"))[0][0])
    values = pair.source.column(column)
    values[row] = value
    return SnapshotPair(pair.source.with_column(column, values), pair.target, pair.key)


def _ranking(pair: SnapshotPair, conditions, transformations) -> list[str]:
    result = Charles(CharlesConfig()).summarize_pair(pair, "bonus", conditions, transformations)
    return [scored.describe() for scored in result.summaries]


class TestFitsDropNonFiniteRows:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_fit_equals_the_fit_without_the_row(self, bad):
        features = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        target = np.array([3.0, 5.0, 7.0, 9.0, 11.0])
        dirty_target = target.copy()
        dirty_target[2] = bad
        dirty_features = features.copy()
        dirty_features[4, 0] = bad
        keep = [0, 1, 3, 4]
        for x, y, rows in (
            (features, dirty_target, keep),
            (dirty_features, target, [0, 1, 2, 3]),
        ):
            model = LinearRegression().fit(x, y)
            clean = LinearRegression().fit(features[rows], target[rows])
            assert model.coefficients.tolist() == clean.coefficients.tolist()
            assert model.intercept == clean.intercept

    def test_nothing_finite_is_nothing_usable(self):
        with pytest.raises(ModelFitError):
            LinearRegression().fit(np.array([[1.0], [2.0]]), np.array([np.inf, -np.inf]))


class TestGlobalResidualsZeroNonFinite:
    def test_infinite_new_value_has_zero_residual(self):
        config = CharlesConfig()
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        new_values = np.array([2.0, 4.5, np.inf, 8.0, 9.0])
        residuals = _global_residuals(x[:, None], new_values, config)
        finite = np.isfinite(new_values)
        line = LinearRegression(ridge=config.ridge).fit(x[finite, None], new_values[finite])
        assert residuals[2] == 0.0
        assert residuals[finite].tolist() == line.residuals(x[finite, None], new_values[finite]).tolist()


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_infinite_feature_gets_a_zero_residual_without_a_warning(self):
        # the fit drops the last row; predicting it sums inf and -inf to NaN
        features = np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0], [4.0, 5.0], [np.inf, -np.inf]])
        new_values = np.array([2.0, 5.0, 5.0, 9.0, 1.0])
        residuals = _global_residuals(features, new_values, CharlesConfig())
        assert residuals[:4] == pytest.approx(np.zeros(4), abs=1e-6)
        assert residuals[4] == 0.0


class TestErrorKernelSkipsNonFiniteActuals:
    def test_same_errors_as_with_the_value_missing(self):
        matrix = np.array([[1.0], [2.0], [3.0], [4.0]])
        coefficients, intercepts = [[1.0], [2.0], [0.5]], [0.0, 1.0, -1.0]
        infinite = np.array([1.0, np.inf, 2.0, -np.inf])
        blank = np.array([1.0, np.nan, 2.0, np.nan])
        got = partition_errors(matrix, coefficients, intercepts, infinite)
        want = partition_errors(matrix, coefficients, intercepts, blank)
        assert got.tobytes() == want.tobytes()


class TestInfiniteCellRanksLikeABlankOne:
    def test_employee_300(self):
        pair = employee_pair(300, seed=7)
        shortlists = (["edu", "exp"], ["bonus", "salary"])
        infinite = _ranking(_with_first_changed(pair, float("inf")), *shortlists)
        blank = _ranking(_with_first_changed(pair, None), *shortlists)
        assert infinite == blank
        assert "accuracy=1.000" in infinite[0]

    def test_first_399_rows_of_employee_2000(self):
        full = employee_pair(2000, seed=7)
        rows = np.arange(full.num_rows) < 399
        pair = SnapshotPair(full.source.mask(rows), full.target.mask(rows), full.key)
        shortlists = (["edu", "salary"], ["bonus", "salary"])
        infinite = _ranking(_with_first_changed(pair, float("inf")), *shortlists)
        blank = _ranking(_with_first_changed(pair, None), *shortlists)
        assert infinite == blank
        assert "score=0.859" in infinite[0]


class TestInfiniteConditionValueIsImputed:
    """An infinite condition value clusters like a missing one."""

    def test_clustering_matrix_equals_the_blank_cell_one(self):
        pair = employee_pair(300, seed=7)
        changed = np.nonzero(pair.changed_mask("bonus"))[0]
        matrices = [
            clustering_matrix(
                _with_first_changed_source(pair, value), "bonus", changed,
                ["edu", "salary"], ["bonus"], CharlesConfig(),
            )
            for value in (float("inf"), float("-inf"), None)
        ]
        assert np.isfinite(matrices[0]).all()
        assert matrices[0].tobytes() == matrices[1].tobytes() == matrices[2].tobytes()

    def test_infinite_old_target_scales_like_a_blank_one(self):
        # the relative residual divides by the old value; a non-finite one
        # falls back to the same floor as a missing one
        pair = employee_pair(300, seed=7)
        changed = np.nonzero(pair.changed_mask("bonus"))[0]
        matrices = [
            clustering_matrix(
                _with_first_changed_source(pair, value, column="bonus"), "bonus", changed,
                ["edu"], ["salary"], CharlesConfig(),
            )
            for value in (float("inf"), float("-inf"), None)
        ]
        assert matrices[0].tobytes() == matrices[1].tobytes() == matrices[2].tobytes()

    def test_summarize_returns_finite_scores(self):
        pair = _with_first_changed_source(employee_pair(300, seed=7), float("inf"))
        result = Charles().summarize_pair(
            pair, "bonus", condition_attributes=["edu", "salary"],
            transformation_attributes=["bonus"],
        )
        assert result.summaries
        assert all(np.isfinite(scored.score) for scored in result.summaries)

    @pytest.mark.parametrize(
        "values, member",
        [
            ([1.0, np.inf, 10.0, 11.0], [True, True, False, False]),
            ([1.0, 2.0, 10.0, -np.inf], [True, True, False, False]),
        ],
        ids=["inf-member", "minus-inf-rest"],
    )
    def test_induced_threshold_ignores_the_cell(self, values, member):
        member = np.array(member)
        blank = [value if np.isfinite(value) else np.nan for value in values]
        descriptors = [
            _numeric_descriptor(
                Table.from_columns({"x": column}), "x", member, ~member, CharlesConfig()
            )
            for column in (values, blank)
        ]
        assert descriptors[0] == descriptors[1]
        assert str(descriptors[0]) == "x < 6"

    @pytest.mark.parametrize(
        "descriptor",
        [Descriptor.at_least("x", 0), Descriptor.less_than("x", 5), Descriptor.between("x", -1, 5)],
        ids=str,
    )
    def test_no_numeric_condition_holds_on_the_cell(self, descriptor):
        table = Table.from_columns({"x": [np.inf, -np.inf, np.nan, 1.0]})
        assert descriptor.mask(table).tolist() == [False, False, False, True]

    def test_condition_induction_ranks_like_the_blank_cell(self):
        # the thresholds induced over `salary` must not see the infinite cell
        pair = employee_pair(300, seed=7)
        rankings = [
            [
                scored.describe()
                for scored in Charles(CharlesConfig()).summarize_pair(
                    _with_first_changed_source(pair, value), "bonus",
                    ["edu", "salary"], ["bonus"],
                ).summaries[:10]
            ]
            for value in (float("inf"), float("-inf"), None)
        ]
        assert rankings[0] == rankings[2]
        assert rankings[1] == rankings[2]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_kmeans_rejects_non_finite_input(self, bad):
        with pytest.raises(ModelFitError, match="non-finite"):
            KMeans(2).fit(np.array([[0.0, 1.0], [bad, 2.0], [3.0, 4.0]]))


class TestSetupAssistantIgnoresInfiniteValues:
    def test_unpinned_ranking_equals_the_blank_cell_one(self):
        # the shortlists come from the correlations, which must skip the cell
        pair = employee_pair(300, seed=7)
        rankings = [
            Charles(CharlesConfig()).summarize_pair(_with_first_changed(pair, value), "bonus")
            for value in (float("inf"), None)
        ]
        infinite, blank = ([s.describe() for s in r.summaries[:10]] for r in rankings)
        assert infinite == blank
        assert round(rankings[0].summaries[0].score, 3) == 0.933
