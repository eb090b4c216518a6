"""Unit tests for the linear model tree structure."""

import numpy as np
import pytest

from repro.core.condition import Condition, Descriptor
from repro.exceptions import ModelFitError
from repro.ml.model_tree import LeafModel, LinearModelTree, ModelTreeLeaf, ModelTreeSplit
from repro.relational.table import Table

PHD = Condition.of(Descriptor.equals("edu", "PhD"))
MS = Condition.of(Descriptor.equals("edu", "MS"))
SENIOR_MS = Condition.of(Descriptor.equals("edu", "MS"), Descriptor.at_least("exp", 3))


@pytest.fixture()
def employees():
    return Table.from_rows(
        [
            {"edu": "PhD", "exp": 2, "bonus": 23000.0},
            {"edu": "MS", "exp": 5, "bonus": 16000.0},
            {"edu": "MS", "exp": 1, "bonus": 13000.0},
            {"edu": "BS", "exp": 2, "bonus": 11000.0},
        ]
    )


class TestLeafModel:
    def test_predict_linear_combination(self, employees):
        leaf = LeafModel(("bonus",), (1.05,), 1000.0, "bonus")
        assert leaf.predict(employees)[0] == pytest.approx(1.05 * 23000 + 1000)

    def test_identity_leaf(self, employees):
        leaf = LeafModel.identity("bonus")
        assert leaf.is_identity
        assert np.allclose(leaf.predict(employees), employees.numeric_column("bonus"))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ModelFitError):
            LeafModel(("a", "b"), (1.0,), 0.0, "a")

    def test_num_variables_ignores_zero_coefficients(self):
        leaf = LeafModel(("a", "b"), (1.0, 0.0), 5.0, "a")
        assert leaf.num_variables == 1

    def test_describe(self):
        leaf = LeafModel(("bonus",), (1.05,), 1000.0, "bonus")
        text = leaf.describe()
        assert "1.05*bonus" in text and "1000" in text
        assert "no change" in LeafModel.identity("bonus").describe()


class TestLinearModelTree:
    @pytest.fixture()
    def tree(self):
        return LinearModelTree.from_rules(
            [
                (PHD, LeafModel(("bonus",), (1.05,), 1000.0, "bonus")),
                (SENIOR_MS, LeafModel(("bonus",), (1.04,), 800.0, "bonus")),
                (MS, LeafModel(("bonus",), (1.03,), 400.0, "bonus")),
            ],
            target="bonus",
            default=LeafModel.identity("bonus"),
        )

    def test_structure(self, tree):
        assert tree.num_leaves == 4
        assert tree.depth == 3

    def test_first_match_routing(self, tree, employees):
        predictions = tree.predict(employees)
        assert predictions[0] == pytest.approx(1.05 * 23000 + 1000)
        assert predictions[1] == pytest.approx(1.04 * 16000 + 800)
        assert predictions[2] == pytest.approx(1.03 * 13000 + 400)
        assert predictions[3] == pytest.approx(11000.0)  # identity default

    def test_none_default_yields_nan(self, employees):
        tree = LinearModelTree.from_rules(
            [(PHD, LeafModel(("bonus",), (1.0,), 0.0, "bonus"))],
            target="bonus",
            default=None,
        )
        predictions = tree.predict(employees)
        assert not np.isnan(predictions[0])
        assert np.isnan(predictions[3])

    def test_unconditional_rule_terminates_chain(self, employees):
        tree = LinearModelTree.from_rules(
            [
                (Condition.always(), LeafModel(("bonus",), (2.0,), 0.0, "bonus")),
                (PHD, LeafModel(("bonus",), (3.0,), 0.0, "bonus")),
            ],
            target="bonus",
        )
        assert tree.num_leaves == 1
        assert np.allclose(tree.predict(employees), 2 * employees.numeric_column("bonus"))

    def test_leaves_paths_in_yes_before_no_order(self, tree):
        paths = tree.leaves()
        assert len(paths) == 4
        first_path, first_leaf = paths[0]
        assert len(first_path) == 1 and first_path[0][1] is True
        assert first_leaf is not None and not first_leaf.is_identity
        assert first_path[0][0] is PHD

    def test_manual_tree_composition(self, employees):
        split = ModelTreeSplit(
            Condition.of(Descriptor.at_least("exp", 3)),
            ModelTreeLeaf(LeafModel(("bonus",), (2.0,), 0.0, "bonus")),
            ModelTreeLeaf(None),
        )
        tree = LinearModelTree(split, "bonus")
        predictions = tree.predict(employees)
        assert predictions[1] == pytest.approx(32000.0)
        assert np.isnan(predictions[0])
