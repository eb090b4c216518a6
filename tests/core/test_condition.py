"""Unit tests for descriptors and conditions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.condition import Condition, Descriptor, DescriptorKind
from repro.exceptions import ConfigurationError, SchemaError
from repro.relational.schema import DType, Schema
from repro.relational.table import Table


class TestDescriptor:
    def test_equals_on_categorical(self, fig1_tables):
        source, _ = fig1_tables
        descriptor = Descriptor.equals("edu", "PhD")
        assert descriptor.mask(source).sum() == 3
        assert str(descriptor) == "edu = 'PhD'"

    def test_not_equals(self, fig1_tables):
        source, _ = fig1_tables
        assert Descriptor.not_equals("edu", "PhD").mask(source).sum() == 6

    def test_threshold_descriptors(self, fig1_tables):
        source, _ = fig1_tables
        # 2016 experience values: 2, 3, 5, 1, 2, 4, 3, 4, 1
        assert Descriptor.at_least("exp", 3).mask(source).sum() == 5
        assert Descriptor.less_than("exp", 3).mask(source).sum() == 4

    def test_between_inclusive(self, fig1_tables):
        source, _ = fig1_tables
        descriptor = Descriptor.between("salary", 120000, 160000)
        assert descriptor.mask(source).sum() == 5

    def test_between_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            Descriptor.between("salary", 10, 5)

    def test_in_set_and_not_in_set(self, fig1_tables):
        source, _ = fig1_tables
        assert Descriptor.in_set("edu", ["MS", "PhD"]).mask(source).sum() == 7
        assert Descriptor.not_in_set("edu", ["MS", "PhD"]).mask(source).sum() == 2

    def test_in_set_requires_values(self):
        with pytest.raises(ConfigurationError):
            Descriptor.in_set("edu", [])
        with pytest.raises(ConfigurationError):
            Descriptor.not_in_set("edu", [])

    def test_numeric_constants_and_normality(self):
        assert Descriptor.at_least("exp", 3).numeric_constants == [3.0]
        assert Descriptor.equals("edu", "PhD").numeric_constants == []
        assert Descriptor.at_least("exp", 3).normality() == 1.0
        assert Descriptor.at_least("exp", 3).normality() > Descriptor.at_least("exp", 3.2971).normality()

    def test_kind_enum_round_trip(self):
        assert Descriptor.equals("a", 1).kind is DescriptorKind.EQUALS
        assert Descriptor.between("a", 1, 2).kind is DescriptorKind.BETWEEN

    def test_string_rendering_variants(self):
        assert str(Descriptor.less_than("exp", 3)) == "exp < 3"
        assert str(Descriptor.between("exp", 1, 3)) == "exp in [1, 3]"
        assert "not in" in str(Descriptor.not_in_set("dept", ["POL", "FRS"]))


class TestCondition:
    def test_trivial_condition_matches_everything(self, fig1_tables):
        source, _ = fig1_tables
        condition = Condition.always()
        assert condition.is_trivial
        assert condition.mask(source).all()
        assert condition.coverage(source) == 1.0
        assert condition.complexity == 0
        assert str(condition) == "TRUE"

    def test_conjunction_semantics(self, fig1_tables):
        source, _ = fig1_tables
        condition = Condition.of(
            Descriptor.equals("edu", "MS"), Descriptor.at_least("exp", 3)
        )
        assert condition.mask(source).sum() == 3
        assert condition.coverage(source) == pytest.approx(3 / 9)
        assert condition.complexity == 2
        assert condition.attributes() == ["edu", "exp"]
        assert str(condition) == "edu = 'MS' AND exp >= 3"

    def test_single_descriptor_condition_is_its_descriptor(self, fig1_tables):
        source, _ = fig1_tables
        descriptor = Descriptor.equals("edu", "PhD")
        assert Condition.of(descriptor).mask(source).tolist() == descriptor.mask(source).tolist()

    def test_conjoined_with_appends(self, fig1_tables):
        source, _ = fig1_tables
        base = Condition.of(Descriptor.equals("edu", "MS"))
        extended = base.conjoined_with(Descriptor.less_than("exp", 3))
        assert extended.complexity == 2
        assert extended.mask(source).sum() == 1
        assert base.complexity == 1  # original untouched

    def test_normality_aggregates_descriptor_constants(self):
        clean = Condition.of(Descriptor.at_least("exp", 3))
        ragged = Condition.of(Descriptor.at_least("exp", 3.2971))
        assert clean.normality() > ragged.normality()
        assert Condition.always().normality() == 1.0

    def test_contradictory_condition_selects_nothing(self, fig1_tables):
        source, _ = fig1_tables
        condition = Condition.of(
            Descriptor.equals("edu", "PhD"), Descriptor.equals("edu", "MS")
        )
        assert condition.mask(source).sum() == 0
        assert condition.coverage(source) == 0.0


@pytest.fixture()
def employees() -> Table:
    return Table.from_rows(
        [
            {"name": "Anne", "edu": "PhD", "exp": 2, "salary": 230000.0},
            {"name": "Amber", "edu": "MS", "exp": 5, "salary": 160000.0},
            {"name": "Allen", "edu": "MS", "exp": 1, "salary": 130000.0},
            {"name": "Cathy", "edu": "BS", "exp": 2, "salary": None},
        ],
        primary_key="name",
    )


def mask_of(descriptor: Descriptor, table: Table) -> list[bool]:
    return descriptor.mask(table).tolist()


class TestDescriptorMasks:
    def test_equality_on_strings(self, employees):
        assert mask_of(Descriptor.equals("edu", "MS"), employees) == [False, True, True, False]

    def test_numeric_comparison_ignores_missing(self, employees):
        assert mask_of(Descriptor.at_least("salary", 150000), employees) == [True, True, False, False]
        assert mask_of(Descriptor.less_than("salary", 150000), employees) == [False, False, True, False]
        assert mask_of(Descriptor.not_equals("salary", 130000), employees) == [True, True, False, False]

    def test_between_inclusive(self, employees):
        assert mask_of(Descriptor.between("exp", 2, 5), employees) == [True, True, False, True]

    def test_in_set_and_its_complement(self, employees):
        assert mask_of(Descriptor.in_set("edu", ("PhD", "BS")), employees) == [True, False, False, True]
        assert mask_of(Descriptor.not_in_set("edu", ("PhD", "BS")), employees) == [False, True, True, False]

    def test_numeric_in_set_is_per_value_membership(self, employees):
        assert mask_of(Descriptor.in_set("exp", (2, 5)), employees) == [True, True, False, True]
        assert mask_of(Descriptor.not_in_set("salary", (230000.0,)), employees) == [False, True, True, True]

    def test_codes_of_a_slice_that_lacks_a_level(self, employees):
        # the slice shares the full level tuple, so 'PhD' is a level no row holds
        tail = employees.mask([False, True, True, True])
        assert mask_of(Descriptor.equals("edu", "PhD"), tail) == [False, False, False]
        assert mask_of(Descriptor.not_equals("edu", "MS"), tail) == [False, False, True]
        assert mask_of(Descriptor.in_set("edu", ("PhD", "BS")), tail) == [False, False, True]

    def test_a_missing_level_satisfies_only_the_negations(self):
        table = Table.from_rows([{"edu": "MS"}, {"edu": None}, {"edu": "BS"}])
        assert mask_of(Descriptor.equals("edu", "MS"), table) == [True, False, False]
        assert mask_of(Descriptor.not_equals("edu", "MS"), table) == [False, True, True]
        assert mask_of(Descriptor.in_set("edu", ("MS", "BS")), table) == [True, False, True]
        assert mask_of(Descriptor.not_in_set("edu", ("MS", "BS")), table) == [False, True, False]

    @pytest.mark.parametrize(
        "descriptor",
        [
            Descriptor.at_least("x", 0),
            Descriptor.less_than("x", 5),
            Descriptor.between("x", 0, 5),
            Descriptor.equals("x", 1),
            Descriptor.not_equals("x", 7),
        ],
    )
    def test_numeric_comparisons_are_false_on_non_finite_values(self, descriptor):
        table = Table.from_rows([{"x": math.inf}, {"x": -math.inf}, {"x": None}, {"x": 1.0}])
        assert mask_of(descriptor, table) == [False, False, False, True]

    def test_non_finite_bounds_match_nothing(self):
        table = Table.from_rows([{"x": -1.0}, {"x": 1.0}, {"x": math.inf}])
        assert mask_of(Descriptor.at_least("x", -math.inf), table) == [False, False, False]
        assert mask_of(Descriptor.between("x", -math.inf, 0), table) == [True, False, False]

    def test_numeric_in_set_matches_an_infinite_value(self):
        table = Table.from_rows([{"x": math.inf}, {"x": 1.0}, {"x": None}])
        assert mask_of(Descriptor.in_set("x", (math.inf,)), table) == [True, False, False]
        assert mask_of(Descriptor.not_in_set("x", (math.inf,)), table) == [False, True, True]

    def test_bool_columns(self):
        table = Table.from_rows([{"flag": True}, {"flag": False}, {"flag": None}])
        assert mask_of(Descriptor.equals("flag", True), table) == [True, False, False]
        assert mask_of(Descriptor.not_equals("flag", True), table) == [False, True, True]
        assert mask_of(Descriptor.in_set("flag", (False,)), table) == [False, True, False]
        assert mask_of(Descriptor.not_in_set("flag", (False,)), table) == [True, False, True]

    def test_numeric_equality_on_an_int_column(self, employees):
        assert mask_of(Descriptor.equals("exp", 2), employees) == [True, False, False, True]
        assert mask_of(Descriptor.between("exp", 2, 4), employees) == [True, False, False, True]

    def test_column_name_with_a_space(self):
        table = Table.from_rows([{"Base Salary": 100.0}, {"Base Salary": 50.0}])
        assert mask_of(Descriptor.at_least("Base Salary", 75), table) == [True, False]

    def test_unknown_column_rejected(self, employees):
        with pytest.raises(SchemaError):
            Descriptor.equals("bonus", 1).mask(employees)

    def test_masks_of_an_empty_slice(self, employees):
        empty = employees.mask([False] * employees.num_rows)
        for descriptor in (
            Descriptor.equals("edu", "MS"),
            Descriptor.at_least("salary", 1),
            Descriptor.in_set("exp", (2,)),
        ):
            mask = descriptor.mask(empty)
            assert mask.dtype == bool and mask.shape == (0,)


class TestConditionMasks:
    def test_conjunction_of_categorical_and_numeric(self, employees):
        is_ms = Descriptor.equals("edu", "MS")
        assert Condition.of(is_ms, Descriptor.at_least("exp", 3)).mask(employees).tolist() == [
            False, True, False, False,
        ]
        assert Condition.of(is_ms, Descriptor.less_than("exp", 3)).mask(employees).tolist() == [
            False, False, True, False,
        ]

    def test_two_descriptors_on_one_attribute_intersect(self, employees):
        condition = Condition.of(Descriptor.at_least("exp", 2), Descriptor.less_than("exp", 5))
        assert condition.mask(employees).tolist() == [True, False, False, True]

    def test_conditions_that_render_alike_stay_distinct(self, employees):
        # the text rounds constants to 6 significant digits; the descriptors do not
        low = Condition.of(Descriptor.between("salary", 160000.1, 230000))
        high = Condition.of(Descriptor.between("salary", 160000.4, 230000))
        assert str(low) == str(high)
        assert low != high and low.descriptors != high.descriptors
        assert len({low.descriptors, high.descriptors}) == 2

    def test_equal_conditions_share_a_hashable_key(self):
        first = Condition.of(Descriptor.in_set("edu", ("MS", "PhD")), Descriptor.at_least("exp", 3))
        second = Condition.of(Descriptor.in_set("edu", ["MS", "PhD"]), Descriptor.at_least("exp", 3.0))
        assert first == second
        assert hash(first.descriptors) == hash(second.descriptors)


# -- property: Condition.mask against a per-row reference ---------------------

SCHEMA = Schema.of({"s": DType.STRING, "b": DType.BOOL, "i": DType.INT, "f": DType.FLOAT})
DOMAINS = {
    "s": ["a", "b", "c"],
    "b": [True, False],
    "i": [-2, 0, 1, 3],
    "f": [-1.5, 0.0, 0.5, 2.0],
}
CELLS = {
    "s": st.sampled_from(DOMAINS["s"] + [None]),
    "b": st.sampled_from(DOMAINS["b"] + [None]),
    "i": st.sampled_from(DOMAINS["i"] + [None]),
    "f": st.sampled_from(DOMAINS["f"] + [None, math.inf, -math.inf]),
}
CATEGORICAL_KINDS = [
    DescriptorKind.EQUALS, DescriptorKind.NOT_EQUALS, DescriptorKind.IN_SET, DescriptorKind.NOT_IN_SET,
]


@st.composite
def descriptors(draw) -> Descriptor:
    attribute = draw(st.sampled_from(SCHEMA.names))
    domain = st.sampled_from(DOMAINS[attribute])
    kinds = CATEGORICAL_KINDS if attribute in ("s", "b") else list(DescriptorKind)
    kind = draw(st.sampled_from(kinds))
    if kind in (DescriptorKind.IN_SET, DescriptorKind.NOT_IN_SET):
        return Descriptor(attribute, kind, tuple(draw(st.lists(domain, min_size=1, max_size=3))))
    if kind is DescriptorKind.BETWEEN:
        low, high = sorted(draw(st.lists(domain, min_size=2, max_size=2)))
        return Descriptor.between(attribute, low, high)
    return Descriptor(attribute, kind, (draw(domain),))


def reference_holds(descriptor: Descriptor, value) -> bool:
    """Whether one cell, read back with ``Table.row``, satisfies ``descriptor``."""
    kind, values = descriptor.kind, descriptor.values
    categorical = descriptor.attribute in ("s", "b")
    if kind is DescriptorKind.IN_SET:
        return value is not None and value in values
    if kind is DescriptorKind.NOT_IN_SET:
        return value is None or value not in values
    if value is None:
        return categorical and kind is DescriptorKind.NOT_EQUALS
    if not categorical and not math.isfinite(value):
        return False
    if kind is DescriptorKind.EQUALS:
        return value == values[0]
    if kind is DescriptorKind.NOT_EQUALS:
        return value != values[0]
    if kind is DescriptorKind.LESS_THAN:
        return value < values[0]
    if kind is DescriptorKind.AT_LEAST:
        return value >= values[0]
    return values[0] <= value <= values[1]


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.fixed_dictionaries(CELLS), min_size=1, max_size=12),
    keep=st.lists(st.booleans(), min_size=12, max_size=12),
    parts=st.lists(descriptors(), max_size=3),
)
def test_condition_mask_matches_a_per_row_reference(rows, keep, parts):
    # a slice keeps the full level tuples, so some levels occur in no row
    table = Table.from_rows(rows, schema=SCHEMA).mask(keep[: len(rows)])
    condition = Condition.of(*parts)
    expected = [
        all(reference_holds(part, table.row(index)[part.attribute]) for part in parts)
        for index in range(table.num_rows)
    ]
    assert condition.mask(table).tolist() == expected
