"""Shared fixtures: the paper's example data and small generated workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Charles, CharlesConfig
from repro.core.partitioning import Partition, discover_partitions
from repro.relational import SnapshotPair, Table
from repro.workloads import (
    billionaires_pair,
    employee_pair,
    example_pair,
    example_policy,
    example_snapshots,
    montgomery_pair,
)


@pytest.fixture(scope="session")
def fig1_tables() -> tuple[Table, Table]:
    """The exact 2016/2017 snapshots of the paper's Fig. 1."""
    return example_snapshots()


@pytest.fixture(scope="session")
def fig1_pair() -> SnapshotPair:
    """The Fig. 1 snapshots aligned by employee name."""
    return example_pair()


@pytest.fixture(scope="session")
def fig1_policy():
    """The ground-truth rules R1–R3 of Example 1."""
    return example_policy()


@pytest.fixture(scope="session")
def employee_200() -> SnapshotPair:
    """A 200-row generated employee workload evolved by the bonus policy."""
    return employee_pair(200, seed=7)


@pytest.fixture(scope="session")
def montgomery_400() -> SnapshotPair:
    """A 400-row synthetic Montgomery payroll evolved by the COLA policy."""
    return montgomery_pair(400, seed=11)


@pytest.fixture(scope="session")
def billionaires_300() -> SnapshotPair:
    """A 300-row synthetic billionaires list evolved by the market-year policy."""
    return billionaires_pair(300, seed=5)


@pytest.fixture(scope="session")
def default_config() -> CharlesConfig:
    """The out-of-the-box configuration (alpha = 0.5, c = 3, t = 2)."""
    return CharlesConfig()


@pytest.fixture(scope="session")
def fig1_result(fig1_pair):
    """ChARLES run on the paper example with the demo's attribute selections."""
    charles = Charles()
    return charles.summarize_pair(
        fig1_pair,
        "bonus",
        condition_attributes=["edu", "exp", "gen"],
        transformation_attributes=["bonus", "salary"],
    )


@pytest.fixture()
def small_table() -> Table:
    """A tiny mixed-type table used across relational-substrate tests."""
    return Table.from_rows(
        [
            {"id": "a", "city": "Boston", "age": 30, "income": 55000.0, "active": True},
            {"id": "b", "city": "Boston", "age": 41, "income": 72000.0, "active": False},
            {"id": "c", "city": "Salt Lake", "age": 25, "income": 48000.0, "active": True},
            {"id": "d", "city": "Amherst", "age": 58, "income": 91000.0, "active": True},
            {"id": "e", "city": "Amherst", "age": 35, "income": None, "active": False},
        ],
        primary_key="id",
    )


@pytest.fixture(scope="session")
def restricted_discovery():
    """Partition discovery on a copy of a pair cut down to a scope: the oracle.

    ``restricted_discovery(pair, scope, *args, **kwargs)`` builds the pair's
    rows under the boolean ``scope`` with ``Table.mask``, runs
    ``discover_partitions(restricted_pair, *args, **kwargs)`` and embeds each
    partition mask back into the full pair.  Scoped discovery on the full
    pair must return exactly these partitions.
    """

    def discover(pair, scope, *args, **kwargs):
        restricted = SnapshotPair(pair.source.mask(scope), pair.target.mask(scope), pair.key)
        rows = np.flatnonzero(scope)
        embedded = []
        for partition in discover_partitions(restricted, *args, **kwargs):
            mask = np.zeros(pair.num_rows, dtype=bool)
            mask[rows[partition.mask]] = True
            embedded.append(
                Partition(partition.condition, mask, partition.fidelity, partition.coverage)
            )
        return embedded

    return discover
