"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one experiment from DESIGN.md's per-experiment
index (E1–E10).  Each benchmark both *measures* the runtime of the pipeline
step it exercises (via pytest-benchmark) and *prints* the result table the
experiment reports, so running ``pytest benchmarks/ --benchmark-only -s``
reproduces the numbers recorded in EXPERIMENTS.md.

Without pytest-benchmark (not installed, or disabled with ``-p no:benchmark``)
a stand-in ``benchmark`` fixture runs each measured call once and records
nothing, so the experiments and their assertions still run:
``PYTHONPATH=src python -m pytest benchmarks/bench_*.py`` (pytest collects
``test_*.py`` only, so the files are named explicitly).
"""

from __future__ import annotations

import pytest

from repro.core import Charles, CharlesConfig
from repro.workloads import (
    billionaires_pair,
    bonus_policy,
    cola_policy,
    employee_pair,
    example_pair,
    example_policy,
    montgomery_pair,
    wealth_policy,
)


class _RunOnce:
    """The part of pytest-benchmark's fixture the experiments use."""

    def __init__(self) -> None:
        self.extra_info: dict = {}

    def __call__(self, function, *args, **kwargs):
        return function(*args, **kwargs)


class _BenchmarkStandIn:
    @pytest.fixture()
    def benchmark(self):
        """One plain call of the measured function, no timing."""
        return _RunOnce()


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_BenchmarkStandIn(), "benchmark-stand-in")


# the attribute selections of the demo walk-through (Fig. 4, steps 4-5)
EXAMPLE_CONDITION_ATTRIBUTES = ["edu", "exp", "gen"]
EXAMPLE_TRANSFORMATION_ATTRIBUTES = ["bonus", "salary"]


@pytest.fixture(scope="session")
def fig1_pair():
    """The paper's Fig. 1 snapshot pair."""
    return example_pair()


@pytest.fixture(scope="session")
def fig1_policy():
    """Ground truth of Example 1 (rules R1–R3)."""
    return example_policy()


@pytest.fixture(scope="session")
def employee_2k():
    """A 2 000-row employee workload evolved by the parametric bonus policy."""
    return employee_pair(2_000, seed=17)


@pytest.fixture(scope="session")
def employee_policy():
    return bonus_policy()


@pytest.fixture(scope="session")
def montgomery_10k():
    """A 10 000-row synthetic Montgomery payroll evolved by the COLA policy."""
    return montgomery_pair(10_000, seed=29)


@pytest.fixture(scope="session")
def montgomery_policy():
    return cola_policy()


@pytest.fixture(scope="session")
def billionaires_2k():
    """A 2 000-row synthetic billionaires list evolved by the market-year policy."""
    return billionaires_pair(2_000, seed=31)


@pytest.fixture(scope="session")
def billionaires_policy():
    return wealth_policy()


@pytest.fixture(scope="session")
def default_charles():
    """ChARLES with the paper's default parameters."""
    return Charles(CharlesConfig())


def emit(table) -> None:
    """Print an experiment's result table (visible with ``pytest -s``)."""
    print()
    print(table.to_text())
    print()
