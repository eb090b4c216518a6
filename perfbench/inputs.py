"""Seeded CSV inputs for the benchmark workloads.

The benchmark generates its own inputs so that the program under test only
ever sees CSV text: a change to ``repro.workloads`` or to the CSV writer can
never change what is measured.  The rosters follow the employee schema of the
paper's Example 1 (``name, gen, edu, exp, salary, bonus``) and the policies
mirror ``repro.workloads.employee.bonus_policy`` and
``repro.workloads.streaming.streaming_bonus_policies``.

Every function is a pure function of its arguments: the same seed gives
byte-identical text.  Rows of every snapshot are shuffled, so aligning two
snapshots by key does real work.
"""

from __future__ import annotations

import numpy as np

HEADER = ("name", "gen", "edu", "exp", "salary", "bonus")
TARGET = "bonus"
KEY = "name"

_EDUCATION = ("BS", "MS", "PhD")
_BASE_SALARY = {"BS": 90_000.0, "MS": 120_000.0, "PhD": 170_000.0}


def roster(rows: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A synthetic company roster (columns as arrays, in entity order)."""
    edu = rng.choice(np.array(_EDUCATION), size=rows, p=(0.45, 0.35, 0.20))
    gen = rng.choice(np.array(("F", "M")), size=rows)
    exp = rng.integers(0, 21, size=rows)
    salary = np.array([_BASE_SALARY[level] for level in edu])
    salary = salary + 4_000.0 * exp + rng.normal(0.0, 8_000.0, size=rows)
    salary = np.round(np.maximum(salary, 45_000.0) / 1_000.0) * 1_000.0
    return {
        "name": np.array([f"E{index:05d}" for index in range(rows)]),
        "gen": gen,
        "edu": edu,
        "exp": exp,
        "salary": salary,
        "bonus": np.round(0.10 * salary, 2),
    }


def to_csv(columns: dict[str, np.ndarray], rng: np.random.Generator) -> str:
    """CSV text of ``columns`` with the rows in a seeded random order."""
    order = rng.permutation(len(columns["name"]))
    lines = [",".join(HEADER)]
    for index in order:
        lines.append(
            f"{columns['name'][index]},{columns['gen'][index]},{columns['edu'][index]},"
            f"{int(columns['exp'][index])},{columns['salary'][index]:.2f},"
            f"{columns['bonus'][index]:.2f}"
        )
    return "\n".join(lines) + "\n"


def _raise(columns, mask, rate: float, shift: float, attribute: str = TARGET) -> dict:
    updated = dict(columns)
    values = columns[attribute].copy()
    values[mask] = np.round(values[mask] * rate + shift, 2)
    updated[attribute] = values
    return updated


def evolve_pair(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The next snapshot under the Example-1 bonus policy; experience ticks up."""
    edu, exp = columns["edu"], columns["exp"]
    evolved = _raise(columns, edu == "PhD", 1.05, 1000.0)
    evolved = _raise(evolved, (edu == "MS") & (exp >= 3), 1.04, 800.0)
    evolved = _raise(evolved, (edu == "MS") & (exp < 3), 1.03, 400.0)
    evolved["exp"] = exp + 1
    return evolved


def evolve_hop(columns: dict[str, np.ndarray], hop: int) -> dict[str, np.ndarray]:
    """Hop ``hop`` (0-based) of the streaming chain.

    Hops cycle through a PhD wave, an MS tenure wave, a BS wave and a
    salary-only adjustment that leaves the bonus untouched; rates drift a
    little every cycle so no two hops apply the same rule.
    """
    cycle, kind = divmod(hop, 4)
    drift = 0.01 * cycle
    edu, exp = columns["edu"], columns["exp"]
    if kind == 0:
        return _raise(columns, edu == "PhD", 1.05 + drift, 1000.0)
    if kind == 1:
        evolved = _raise(columns, (edu == "MS") & (exp >= 3), 1.04 + drift, 800.0)
        return _raise(evolved, (edu == "MS") & (exp < 3), 1.03 + drift, 400.0)
    if kind == 2:
        return _raise(columns, edu == "BS", 1.02 + drift, 250.0)
    everyone = np.ones(len(edu), dtype=bool)
    return _raise(columns, everyone, 1.02 + drift, 0.0, attribute="salary")


def touches_target(hop: int) -> bool:
    """Whether hop ``hop`` of :func:`evolve_hop` changes the bonus."""
    return hop % 4 != 3


def pairs(seed: int, count: int, rows: int) -> list[tuple[str, str]]:
    """``count`` distinct (source CSV, target CSV) pairs of ``rows`` rows each."""
    rng = np.random.default_rng([seed, 1])
    result = []
    for _ in range(count):
        source = roster(rows, rng)
        result.append((to_csv(source, rng), to_csv(evolve_pair(source), rng)))
    return result


def chain(seed: int, versions: int, rows: int) -> list[str]:
    """CSV text of ``versions`` consecutive versions of one streaming roster."""
    rng = np.random.default_rng([seed, 2])
    current = roster(rows, rng)
    texts = [to_csv(current, rng)]
    for hop in range(versions - 1):
        current = evolve_hop(current, hop)
        texts.append(to_csv(current, rng))
    return texts
