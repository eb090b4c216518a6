"""The public names of the lazily exporting packages.

``repro``, ``repro.core``, ``repro.cachestore``, ``repro.obs`` and
``repro.cacheserver`` resolve their public names on first use from a map of
name -> defining module.  Every ``from package import Name`` must keep
returning the object the defining module holds, and ``dir()`` and
``import *`` must see every name before anything has resolved it.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = ("repro", "repro.core", "repro.cachestore", "repro.obs", "repro.cacheserver")


def fresh(code: str) -> dict:
    """What ``code`` prints as its last line of JSON, run in a new interpreter."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_all_is_the_name_map(name):
    package = importlib.import_module(name)
    assert sorted(package.__all__) == sorted(package._EXPORTS)
    assert len(package.__all__) == len(set(package.__all__))


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_each_name_is_the_defining_modules_object(name):
    package = importlib.import_module(name)
    for attribute, module in package._EXPORTS.items():
        assert getattr(package, attribute) is getattr(importlib.import_module(module), attribute)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_dir_and_star_import_see_every_name_before_first_use(name):
    seen = fresh(
        "import importlib, json\n"
        f"package = importlib.import_module({name!r})\n"
        "listed = sorted(set(package.__all__) & set(dir(package)))\n"
        "namespace = {}\n"
        f"exec('from {name} import *', namespace)\n"
        "same = all(namespace[n] is getattr(package, n) for n in package.__all__)\n"
        "print(json.dumps([listed, sorted(package.__all__), same]))\n"
    )
    listed, names, same = seen
    assert listed == names
    assert same


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_diff_functions_survive_the_import_of_their_submodules():
    # repro.diff stays eager: update_distance and timeline_diff are both a
    # function of the package and a submodule of it, and importing the
    # submodule after the package would rebind a lazily resolved name
    kinds = fresh(
        "import inspect, json\n"
        "import repro.diff\n"
        "import repro.diff.update_distance, repro.diff.timeline_diff\n"
        "from repro.diff import timeline_diff, update_distance\n"
        "print(json.dumps([inspect.isfunction(f) for f in (\n"
        "    repro.diff.update_distance, repro.diff.timeline_diff,\n"
        "    update_distance, timeline_diff)]))\n"
    )
    assert kinds == [True, True, True, True]
    import repro.diff
    import repro.diff.timeline_diff  # noqa: F401
    import repro.diff.update_distance  # noqa: F401

    assert inspect.isfunction(repro.diff.update_distance)
    assert inspect.isfunction(repro.diff.timeline_diff)


REMOVED_PREDICATE_NAMES = (
    "parse_expression", "Expression", "ColumnRef", "Literal", "Comparison", "Between",
    "IsIn", "And", "Or", "Not", "Arithmetic", "ExpressionError",
)


@pytest.mark.parametrize("name", ["repro", "repro.relational", "repro.exceptions"])
def test_the_expression_tree_names_are_gone(name):
    # Condition is the one predicate form; its descriptors evaluate themselves
    package = importlib.import_module(name)
    assert [n for n in REMOVED_PREDICATE_NAMES if hasattr(package, n)] == []
    assert not set(REMOVED_PREDICATE_NAMES) & set(getattr(package, "__all__", ()))
    assert importlib.util.find_spec("repro.relational.expressions") is None
