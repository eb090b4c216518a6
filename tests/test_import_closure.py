"""What each kind of process imports at start.

A cache shard moves opaque pickled bytes, the CLI's service commands parse
arguments, and an engine runs the search; each must load only the modules it
runs.  Every check starts a fresh interpreter under ``python -X importtime``
and reads the modules it imported from that log, the same log CI uploads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def imported(*args: str) -> set[str]:
    """Every module a fresh ``python -X importtime *args`` imports."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    } - {"imported package"}


def loaded(modules: set[str], *packages: str) -> list[str]:
    """The members of ``modules`` that are one of ``packages`` or inside one."""
    return sorted(
        module for module in modules
        if any(module == package or module.startswith(package + ".") for package in packages)
    )


def test_import_repro_loads_no_other_repro_module():
    assert loaded(imported("-c", "import repro"), "repro") == ["repro"]


def test_a_cache_shard_loads_no_engine_and_no_optional_backend():
    modules = imported("-c", "import repro.cacheserver.aserver")
    assert "repro.cacheserver.aserver" in modules
    assert loaded(
        modules, "numpy", "repro.core", "repro.search", "repro.ml", "repro.relational",
        "sqlite3", "multiprocessing",
    ) == []


def test_the_engine_loads_no_service_and_no_optional_backend():
    modules = imported("-c", "from repro import Charles, EngineSession")
    assert "repro.core.charles" in modules and "repro.timeline.session" in modules
    assert loaded(
        modules, "sqlite3", "multiprocessing", "concurrent.futures", "asyncio",
        "repro.cacheserver", "repro.serving", "repro.obs.analyze",
    ) == []


def test_the_cache_server_command_starts_without_numpy():
    modules = imported("-m", "repro.cli", "cache-server", "--help")
    # the command runs as __main__; its parser needs the backend choices
    assert "repro.cachestore.factory" in modules
    assert loaded(modules, "numpy") == []


def test_a_serial_search_loads_no_process_pool():
    modules = imported(
        "-c",
        "from repro import Charles; from repro.workloads import employee_pair; "
        "Charles().summarize_pair(employee_pair(60, seed=1), 'bonus')",
    )
    assert "repro.search.executors" in modules
    assert loaded(modules, "concurrent.futures", "multiprocessing") == []
