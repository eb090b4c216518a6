"""Tests of the benchmark itself.

Not collected by the repository's default test run (the file name does not
match ``test_*.py``), because every test drives real workloads for seconds.
Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

EXACT_COUNTS = (
    "search.specs_evaluated",
    "ml.kmeans.fits",
    "relational.numeric_column.calls",
    "cacheserver.round_trips",
)


def bench(workload: str, trace: int, seed: int = 3) -> tuple[int, str, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    return completed.returncode, completed.stdout, json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    code, stdout, result = bench(workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(run.END_TO_END)
    for name, unit in run.END_TO_END:
        assert any(line.split()[1:2] == [name] and line.split()[-1] == unit
                   for line in stdout.splitlines()[:-1])


def test_tampered_reference_digest_is_a_failed_op(monkeypatch, capsys):
    real = run.run_engine

    def tampered(job, hash_seed):
        report = real(job, hash_seed)
        if hash_seed == run.REFERENCE_HASH_SEED:
            report["digests"][0] = "0" * 64
        return report

    monkeypatch.setattr(run, "run_engine", tampered)
    code = run.main(["--workload", "pair-cold", "--seed", "3", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_program_modules_compile_from_source_only():
    # whatever __pycache__ the tree holds, the program loads from its .py
    # files while the standard library and numpy load as usual
    code = (
        "import host; host.compile_program_from_source(); "
        "import json, numpy, repro.relational.csv_io as m; "
        "print(type(m.__spec__.loader).__name__, type(json.__spec__.loader).__name__)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=HERE,
        env=run.child_env(run.HASH_SEED), timeout=60,
    )
    assert completed.stdout.split() == ["_SourceOnlyLoader", "SourceFileLoader"]


def test_check_counts_mismatches_and_missing_ops():
    runs = [{"digests": ["a", None], "failures": []},
            {"digests": {"t1": ["a", "b"], "t2": ["a"]}, "failures": []}]
    assert run.check(runs, ["a", "b"]) == (6, 2)


def test_traced_run_restores_every_wrapped_function():
    import tracing
    from repro import Charles
    from repro.serving import service
    from repro.workloads import employee_pair

    before = {name: getattr(service, name) for name in ("read_csv_text",)}
    recorder = tracing.install()
    patches = recorder.patched
    assert len(patches) >= len(tracing.TARGETS)
    assert service.read_csv_text is not before["read_csv_text"]  # from-import patched
    with recorder.span():
        Charles().summarize_pair(employee_pair(60, seed=1), "bonus")
    merged = recorder.merged()
    assert merged["calls"]["relational.numeric_column"] > 0
    recorder.restore()
    for owner, attribute, original in patches:
        assert owner.__dict__[attribute] is original
    assert service.read_csv_text is before["read_csv_text"]
    assert not recorder.patched


def test_restore_reverts_bindings_made_after_install():
    import tracing
    from repro.relational import csv_io

    original = csv_io.read_csv_text
    recorder = tracing.install()
    late = types.ModuleType("perfbench_late_import")
    sys.modules[late.__name__] = late
    try:
        exec("from repro.relational.csv_io import read_csv_text", late.__dict__)
        assert late.read_csv_text is not original  # bound the wrapper
        recorder.restore()
        assert late.read_csv_text is original
        assert csv_io.read_csv_text is original
    finally:
        recorder.restore()
        del sys.modules[late.__name__]


@pytest.mark.parametrize("workload", ["pair-cold", "serve-fabric"])
def test_layer_times_and_unattributed_rest_sum_to_op_time(workload):
    _, _, result = bench(workload, trace=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in (
        "relational", "ml", "core", "search", "timeline", "cachestore", "cacheserver", "serving"))
    attributed = layers + metrics["trace.dedup_shared_s"] + metrics["trace.unattributed_s"]
    assert attributed == pytest.approx(metrics["trace.op_s"])
    # the rest is time no wrapper covers, not a leftover by construction
    assert 0.0 < metrics["trace.unattributed_share"] < 0.5
    assert "trace.overhead_ratio" in metrics


def test_counts_repeat_exactly_across_traced_runs():
    first = bench("serve-fabric", trace=1)[2]["metrics"]
    second = bench("serve-fabric", trace=1)[2]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
