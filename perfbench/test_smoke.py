"""Fast smoke check of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload of BENCHMARK.json for one second, untraced and
traced, and fails if a declared metric is missing from the result line,
has no unit or is not a number, or if any correctness check failed.
"""
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    for m in declared:
        assert m["name"] in metrics, f"{m['name']} missing"
        got = metrics[m["name"]]
        assert got.get("unit") == m["unit"], f"{m['name']}: unit {got.get('unit')!r}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(metrics[m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_without_sources():
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run must fail without printing a result."""
    bare = ROOT / "perfbench" / "out" / f"bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        for f in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(f, bare / "perfbench" / f.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
