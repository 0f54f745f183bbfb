"""Smoke test of the benchmark itself: every workload at tiny size, both modes.

It lives outside tests/, so tier-1 never collects it.  Run it with

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_checked(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert "%s " % name in proc.stdout, "metric %s is not printed by name" % name

    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    assert detail["checked"] >= 1 and detail["wrong"] == []
    assert detail["env"]["seed"] == 3
    assert set(detail["env"]["blas_threads"].values()) == {"1"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_wrong_ratio_is_reported():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from anisotetra import reference_tetrahedron
        from workloads import ErrorRotated, WrongResult
    finally:
        del sys.path[:2]
    args = (reference_tetrahedron(1), None, False, 1, 0, 2.0)
    bad = SimpleNamespace(ratio=math.nan, error=0.1, indeterminate=False)
    with pytest.raises(WrongResult):
        ErrorRotated(0, True).check(args, bad)
