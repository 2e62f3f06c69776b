"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload of BENCHMARK.json for a few ops in both modes and checks
the result line against the metric names and units declared there.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_and_units(workload, trace, section):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans_ = [["op", 0.0, 10.0, -1, True, None],
              ["a", 1.0, 4.0, 0, True, None],
              ["b", 2.0, 3.0, 1, True, None],
              ["c", 5.0, 6.0, 0, False, None]]
    assert spans.self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_missing_target_is_recorded_absent(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "pdelab",
                        ("solve_radial_bvp", "no_such_function"))
    rec = spans.Recorder()
    rec.install()
    try:
        assert rec.absent == ["pdelab.no_such_function"]
    finally:
        rec.uninstall()
    import ellab.pdelab
    assert not hasattr(ellab.pdelab.solve_radial_bvp, "__wrapped__")
