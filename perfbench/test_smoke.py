"""The harness's own test: every workload at tiny sizes, untraced and
traced, plus the refusal to run without the program's sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["grid2d_const", "pipeline_degenerate",
                                      "line1d_suite"])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    res = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"], res.stdout
    assert out["attempted"] >= 1 and out["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in out["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


def test_reach_probes_are_reported_outside_the_timed_passes():
    res = bench(ROOT, "--workload", "line1d_suite", "--seed", "3",
                "--seconds", "1", "--smoke")
    assert res.returncode == 0, res.stderr
    assert "probe probe_1024:" in res.stdout
    assert "probe probe_2048:" in res.stdout


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = bench(tmp_path, "--workload", "grid2d_const", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert res.stdout.strip() == ""
