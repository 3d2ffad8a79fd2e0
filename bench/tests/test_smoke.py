"""Smoke-sized runs of every workload through the benchmark's own command.

    python3 -m pytest bench/tests

Each workload runs with --seconds 0, which still runs its fingerprint
rounds: every output check, the fingerprint against the committed reference
for seed 0, and the metric names and units of BENCHMARK.json are exercised,
plain and traced.  The highd-direct traced run takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def bench():
    """Runs each (workload, trace) once per module and hands out the result."""
    done = {}

    def get(workload: str, trace: int) -> subprocess.CompletedProcess:
        if (workload, trace) not in done:
            done[workload, trace] = run_bench(workload, trace)
        return done[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_is_correct_and_names_every_metric(bench, workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert "machine: " in proc.stdout and '"threads": 1' in proc.stdout
    assert f"fingerprint {workload} seed 0:" in proc.stdout
    assert "(matches committed reference)" in proc.stdout, proc.stdout


def test_traced_runs_separate_the_regimes(bench):
    layer = {
        w: {k: v["value"] for k, v in last_json(bench(w, 1))["metrics"].items()}
        for w in WORKLOADS
    }
    assert layer["dense-cli"]["gp.nugget_active_ratio"] > 0.5
    assert layer["lowd-all"]["gp.nugget_active_ratio"] < 0.25
    assert layer["highd-direct"]["gp.nugget_active_ratio"] < 0.25
    assert layer["lowd-all"]["global_search.lhd_s"] > 0.0
    assert layer["highd-direct"]["global_search.lhd_s"] == 0.0
    assert layer["dense-cli"]["global_search.lhd_s"] == 0.0
    assert layer["highd-direct"]["gp.fe_share"] > layer["lowd-all"]["gp.fe_share"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench("lowd-all", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
