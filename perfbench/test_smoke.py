"""Smoke test of the benchmark command.

    python -m pytest perfbench/test_smoke.py -q

Every workload named in BENCHMARK.json runs once untraced and once
traced with ``--seconds 1``, the shortest run the command allows; each
run must print every metric BENCHMARK.json names with its unit, pass the
correctness gate, and end with the result line. A copy of the benchmark
without the program's source must fail without printing a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable] + BENCH["command"][1:]


def _run(cwd, workload, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        COMMAND + args, cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_prints_every_metric_and_passes_the_gate(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    assert "gate passed" in lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln for ln in lines if ln.startswith(f"metric {m['name']} ")]
        assert len(printed) == 1 and printed[0].split()[3] == m["unit"], printed


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
