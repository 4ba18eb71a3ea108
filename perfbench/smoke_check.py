"""Smoke test of every workload at a seconds-long size.

    python3 -m pytest -q perfbench/smoke_check.py

Each workload runs in a fresh process, as the benchmark is run, once untraced
and once traced. The test checks that the metrics `BENCHMARK.json` declares
are emitted by name with their units, and that the output checks pass.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# paper-fit is not in BENCHMARK.json (see README.md) but stays runnable
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["paper-fit"]


@functools.cache
def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    *_, record, result = out.stdout.strip().splitlines()
    return json.loads(record), json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, result = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0, record["failures"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and metric["value"] > 0, name
    assert record["environment"]["blas_threads"] == 1
    assert record["stages"] and record["traffic"]["passes"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    record, result = run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == units
