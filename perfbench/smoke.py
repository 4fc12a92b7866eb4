"""Smoke size of every workload: each named metric is emitted with its unit and the output parses.

Run from the repository root::

    python3 -m pytest perfbench/smoke.py -q

Each case runs the benchmark command for a few seconds in a subprocess, as
the benchmark is run for real.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "3"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:]]
    arguments = ["--workload", workload, "--seed", "0", "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    return subprocess.run(command + arguments, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [workload["name"] for workload in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]
        assert f"metric {metric['name']} = " in proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert proc.returncode == (0 if result["correct"] else 1), proc.stderr
    if not trace:
        # The trace run's coverage floor is a timing figure; every other check
        # is deterministic and must pass even at smoke size.
        assert result["correct"], proc.stdout


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in SPEC["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
