"""Tests of the benchmark itself: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from harness import Tracer, tail
from metrics import WORKLOAD_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _units(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOAD_NAMES))
def test_smoke_reports_every_metric(workload: str, trace: int):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    expected = _units("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0.0, name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "spectra", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.start_round(0)
    with tracer.op("x"):
        with tracer.span("pgf.a"):
            pass
    own = tracer.self_times()
    whole = [s["end"] - s["start"] for s in tracer.spans]
    assert tracer.spans[1]["parent"] == 0
    assert own[0] == pytest.approx(whole[0] - whole[1])
    assert own[1] == whole[1]


def test_tail_needs_ten_samples_beyond():
    values = list(range(100))
    assert tail(values, 90.0)[1:] == (90.0, 10)
    assert tail(values, 95.0)[1] == 50.0
