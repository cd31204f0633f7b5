"""Smoke runs of the scripts in scripts/ at tiny sizes."""

from __future__ import annotations

import csv
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script name -> (arguments besides --out-dir, {output file: CSV header})
RUNS = {
    "depth_limits": (["--max-depth", "8"],
                     {"depth_profiles.csv": "label,depth,rho,value,limit"}),
    "fig1_curves": ([], {f"activation_{case}.csv": "x,theta_activation,reference"
                         for case in ("linear", "prelu_proxy", "relu_proxy")}),
    "gp_demo": (["--train-size", "10", "--test-size", "20"],
                {"gp_predictions.csv": "mean,variance,truth"}),
    "width_convergence": (["--widths", "16,32", "--samples", "256"],
                          {f"width_convergence_{label}.csv": "rho,width,estimate,se,reference,gap"
                           for label in ("pure_relu", "mixed_linear_relu")}),
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_runs(tmp_path, name):
    args, outputs = RUNS[name]
    assert _load(name).main(["--out-dir", str(tmp_path)] + args) == 0
    for output, header in outputs.items():
        lines = (tmp_path / output).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1


def test_depth_limits_caps_depths(tmp_path):
    assert _load("depth_limits").main(["--out-dir", str(tmp_path), "--max-depth", "8"]) == 0
    with (tmp_path / "depth_profiles.csv").open(newline="") as handle:
        depths = {int(row["depth"]) for row in csv.DictReader(handle)}
    assert depths == {1, 2, 4, 8}


def _result_line(time_s: float, failed: int = 0) -> dict:
    return {"correct": failed == 0, "attempted": 6, "failed": failed,
            "metrics": {"time_to_result_s": {"value": time_s, "unit": "s"},
                        "work_per_s": {"value": 6.0 / time_s, "unit": "1/s"}}}


def test_bench_record_summary():
    summary = _load("bench_record").summarize(
        [_result_line(t, failed) for t, failed in ((4.0, 0), (2.0, 1), (3.0, 0), (5.0, 0))])
    assert (summary["runs"], summary["attempted"], summary["failed"]) == (4, 24, 1)
    row = summary["metrics"]["time_to_result_s"]
    assert row["unit"] == "s"
    assert row["values"] == [4.0, 2.0, 3.0, 5.0]
    assert (row["q1"], row["median"], row["q3"]) == (2.75, 3.5, 4.25)
    assert row["iqr"] == 1.5
    single = _load("bench_record").summarize([_result_line(2.0)])["metrics"]["work_per_s"]
    assert single["median"] == single["q1"] == single["q3"] == 3.0
    assert single["iqr"] == 0.0


def test_bench_record_smoke_run(tmp_path):
    root = SCRIPTS.parent
    module = _load("bench_record")
    assert module.main(["--root", str(root), "--tag", "smoke", "--workloads", "gp-regression",
                        "--runs", "1", "--seconds", "0", "--smoke",
                        "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["tag"] == "smoke" and record["tier1"] is None
    assert {"nproc", "python", "numpy", "blas"} <= set(record["environment"])
    row = record["workloads"]["gp-regression"]
    assert row["runs"] == 1 and row["failed"] == 0 and row["attempted"] >= 1
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    assert set(row["metrics"]) == {m["name"] for m in benchmark["end_to_end"]}
