"""Smoke runs of the scripts in scripts/ at tiny sizes."""

from __future__ import annotations

import importlib.util
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_runs(tmp_path, name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    args, outputs = RUNS[name]
    assert module.main(["--out-dir", str(tmp_path)] + args) == 0
    for output, header in outputs.items():
        lines = (tmp_path / output).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1
