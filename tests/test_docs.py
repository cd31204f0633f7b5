"""The README's Python and command-line examples run, and importing the package
stays light."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thetakernels.cli import app

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                           flags=re.S)
COMMAND_BLOCK = re.search(r"## Command line\n.*?```\n(.*?)```",
                          (ROOT / "README.md").read_text(), flags=re.S).group(1)


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(0)
    train = rng.standard_normal((8, 3))
    train /= np.linalg.norm(train, axis=1, keepdims=True)
    np.savetxt(tmp_path / "pts.csv", rng.standard_normal((4, 3)), delimiter=",")
    np.savetxt(tmp_path / "train.csv", np.column_stack([train, train[:, 0]]), delimiter=",")
    np.savetxt(tmp_path / "query.csv", rng.standard_normal((3, 3)), delimiter=",")
    monkeypatch.chdir(tmp_path)
    lines = COMMAND_BLOCK.strip().splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "theta-kernels"
        assert app(argv) == 0, (line, capsys.readouterr().err)


def test_import_leaves_scipy_until_gp_fit():
    code = (
        "import sys\n"
        "import thetakernels as tk\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
        "spec = tk.PureKernel(tk.make_theta_pgf(theta=1.0, a=1.0, c=1.0), 2)\n"
        "tk.fit(spec, [[1.0, 0.0], [0.0, 1.0]], [0.5, -0.5])\n"
        "assert 'scipy.linalg' in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
