"""The README's Python examples run, and importing the package stays light."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                           flags=re.S)


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})


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
