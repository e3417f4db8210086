"""Smoke tests for the experiment scripts: each runs end to end on the
reference capacity in a fresh interpreter, with RuntimeWarnings as errors."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CAPACITY = str(ROOT / "docs" / "example_capacity.json")


@pytest.mark.parametrize("script, args", [
    ("mixture_convergence.py", ["--sizes", "3", "5"]),
    ("tabulate_densities.py", []),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script),
         *args, "--capacity", CAPACITY, "--samples", "2000",
         "--out-dir", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any((tmp_path / "out").glob("*.csv"))
