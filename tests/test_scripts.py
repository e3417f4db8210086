"""Smoke tests for the scripts: each runs end to end in a fresh interpreter,
with RuntimeWarnings as errors; the experiment scripts on a capacity file."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from choquet_dist import make_game, save_capacity

ROOT = Path(__file__).resolve().parents[1]
CAPACITY = str(ROOT / "docs" / "example_capacity.json")


def _script(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def _run(tmp_path, script, args, capacity):
    proc = _script(tmp_path, script, [*args, "--capacity", capacity, "--samples", "2000",
                                      "--out-dir", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script, args", [
    ("mixture_convergence.py", ["--sizes", "3", "5"]),
    ("tabulate_densities.py", []),
])
def test_script_runs(tmp_path, script, args):
    _run(tmp_path, script, args, CAPACITY)
    assert any((tmp_path / "out").glob("*.csv"))


def test_tabulate_densities_without_an_exact_exponential_law(tmp_path):
    # the min capacity's chains start at nu = 0, so the exponential closed
    # form refuses it and only the Monte Carlo histogram is written
    path = tmp_path / "min.json"
    save_capacity(make_game(3, {(1,): 0.0, (2,): 0.0, (3,): 0.0, (1, 2): 0.0,
                                (1, 3): 0.0, (2, 3): 0.0, (1, 2, 3): 1.0}), path)
    stdout = _run(tmp_path, "tabulate_densities.py", [], str(path))
    assert "exponential: no exact law" in stdout and "only Monte Carlo applies" in stdout
    written = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    assert written == ["exponential_mc_hist.csv", "uniform_exact.csv", "uniform_mc_hist.csv"]


def test_replay_bench_gates_runs_one_pass(tmp_path):
    proc = _script(tmp_path, "replay_bench_gates.py",
                   ["--workload", "lattice_moments", "--seeds", "1", "--passes", "1"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lattice_moments: seeds 1 x 1 passes, 0 of" in proc.stdout
