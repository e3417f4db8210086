import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from choquet_dist import (ExponentialChoquetDist, UniformOrderStats, closed_form_mean,
                          ks_statistic, moments_report, power_weight_game,
                          random_capacity, save_capacity)
from choquet_dist.cli import build_parser, main, parse_grid
from choquet_dist.capacity import CapacityFormatError
from choquet_dist.osmoments import LAWS, provider_for
from conftest import DUPLICATE_SUBSET_JSON

DOCS = Path(__file__).resolve().parents[1] / "docs"
REF = str(DOCS / "example_capacity.json")


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_grid():
    assert parse_grid("0:1:200") == (0.0, 1.0, 200)
    with pytest.raises(CapacityFormatError):
        parse_grid("0:1")
    with pytest.raises(CapacityFormatError):
        parse_grid("0:1:1")
    with pytest.raises(CapacityFormatError):
        parse_grid("1:0:10")
    for text in ("0:inf:3", "-inf:0:3"):
        with pytest.raises(CapacityFormatError, match="finite"):
            parse_grid(text)


def test_pdf_rejects_infinite_grid(capsys):
    code, out, err = run_cli(capsys, "pdf", "--law", "uniform", "--capacity", REF,
                             "--grid", "0:inf:3")
    assert code == 2 and out == ""
    assert "invalid input" in err


def test_law_choices_come_from_registry():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    with_law = {}
    for name, sp in sub.choices.items():
        for action in sp._actions:
            if action.dest == "law":
                with_law[name] = action.choices
    assert set(with_law) == {"moments", "pdf", "cdf", "mixture", "stigler", "sample"}
    assert all(choices == tuple(LAWS) for choices in with_law.values())


def test_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", "--capacity", REF)
    assert code == 0
    assert "capacity ok" in out


def test_validate_reports_violation(tmp_path, capsys):
    doc = {"n": 2, "values": {"1": 0.5, "2": 0.4, "1,2": 0.3}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--capacity", str(path))
    assert code == 2
    assert "not monotone" in err


def test_validate_schema_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "values": {"1": 0.5}}')
    code, out, err = run_cli(capsys, "validate", "--capacity", str(path))
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize("doc", [
    {"n": True, "values": {"1": 1.0}},
    {"n": 2, "values": {"1": None, "2": 0.5, "1,2": 1.0}},
    {"n": 2, "values": {"1": "0.5", "2": 0.5, "1,2": 1.0}},
    {"n": 2, "values": {"1": True, "2": 0.5, "1,2": 1.0}},
    5, None, ["n", "values"], "n values",
])
def test_validate_rejects_malformed_json(tmp_path, capsys, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--capacity", str(path))
    assert code == 2 and out == ""
    assert "invalid input" in err


@pytest.mark.parametrize("form", sorted(DUPLICATE_SUBSET_JSON))
def test_validate_refuses_a_subset_given_twice(tmp_path, capsys, form):
    path = tmp_path / "twice.json"
    path.write_text(DUPLICATE_SUBSET_JSON[form], encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", "--capacity", str(path))
    assert code == 2 and out == ""
    assert "invalid input" in err and "twice" in err


def test_moments_uniform(capsys):
    code, out, _ = run_cli(capsys, "moments", "--law", "uniform", "--capacity", REF)
    assert code == 0
    doc = json.loads(out)
    assert doc["mean"] == pytest.approx(0.495833333333, abs=1e-9)
    assert doc["sd"] == pytest.approx(0.18321, abs=1e-4)


def test_moments_normal_order3(capsys):
    code, out, _ = run_cli(capsys, "moments", "--law", "normal", "--capacity", REF,
                           "--dj-order", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["mean"] == pytest.approx(-0.0141, abs=1e-3)
    assert doc["sd"] == pytest.approx(0.6154, abs=1e-3)


def test_moments_above_enumeration_cap(tmp_path, capsys):
    # moments never walk chains, so n = 11 works; pdf would enumerate 11!
    # chains of this non-symmetric capacity and refuses
    g = random_capacity(11, np.random.default_rng(11))
    path = tmp_path / "n11.json"
    save_capacity(g, path)
    code, out, _ = run_cli(capsys, "moments", "--law", "uniform", "--capacity", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["mean"] == pytest.approx(closed_form_mean(g), abs=1e-10)
    assert doc["sd"] == pytest.approx(moments_report(g, UniformOrderStats(11)).sd, abs=1e-10)
    code, _, err = run_cli(capsys, "pdf", "--law", "uniform", "--capacity", str(path),
                           "--grid", "0:1:5")
    assert code == 2
    assert "n! = 39,916,800 chains" in err


def test_moments_of_an_n16_capacity_file(tmp_path, capsys):
    g = random_capacity(16, np.random.default_rng(16))
    path = tmp_path / "n16.json"
    save_capacity(g, path)
    code, out, _ = run_cli(capsys, "moments", "--law", "uniform", "--capacity", str(path))
    assert code == 0
    rep = moments_report(g, provider_for("uniform", 16))
    assert json.loads(out) == {"mean": float(f"{rep.mean:.12g}"),
                               "sd": float(f"{rep.sd:.12g}")}


@pytest.mark.parametrize("command", ["pdf", "cdf"])
def test_exact_tables_take_no_series_order(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--law", "uniform", "--capacity", REF, "--grid", "0:1:5",
              "--dj-order", "3"])
    assert exc.value.code == 2
    assert "--dj-order" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [  # moments: test_moments_normal_order3
    ["mixture", "--law", "normal", "--capacity", REF, "--grid=-3:3:5"],
    ["stigler", "--law", "normal", "--a", "2", "--n", "5"],
])
def test_series_commands_take_the_order(capsys, argv):
    assert run_cli(capsys, *argv, "--dj-order", "3")[0] == 0


def test_symmetric_pdf_above_enumeration_cap(tmp_path, capsys):
    # a symmetric game is one chain, so neither law enumerates; the
    # exponential law is refused only where its weights cancel
    g = power_weight_game(12, 2.0)
    path = tmp_path / "n12.json"
    save_capacity(g, path)
    code, out, _ = run_cli(capsys, "pdf", "--law", "uniform", "--capacity", str(path),
                           "--grid", "0:1:5")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "y,pdf,cdf" and len(rows) == 6
    assert rows[1] == "0,0,0" and rows[-1].endswith(",1")
    code, out, _ = run_cli(capsys, "pdf", "--law", "exponential", "--capacity", str(path),
                           "--grid", "0:1:5")
    assert code == 0
    d, ys = ExponentialChoquetDist(g), np.linspace(0.0, 1.0, 5)
    assert out.strip().splitlines()[1:] == [
        f"{y:.12g},{p:.12g},{c:.12g}" for y, p, c in zip(ys, d.pdf(ys), d.cdf(ys))]
    save_capacity(power_weight_game(13, 0.5), path)
    code, _, err = run_cli(capsys, "pdf", "--law", "exponential", "--capacity", str(path),
                           "--grid", "0:1:5")
    assert code == 2
    assert "cancel" in err and "off by 1.5e-02" in err and "Monte Carlo" in err


def test_pdf_grid_csv(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "pdf", "--law", "uniform", "--capacity", REF,
                           "--grid", "0:1:200", "--out", str(out_path))
    assert code == 0
    meta = json.loads(out)  # knot locations accompany file output
    assert 0.55 in meta["knots"] and meta["rows"] == 200
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "y,pdf,cdf"
    assert len(rows) == 201
    ys, pdf, cdf = np.loadtxt(rows[1:], delimiter=",", unpack=True)
    assert ys[0] == 0.0 and ys[-1] == 1.0
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= -1e-12)
    assert np.trapezoid(pdf, ys) == pytest.approx(1.0, abs=1e-3)


def test_cdf_alias_same_columns(capsys):
    code, out, _ = run_cli(capsys, "cdf", "--law", "exponential", "--capacity", REF,
                           "--grid", "0:5:11")
    assert code == 0
    assert out.splitlines()[0] == "y,pdf,cdf"


def test_pdf_rejects_normal_law(capsys):
    code, _, err = run_cli(capsys, "pdf", "--law", "normal", "--capacity", REF,
                           "--grid", "0:1:10")
    assert code == 2
    assert "mixture" in err


def test_pdf_regularity_violation(tmp_path, capsys):
    doc = {"n": 2, "values": {"1": 0.0, "2": 0.0, "1,2": 1.0}}
    path = tmp_path / "min.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "pdf", "--law", "exponential",
                           "--capacity", str(path), "--grid", "0:3:10")
    assert code == 2
    assert "regularity" in err


def test_mixture_csv(capsys):
    code, out, _ = run_cli(capsys, "mixture", "--law", "uniform", "--capacity", REF,
                           "--grid=-0.5:1.5:41")  # '=' form for negative starts
    rows = out.strip().splitlines()
    assert code == 0
    assert rows[0] == "y,mixture_pdf"
    assert len(rows) == 42


def test_mixture_meta_reports_orness(tmp_path, capsys):
    out_path = tmp_path / "mix.csv"
    code, out, _ = run_cli(capsys, "mixture", "--law", "normal", "--capacity", REF,
                           "--grid=-2:2:11", "--out", str(out_path))
    assert code == 0
    meta = json.loads(out)
    assert meta["components"] == 6
    assert meta["orness"] == pytest.approx(0.4917, abs=1e-3)


def test_summaries_only_computed_for_out(monkeypatch, capsys):
    # the moment summary of pdf/cdf and the orness of mixture are printed only
    # with --out, so the stdout-only runs must not compute them at all
    cmds = [("pdf", "--law", "uniform", "--capacity", REF, "--grid", "0:1:7"),
            ("cdf", "--law", "exponential", "--capacity", REF, "--grid", "0:3:7"),
            ("mixture", "--law", "normal", "--capacity", REF, "--grid=-1:2:7")]
    want = [run_cli(capsys, *cmd) for cmd in cmds]

    def boom(*args, **kwargs):
        raise AssertionError("computed although --out was not given")

    import choquet_dist.cli as cli
    monkeypatch.setattr(cli, "moments_report", boom)
    monkeypatch.setattr(cli, "orness", boom)
    for cmd, (code, out, err) in zip(cmds, want):
        assert code == 0
        assert run_cli(capsys, *cmd) == (code, out, err)


def test_stigler_json(capsys):
    code, out, _ = run_cli(capsys, "stigler", "--a", "2", "--n", "20")
    doc = json.loads(out)
    assert code == 0
    assert doc["alpha"] == pytest.approx(0.25, abs=1e-6)
    assert doc["beta2"] == pytest.approx(1 / 112, abs=1e-6)
    assert doc["component_mean"] == pytest.approx(21 / 80, abs=1e-9)
    assert 0 < doc["n_times_variance"] < 2 / 112


def test_stigler_defaults_to_uniform(capsys):
    default = run_cli(capsys, "stigler", "--a", "2", "--n", "20")
    assert default == run_cli(capsys, "stigler", "--a", "2", "--n", "20", "--law", "uniform")
    assert default[0] == 0


@pytest.mark.parametrize("a", ["inf", "nan", "0", "-1"])
def test_stigler_refuses_an_exponent_that_is_not_finite_and_positive(capsys, a):
    code, out, err = run_cli(capsys, "stigler", "--a", a, "--n", "5")
    assert code == 2 and out == ""
    assert "exponent must be finite and strictly positive" in err


def test_sample_round_trip(tmp_path, capsys):
    out_path = tmp_path / "samples.csv"
    code, out, _ = run_cli(capsys, "sample", "--law", "uniform", "--capacity", REF,
                           "--n", "20000", "--seed", "42", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n_samples"] == 20000
    ys = np.loadtxt(out_path, skiprows=1)
    assert len(ys) == 20000
    # re-read samples agree with the exact cdf from the pdf command
    code, out, _ = run_cli(capsys, "cdf", "--law", "uniform", "--capacity", REF,
                           "--grid", "0:1:401")
    rows = out.strip().splitlines()[1:]
    gy, _, gc = np.loadtxt(rows, delimiter=",", unpack=True)
    ks = ks_statistic(ys, lambda x: np.interp(x, gy, gc))
    assert ks < 1.63 / math.sqrt(20000) + 1 / 400  # interpolation slack


def test_sample_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "sample", "--law", "normal", "--capacity", REF,
                             "--n", "5000", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "sample", "--law", "normal", "--capacity", REF,
                             "--n", "5000", "--seed", "7")
    assert out1 == out2


def test_orness_command(capsys):
    code, out, _ = run_cli(capsys, "orness", "--capacity", REF)
    assert code == 0
    assert json.loads(out)["orness"] == pytest.approx(0.4917, abs=1e-4)


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "moments", "--law", "uniform",
                           "--capacity", "/nonexistent.json")
    assert code == 2


def _every_command():
    """Each subcommand under each law its --law accepts, on the example capacity."""
    grids = {"uniform": "0:1:21", "exponential": "0:5:21", "normal": "-3:3:21"}
    yield ["validate", "--capacity", REF]
    yield ["orness", "--capacity", REF]
    for law in LAWS:
        with_law = ["--capacity", REF, "--law", law]
        yield ["moments", *with_law, "--dj-order", "3"]
        yield ["pdf", *with_law, f"--grid={grids[law]}"]
        yield ["cdf", *with_law, f"--grid={grids[law]}"]
        yield ["mixture", *with_law, "--grid=-3:3:61", "--dj-order", "3"]
        yield ["stigler", "--a", "2", "--n", "5", "--law", law, "--dj-order", "3"]
        yield ["sample", *with_law, "--n", "2000", "--seed", "7"]


def test_no_command_loads_scipy():
    # scipy is a test-only dependency: no command of any law imports it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    commands = list(_every_command())
    code = ("import contextlib, io, json, sys; from choquet_dist.cli import main\n"
            "loaded = []\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        main(argv)\n"
            "    loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(json.dumps(loaded))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert len(loaded) == len(commands) == 2 + 6 * len(LAWS)
    assert [(argv, mods) for argv, mods in zip(commands, loaded) if mods] == []
