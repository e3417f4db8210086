import json
import math
from pathlib import Path

import numpy as np
import pytest

from choquet_dist import (closed_form_mean, closed_form_sd, ks_statistic,
                          power_weight_game, save_capacity)
from choquet_dist.cli import main, parse_grid
from choquet_dist.capacity import CapacityFormatError

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
    # moments never walk chains, so n = 12 works; pdf enumerates and refuses
    g = power_weight_game(12, 2.0)
    path = tmp_path / "n12.json"
    save_capacity(g, path)
    code, out, _ = run_cli(capsys, "moments", "--law", "uniform", "--capacity", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["mean"] == pytest.approx(closed_form_mean(g), abs=1e-10)
    assert doc["sd"] == pytest.approx(closed_form_sd(g), abs=1e-10)
    code, _, err = run_cli(capsys, "pdf", "--law", "uniform", "--capacity", str(path),
                           "--grid", "0:1:5")
    assert code == 2
    assert "CHOQUET_NMAX" in err


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


def test_stigler_json(capsys):
    code, out, _ = run_cli(capsys, "stigler", "--a", "2", "--n", "20")
    doc = json.loads(out)
    assert code == 0
    assert doc["alpha"] == pytest.approx(0.25, abs=1e-6)
    assert doc["beta2"] == pytest.approx(1 / 112, abs=1e-6)
    assert doc["component_mean"] == pytest.approx(21 / 80, abs=1e-9)
    assert 0 < doc["n_times_variance"] < 2 / 112


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
