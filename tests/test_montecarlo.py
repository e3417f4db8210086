import math

import numpy as np
import pytest

from choquet_dist import (UniformChoquetDist, choquet_values, ks_statistic,
                          make_game, sample, sample_values)
from choquet_dist.moments import mean as general_mean
from choquet_dist.normal import norm_ppf
from choquet_dist.osmoments import LAWS, provider_for


def _all_nonempty(n):
    return [tuple(i + 1 for i in range(n) if m >> i & 1) for m in range(1, 1 << n)]


def test_reproducibility_bit_identical(ref_capacity):
    a = sample(ref_capacity, "uniform", 5000, seed=42)
    b = sample(ref_capacity, "uniform", 5000, seed=42)
    assert a.mean == b.mean and a.sd == b.sd
    assert np.array_equal(a.ecdf, b.ecdf)


def test_disjoint_seeds_agree_statistically(ref_capacity):
    a = sample(ref_capacity, "uniform", 50_000, seed=1)
    b = sample(ref_capacity, "uniform", 50_000, seed=2)
    se = math.hypot(a.standard_error, b.standard_error)
    assert abs(a.mean - b.mean) < 6 * se


def test_reference_uniform_run(ref_capacity):
    rep = sample(ref_capacity, "uniform", 10_000, seed=3)
    assert abs(rep.mean - 0.4958) < 3 * rep.standard_error
    assert rep.sd == pytest.approx(0.183, abs=0.01)


def test_reference_exponential_run(ref_capacity):
    rep = sample(ref_capacity, "exponential", 10_000, seed=4)
    assert abs(rep.mean - 29 / 30) < 3 * rep.standard_error
    assert rep.sd == pytest.approx(0.6245, abs=0.03)


def test_degenerate_zero_game():
    g = make_game(3, {s: 0.0 for s in _all_nonempty(3)})
    rep = sample(g, "uniform", 100, seed=0)
    assert rep.mean == 0.0 and rep.sd == 0.0


INVERSE_CDF = {"uniform": lambda u: u,
               "exponential": lambda u: -np.log1p(-u),
               "normal": norm_ppf}


@pytest.mark.parametrize("law", list(LAWS))
def test_sample_values_draws_through_registry_quantile(ref_capacity, law):
    u = np.random.Generator(np.random.PCG64(11)).random((500, 3))
    np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
    want = choquet_values(ref_capacity, INVERSE_CDF[law](u))
    assert np.array_equal(sample_values(ref_capacity, law, 500, seed=11), want)


def test_unknown_law(ref_capacity):
    with pytest.raises(ValueError, match="unknown law"):
        sample_values(ref_capacity, "cauchy", 100, seed=0)


def test_sample_count_validation(ref_capacity):
    with pytest.raises(ValueError):
        sample_values(ref_capacity, "uniform", 1, seed=0)


def test_mean_converges_to_exact(ref_capacity):
    for law in ("uniform", "exponential", "normal"):
        rep = sample(ref_capacity, law, 1_000_000, seed=6)
        want = general_mean(ref_capacity, provider_for(law, 3, dj_order=3))
        tol = 3 * rep.standard_error if law != "normal" else max(
            3 * rep.standard_error, 0.005)
        assert abs(rep.mean - want) < tol


def test_ks_statistic_against_own_law(rng):
    u = rng.random(100_000)
    ks = ks_statistic(u, lambda x: np.clip(x, 0, 1))
    assert ks < 1.63 / math.sqrt(100_000)


def test_ks_statistic_constant_samples():
    samples = np.full(100, 0.3)
    ks = ks_statistic(samples, lambda x: np.clip(x, 0, 1))
    assert ks == pytest.approx(max(0.3, 1 - 0.3))


def test_report_carries_reference_ks(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    rep = sample(ref_capacity, "uniform", 20_000, seed=9)
    assert ks_statistic(rep.ecdf, d.cdf) < 1.63 / math.sqrt(20_000)


def test_normal_law_uses_inverse_cdf(ref_capacity):
    # additive capacity with unit weight on one attribute reproduces raw normals
    g = make_game(2, {(1,): 1.0, (2,): 0.0, (1, 2): 1.0})
    ys = sample_values(g, "normal", 50_000, seed=10)
    assert abs(np.mean(ys)) < 3 / math.sqrt(50_000) * 1.1
    assert np.std(ys, ddof=1) == pytest.approx(1.0, abs=0.02)
