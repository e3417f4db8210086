import math

import numpy as np
import pytest

from choquet_dist import (ExponentialChoquetDist, UniformChoquetDist, choquet_values,
                          ks_statistic, make_game, mixture_approx, mixture_cdf,
                          provider_for, random_capacity, sample, sample_values)
from choquet_dist.moments import mean as general_mean
from choquet_dist.normal import norm_ppf
from choquet_dist.osmoments import LAWS

from helpers import full_ks_statistic


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


class CountingCdf:
    """Wraps a cdf and counts its calls and the points passed to it."""

    def __init__(self, cdf):
        self.cdf = cdf
        self.calls = 0
        self.points = 0

    def __call__(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.cdf(x)


def test_ks_statistic_matches_full_evaluation_on_a_mixture():
    g = random_capacity(5, np.random.default_rng(5))
    mix = mixture_approx(g, provider_for("normal", 5, dj_order=3))
    ys = sample_values(g, "normal", 200_000, seed=5)
    counted = CountingCdf(lambda x: mixture_cdf(mix, x))
    ks = ks_statistic(ys, counted)
    assert abs(ks - full_ks_statistic(ys, lambda x: mixture_cdf(mix, x))) <= 1e-15
    assert counted.calls <= math.ceil(math.log2(ys.size - 1)) + 1
    assert counted.points <= 0.01 * ys.size


@pytest.mark.parametrize("law, dist", [("uniform", UniformChoquetDist),
                                       ("exponential", ExponentialChoquetDist)])
def test_ks_statistic_matches_full_evaluation_on_exact_laws(law, dist):
    g = random_capacity(3, np.random.default_rng(3))
    d = dist(g)
    ys = sample_values(g, law, 100_000, seed=7)
    assert abs(ks_statistic(ys, d.cdf) - full_ks_statistic(ys, d.cdf)) <= 1e-15


_TABLE_X = np.linspace(-2.0, 2.0, 9)
_TABLE_F = np.sort(np.random.default_rng(0).random(9))
POINTWISE_CDFS = {"clip": lambda x: np.clip(x, 0.0, 1.0),
                  "interp": lambda x: np.interp(x, _TABLE_X, _TABLE_F)}


@pytest.mark.parametrize("cdf", list(POINTWISE_CDFS))
@pytest.mark.parametrize("m", sorted({2, 3, 31, 32, 33, 65, 1000, 100_000}
                                    | {j for k in (3, 6, 10)  # where bisection splits
                                       for j in (2**k - 1, 2**k, 2**k + 1, 2**(k + 1) + 1)}))
@pytest.mark.parametrize("kind", ["draws", "ties", "constant"])
def test_ks_statistic_equals_full_evaluation_for_pointwise_cdfs(cdf, m, kind):
    ys = np.random.default_rng(m).normal(0.5, 0.6, m)
    if kind == "ties":
        ys = np.round(ys, 2)
    elif kind == "constant":
        ys = np.full(m, ys[0])
    f = POINTWISE_CDFS[cdf]
    assert ks_statistic(ys, f) == full_ks_statistic(ys, f)


@pytest.mark.parametrize("jump", [2501, 2563, 3037, 3071, 3072, 3073, 4095, 4097, 4990])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_ks_statistic_finds_the_largest_gap_inside_a_segment(jump, side):
    # one jump of the cdf puts the largest gap at a draw next to it, anywhere
    # inside a segment or piece; flat stretches elsewhere bound nothing tightly
    m = 5000
    ys = np.arange(float(m))
    if side == "upper":  # F = 0 up to draw `jump`, whose upper gap (jump+1)/m wins
        f = lambda x: (x > jump).astype(float)
    else:  # F = 1 from draw m-1-jump on, whose lower gap (jump+1)/m wins
        f = lambda x: (x >= m - 1 - jump).astype(float)
    assert ks_statistic(ys, f) == full_ks_statistic(ys, f) == pytest.approx((jump + 1) / m)


def test_ks_statistic_equals_full_evaluation_on_random_ramps_and_steps():
    # piecewise-linear cdfs through a few random knots, and their floors to a
    # few levels: gaps that grow steadily across segments and pieces, and
    # flat stretches, at many sample sizes; a bound off by one draw shows here
    wrong = []
    for seed in range(1500):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(100, 6000))
        knots = np.sort(rng.choice(m, int(rng.integers(1, 6)), replace=False))
        levels = np.sort(rng.random(knots.size))
        steps = float(rng.integers(2, 50))
        ramp = lambda x: np.interp(x, np.r_[0, knots, m - 1], np.r_[0.0, levels, 1.0])
        ys = np.arange(float(m))
        for f in (ramp, lambda x: np.floor(ramp(x) * steps) / steps):
            if ks_statistic(ys, f) != full_ks_statistic(ys, f):
                wrong.append(seed)
    assert wrong == []


def test_ks_statistic_of_a_decreasing_callable_is_short_by_at_most_its_decrease():
    ys = np.random.default_rng(8).random(5000)
    wobbly = lambda x: np.clip(x, 0.0, 1.0) + 0.01 * np.sin(300.0 * x)
    f = wobbly(np.sort(ys))
    decrease = float(np.max(np.maximum.accumulate(f)[:-1] - f[1:]))
    full = full_ks_statistic(ys, wobbly)
    assert full - decrease <= ks_statistic(ys, wobbly) <= full


def test_ks_statistic_refuses_nan_and_takes_infinities():
    clip = lambda x: np.clip(x, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        ks_statistic([0.1, np.nan, 0.3], clip)
    ys = [-np.inf, 0.2, 0.7, np.inf]
    assert ks_statistic(ys, clip) == full_ks_statistic(ys, clip) == 0.3


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
