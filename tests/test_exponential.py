import math

import numpy as np
import pytest
from scipy import integrate

from choquet_dist import (ExponentialChoquetDist, RegularityError, SetFunction,
                          chain_table, exp_moments, make_game,
                          power_weight_game, random_capacity)
from choquet_dist import exponential
from choquet_dist.exponential import CANCELLATION_TOL, chain_coeffs
from choquet_dist.montecarlo import ks_statistic, sample_values

from helpers import game_kinds, walk_is_regular

EPS = np.finfo(float).eps


def _all_nonempty(n):
    return [tuple(i + 1 for i in range(n) if m >> i & 1) for m in range(1, 1 << n)]


def _min_capacity(n):
    return make_game(n, {s: (1.0 if len(s) == n else 0.0) for s in _all_nonempty(n)})


def test_n1_is_plain_exponential():
    dist = ExponentialChoquetDist(make_game(1, {(1,): 1.0}))
    for y in (0.0, 0.4, 2.5):
        assert dist.pdf(y) == pytest.approx(math.exp(-y), rel=1e-12)
    assert dist.cdf(1.0) == pytest.approx(1 - math.exp(-1.0), rel=1e-12)


def test_n1_scaled():
    g = make_game(1, {(1,): 0.5})
    # Y = X/2 has density 2 e^{-2y}
    assert ExponentialChoquetDist(g).pdf(0.3) == pytest.approx(2 * math.exp(-0.6), rel=1e-12)


def test_min_capacity_rejected():
    with pytest.raises(RegularityError, match="not positive"):
        ExponentialChoquetDist(_min_capacity(3))


def test_min_capacity_via_monte_carlo():
    # the Monte Carlo route stays available where the closed form is not:
    # the minimum of n exponentials has cdf 1 - e^{-ny}
    n = 3
    ys = sample_values(_min_capacity(n), "exponential", 100_000, seed=31)
    band = 1.63 / math.sqrt(100_000)
    assert ks_statistic(ys, lambda y: 1 - np.exp(-n * np.maximum(y, 0))) < band


def test_chain_coeffs_flag_every_min_capacity_chain():
    # the min capacity is symmetric, so its table is the one identity chain;
    # lowering nu({2}) breaks the symmetry and gives two chains, both irregular
    lowered = make_game(2, {(1,): 0.0, (2,): -0.1, (1, 2): 1.0})
    for g, want in ((_min_capacity(2), [[0.0, 0.5]]), (lowered, [[0.0, 0.5], [-0.1, 0.5]])):
        c, regular = chain_coeffs(chain_table(g)[1])
        np.testing.assert_array_equal(c, want)
        assert not regular.any()
        with pytest.raises(RegularityError, match=r"sigma=\(1, 2\): c_1 = 0 is not positive"):
            ExponentialChoquetDist(g)


def test_nan_shift_gives_nan():
    d = ExponentialChoquetDist(make_game(2, {(1,): 0.4, (2,): 0.7, (1, 2): 1.0}))
    for f in (d.pdf, d.cdf):
        assert math.isnan(f(math.nan))
        out = f(np.array([-1.0, math.nan, 0.7]))
        assert out[0] == 0.0 and np.isnan(out[1]) and out[2] > 0.0


def test_proportional_chain_rejected():
    # nu({2})/1 equals nu({1,2})/2, so one chain has coincident scales
    g = make_game(2, {(1,): 0.2, (2,): 0.5, (1, 2): 1.0})
    with pytest.raises(RegularityError, match="coincide"):
        ExponentialChoquetDist(g)


def test_reference_density_normalizes(ref_capacity):
    dist = ExponentialChoquetDist(ref_capacity)
    hi = 50 * float(np.max(dist.scales))
    val = integrate.quad(dist.pdf, 0, hi, limit=300, epsabs=1e-10)[0]
    assert val == pytest.approx(1.0, abs=1e-7)


def test_pooled_weights_keep_the_mass_under_cancellation():
    # the third capacity drawn from default_rng([202, 0]), at n = 7: the
    # 5,040 chain weights of the scale 1/7 cancel about 1,400-fold, and a
    # running sum of them lost 5.5e-11 of the mass
    rng = np.random.default_rng([202, 0])
    for n in (5, 6):
        random_capacity(n, rng)
    dist = ExponentialChoquetDist(random_capacity(7, rng))
    w, s = dist.weights, dist.scales
    assert abs(w @ s - 1.0) <= 64 * np.finfo(float).eps * (np.abs(w) @ s)


def test_cancellation_ratio(ref_capacity):
    for nu in (1.0, 0.5):
        assert ExponentialChoquetDist(make_game(1, {(1,): nu})).cancellation == 1.0
    dist = ExponentialChoquetDist(ref_capacity)
    assert dist.cancellation >= 1.0
    assert dist.cancellation == float(np.abs(dist.weights) @ dist.scales)


@pytest.mark.parametrize("n, a", [(16, 2.0), (10, 0.5), (12, 1.0)])
def test_pdf_stays_within_its_own_rounding_bound(n, a):
    # the pdf's terms are w e^(-y/s): at y = 0, where the density is exactly
    # 0 for n >= 2, they cancel to eps * sum |w|, past the cdf's bound
    dist = ExponentialChoquetDist(power_weight_game(n, a))
    assert dist.pdf_bound == EPS * float(np.abs(dist.weights).sum())
    assert abs(dist.pdf(0.0)) <= dist.pdf_bound


def _check_refusal_rule(g, slack=1.0):
    """The constructor refuses g exactly when eps * cancellation exceeds
    CANCELLATION_TOL, naming that bound; an accepted g has its mass and
    mean within slack times the bound.  Returns whether g was accepted, or
    None for an irregular g."""
    try:
        d = ExponentialChoquetDist(g)
    except RegularityError:
        return None
    except ValueError as exc:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exponential, "CANCELLATION_TOL", math.inf)
            bound = EPS * ExponentialChoquetDist(g).cancellation
        assert bound > CANCELLATION_TOL and f"off by {bound:.1e}" in str(exc)
        return False
    bound = EPS * d.cancellation
    assert bound <= CANCELLATION_TOL
    w, s = d.weights, d.scales
    mean = exp_moments(g)[0]
    assert abs(w @ s - 1.0) <= slack * bound
    assert abs(w @ s ** 2 - mean) <= slack * bound * mean
    return True


@pytest.mark.parametrize("a, reach", [(0.5, 10), (1.0, 12), (2.0, 16)])
def test_power_weight_games_are_refused_by_their_rounding_bound(a, reach):
    accepted = [n for n in range(2, 25) if _check_refusal_rule(power_weight_game(n, a))]
    assert accepted == list(range(2, reach + 1))


def test_every_kind_follows_the_refusal_rule():
    # eps * cancellation estimates the rounding error rather than bounding it:
    # each weight carries ~n roundings, and on these kinds the error reached
    # 2.2 times the estimate (default_rng(11), n = 6, generic)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for n in range(1, 8):
            for vals in game_kinds(n, rng).values():
                _check_refusal_rule(SetFunction(n, vals), slack=n)


def test_refusals_name_their_cause():
    assert EPS * ExponentialChoquetDist(power_weight_game(12, 2.0)).cancellation < 1e-8
    with pytest.raises(ValueError, match=r"off by 1\.5e-02 .* use Monte Carlo"):
        ExponentialChoquetDist(power_weight_game(13, 0.5))
    # a non-symmetric game above the enumeration cap is refused by the chain table
    with pytest.raises(ValueError, match="n! = 39,916,800 chains"):
        ExponentialChoquetDist(random_capacity(11, np.random.default_rng(11)))


def test_cdf_limits(ref_capacity):
    dist = ExponentialChoquetDist(ref_capacity)
    assert dist.cdf(0.0) == 0.0
    assert dist.cdf(-1.0) == 0.0
    assert dist.cdf(200.0) == pytest.approx(1.0, abs=1e-12)


def test_density_vanishes_at_origin_for_n_ge_2(ref_capacity):
    # partial fractions of x^{n-2} over n points cancel at y=0
    assert ExponentialChoquetDist(ref_capacity).pdf(0.0) == pytest.approx(0.0, abs=1e-12)


def test_pdf_nonnegative_on_grid(ref_capacity):
    dist = ExponentialChoquetDist(ref_capacity)
    ys = np.linspace(0.0, 50.0, 2000)
    assert np.min(dist.pdf(ys)) >= -1e-10  # signed mixture must stay a density


def test_cdf_derivative_matches_pdf(ref_capacity):
    dist = ExponentialChoquetDist(ref_capacity)
    ys = np.linspace(0.05, 4.0, 60)
    h = 1e-6
    num = (dist.cdf(ys + h) - dist.cdf(ys - h)) / (2 * h)
    assert np.max(np.abs(num - dist.pdf(ys))) < 1e-6


def test_cdf_matches_ecdf(ref_capacity):
    dist = ExponentialChoquetDist(ref_capacity)
    ys = sample_values(ref_capacity, "exponential", 100_000, seed=11)
    assert ks_statistic(ys, dist.cdf) < 1.36 / math.sqrt(100_000)


def test_mean_equals_density_integral(ref_capacity):
    dist = ExponentialChoquetDist(ref_capacity)
    m, sd = exp_moments(ref_capacity)
    hi = 60 * float(np.max(dist.scales))
    val = integrate.quad(lambda y: y * dist.pdf(y), 0, hi, limit=300)[0]
    assert m == pytest.approx(val, abs=1e-6)
    assert m == pytest.approx(29 / 30, abs=1e-12)
    assert sd == pytest.approx(0.6245, abs=1e-4)


def test_arithmetic_mean_capacity_is_irregular():
    # nu_i / i = 1/n for every i, so all scales coincide (the mean of n
    # exponentials is Gamma-distributed, not a distinct-scale mixture)
    n = 3
    g = make_game(n, {s: len(s) / n for s in _all_nonempty(n)})
    with pytest.raises(RegularityError, match="coincide"):
        ExponentialChoquetDist(g)


def test_max_capacity_collapses_to_single_chain():
    # symmetric and regular: every chain gives scales 1, 1/2, 1/3, and the
    # cdf must equal the known law of the maximum
    n = 3
    gmax = make_game(n, {s: 1.0 for s in _all_nonempty(n)})
    dmax = ExponentialChoquetDist(gmax)
    assert sorted(dmax.scales) == pytest.approx([1 / 3, 1 / 2, 1.0])
    for y in (0.3, 1.0, 2.7):
        want = (1 - math.exp(-y)) ** 3
        assert dmax.cdf(y) == pytest.approx(want, rel=1e-10)


def test_exp_moments_min_and_max_capacity():
    for n in (2, 4):
        m_min, _ = exp_moments(_min_capacity(n))
        assert m_min == pytest.approx(1 / n, abs=1e-12)
        gmax = make_game(n, {s: 1.0 for s in _all_nonempty(n)})
        m_max, _ = exp_moments(gmax)
        assert m_max == pytest.approx(sum(1 / k for k in range(1, n + 1)), abs=1e-12)


def test_random_regular_capacities_normalize(rng):
    done = 0
    while done < 4:
        g = random_capacity(int(rng.integers(2, 5)), rng)
        if not walk_is_regular(g):
            continue
        dist = ExponentialChoquetDist(g)
        hi = 50 * float(np.max(dist.scales))
        val = integrate.quad(dist.pdf, 0, hi, limit=300, epsabs=1e-9)[0]
        assert val == pytest.approx(1.0, abs=1e-6)
        done += 1
