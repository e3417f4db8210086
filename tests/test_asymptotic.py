import math

import numpy as np
import pytest
from scipy import integrate, special

from choquet_dist import (MixtureApprox, SetFunction, UniformOrderStats,
                          WeightFunction, alpha, beta2, check_capacity,
                          mixture_approx, mixture_cdf, mixture_pdf,
                          moments_report, power_weight_game, provider_for)
from choquet_dist.osmoments import (LAWS, exponential_quantile_model,
                                    normal_quantile_model,
                                    uniform_quantile_model)
from choquet_dist.asymptotic import _GL_S, _GL_W, _GL_X, PanelRule
from choquet_dist.montecarlo import sample_values

from helpers import chain_walk, component_stats, game_kinds, table_walk

POWERS = (0.25, 0.5, 1.0, 2.0, 3.0)
ONE = WeightFunction(np.ones_like)  # J = 1: the sample mean


def _chain_weights(g, sigma):
    """The weights nu_i - nu_{i-1} along the chain of the ordering sigma."""
    return np.diff(dict(chain_walk(g))[tuple(sigma)])


def test_alpha_power_uniform():
    for a in POWERS:
        assert alpha(WeightFunction.power(a), uniform_quantile_model()) == pytest.approx(
            1 / (a + 2), rel=1e-14), a


def test_alpha_constant_means():
    assert alpha(ONE, uniform_quantile_model()) == pytest.approx(0.5, rel=1e-14)
    assert alpha(ONE, exponential_quantile_model()) == pytest.approx(1.0, rel=1e-14)
    assert alpha(ONE, normal_quantile_model()) == pytest.approx(0.0, abs=1e-15)


def test_beta2_power_uniform():
    for a in POWERS:
        assert beta2(WeightFunction.power(a), uniform_quantile_model()) == pytest.approx(
            2 / ((a + 2) * (2 * a + 3) * (2 * a + 4)), rel=1e-14), a


def test_beta2_constant_uniform():
    assert beta2(ONE, uniform_quantile_model()) == pytest.approx(
        1 / 12, rel=1e-14)


def test_beta2_constant_exponential():
    # the sample mean of exponentials has variance 1/n, so n Var -> 1
    assert beta2(ONE, exponential_quantile_model()) == pytest.approx(
        1.0, rel=1e-14)


def test_beta2_constant_normal():
    assert beta2(ONE, normal_quantile_model()) == pytest.approx(
        1.0, rel=1e-14)


def test_gauss_legendre_panel_rule():
    x, w = np.polynomial.legendre.leggauss(8)
    np.testing.assert_allclose(_GL_X, x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_GL_W, w, rtol=0, atol=1e-15)
    # the integration matrix integrates every polynomial of degree < 8 exactly
    for k in range(8):
        want = (_GL_X ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        np.testing.assert_allclose(_GL_S @ _GL_X ** k, want, rtol=0, atol=2e-15)


def test_cumulative_integral_normal_constant_weight():
    # K(y) = int_{-inf}^{y} Phi(x) dx = y Phi(y) + phi(y) for J = 1
    rule = PanelRule.for_law(normal_quantile_model())
    y = rule.x
    want = y * special.ndtr(y) + np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)
    np.testing.assert_allclose(rule.cumulative(special.ndtr(y)), want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("a", POWERS)
def test_alpha_exponential_closed_form(a):
    want = (special.digamma(a + 2) + np.euler_gamma) / (a + 1)
    assert alpha(WeightFunction.power(a), exponential_quantile_model()) == pytest.approx(
        want, rel=1e-14)


def test_alpha_normal_is_scaled_expected_maximum():
    # J(u) = u^a with integer a gives alpha = E[X_{a+1:a+1}] / (a+1)
    qm = normal_quantile_model()
    for a, want in ((1, 1 / (2 * math.sqrt(math.pi))), (2, 1 / (2 * math.sqrt(math.pi))),
                    (3, 1.0293753730 / 4)):
        assert alpha(WeightFunction.power(a), qm) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("a", (0.5, 2.0))
def test_beta2_normal_against_x_trapezoid(a):
    x = np.linspace(-9.0, 9.0, 72001)
    F = special.ndtr(x)
    J = F ** a
    JF = J * F
    inner = np.concatenate([[0.0], np.cumsum((JF[1:] + JF[:-1]) * 0.5 * np.diff(x))])
    want = 2.0 * np.trapezoid(J * (1.0 - F) * inner, x)
    assert beta2(WeightFunction.power(a), normal_quantile_model()) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("qm", (normal_quantile_model(), exponential_quantile_model()))
def test_limits_report_step_without_breaks(qm):
    # a jump of J inside a panel is what the halving estimate is there to catch
    step = lambda u: (u > 0.3) * 1.0
    with pytest.raises(ValueError, match="alpha quadrature"):
        alpha(step, qm)
    with pytest.raises(ValueError, match="beta\\^2 quadrature"):
        beta2(step, qm)


def test_weight_functions_take_arrays():
    u = np.array([[0.05, 0.2], [0.5, 0.99]])
    np.testing.assert_allclose(WeightFunction.power(2)(u), u ** 2)


def test_power_weight_game_values():
    g = power_weight_game(2, 2.0)
    assert g.value_of([1]) == pytest.approx(0.5)
    assert g.value_of([2]) == pytest.approx(0.5)
    assert g.value_of([1, 2]) == pytest.approx(0.625)
    # nu(N) is the full prefix sum for any n
    g5 = power_weight_game(5, 1.5)
    want = sum((1 / 5) * ((5 - j + 1) / 5) ** 1.5 for j in range(1, 6))
    assert g5[g5.full_mask] == pytest.approx(want)


def test_power_weight_game_is_symmetric_with_stated_weights():
    n, a = 4, 2.0
    g = power_weight_game(n, a)
    assert g.is_symmetric()
    want = [(1 / n) * ((n - i + 1) / n) ** a for i in range(1, n + 1)]
    assert np.allclose(_chain_weights(g, (2, 4, 1, 3)), want)


def test_power_weight_rejects_bad_exponent():
    # u^inf is 0 on [0, 1) and the game's steps collapse to (1/n, 0, .., 0),
    # so an infinite exponent would give alpha = beta^2 = 0 without a word
    for a in (0.0, -1.0, math.inf, -math.inf, math.nan):
        for build in (WeightFunction.power, lambda a: power_weight_game(5, a)):
            with pytest.raises(ValueError, match="exponent must be finite and strictly positive"):
                build(a)


def test_mixture_symmetric_collapses_to_one_component():
    g = power_weight_game(3, 2.0)
    mix = mixture_approx(g, UniformOrderStats(3))
    assert mix.weights.shape == (1,)
    assert mix.weights[0] == 1.0


def test_mixture_reference_capacity_components(ref_capacity):
    mix = mixture_approx(ref_capacity, UniformOrderStats(3))
    assert mix.weights.shape == (6,)
    assert mix.weights.sum() == pytest.approx(1.0)
    assert np.all(mix.variances > 0)
    # mixture mean must equal the exact mean (both average per-ordering means)
    assert float(mix.weights @ mix.means) == pytest.approx(0.4958333333, abs=1e-10)


def test_mixture_pdf_cdf_basics():
    mix = MixtureApprox(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert mixture_pdf(mix, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert mixture_cdf(mix, -40.0) == pytest.approx(0.0, abs=1e-15)
    assert mixture_cdf(mix, 40.0) == pytest.approx(1.0, abs=1e-15)


def test_mixture_pdf_integrates_to_one(ref_capacity):
    mix = mixture_approx(ref_capacity, UniformOrderStats(3))
    val = integrate.quad(lambda y: mixture_pdf(mix, y), -2, 3, limit=200)[0]
    assert val == pytest.approx(1.0, abs=1e-8)


def test_mixture_rejects_zero_variance():
    mix = MixtureApprox(np.array([1.0]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="variance"):
        mixture_pdf(mix, 0.0)


def test_mixture_tracks_monte_carlo_normal_law(ref_capacity):
    # the normal-law mixture overlays the sampled density closely at n=3
    mix = mixture_approx(ref_capacity, provider_for("normal", 3, dj_order=3))
    ys = sample_values(ref_capacity, "normal", 100_000, seed=5)
    hist, edges = np.histogram(ys, bins=50, range=(-2.0, 2.0), density=True)
    mids = (edges[:-1] + edges[1:]) / 2
    assert np.max(np.abs(hist - mixture_pdf(mix, mids))) < 0.05


def test_component_stats_converge_to_limit_functionals():
    # power-weight family under uniform inputs: means approach 1/4 and
    # n * variance approaches 1/112, monotonically over the probed sizes
    target_mean, target_nv = 0.25, 1 / 112
    errs_m, errs_v = [], []
    for n in (3, 5, 10, 20):
        mix = mixture_approx(power_weight_game(n, 2.0), UniformOrderStats(n))
        errs_m.append(abs(float(mix.means[0]) - target_mean))
        errs_v.append(abs(n * float(mix.variances[0]) - target_nv))
    assert all(b < a for a, b in zip(errs_m, errs_m[1:]))
    assert all(b < a for a, b in zip(errs_v, errs_v[1:]))
    # closed form for the component mean: (n+1)/(4n)
    for n, err in zip((3, 5, 10, 20), errs_m):
        assert err == pytest.approx(abs((n + 1) / (4 * n) - 0.25), abs=1e-12)


def test_power_weight_game_is_capacity_after_normalization_only():
    # the raw game is monotone but not normalized (nu(N) < 1 for a = 2)
    g = power_weight_game(4, 2.0)
    chk = check_capacity(g)
    assert chk.is_monotone and not chk.is_normalized


def test_mixture_matches_per_call_component_oracle(rng):
    # the (chains x n) weight contraction against one accessor call per
    # order statistic and pair, component by component and in chain order
    for n in range(1, 7):
        records = [provider_for("uniform", n), provider_for("exponential", n),
                   provider_for("normal", n, dj_order=2), provider_for("normal", n, dj_order=3)]
        for kind, vals in game_kinds(n, rng).items():
            g = SetFunction(n, vals)
            walk = table_walk(g)
            chains = [np.diff(nu_chain) for _, nu_chain in walk]
            for prov in records:
                mix = mixture_approx(g, prov)
                mean, var = np.array([component_stats(w, prov) for w in chains]).T
                second = var + mean**2
                scale = float(np.max(np.abs(second), initial=0.0))
                tag = (n, kind, prov.law, getattr(prov, "order", None))
                np.testing.assert_array_equal(mix.weights, np.full(len(chains), 1 / len(chains)))
                np.testing.assert_allclose(mix.means, mean, rtol=1e-12,
                                           atol=1e-12 * math.sqrt(scale), err_msg=str(tag))
                np.testing.assert_allclose(mix.variances + mix.means**2, second, rtol=1e-12,
                                           atol=1e-12 * scale, err_msg=str(tag))


def test_symmetric_component_matches_spacing_route():
    # on a symmetric game every ordering is the same linear combination, so
    # the single chain contraction and the nested-subset spacing contraction
    # are two routes to the same moments; the variance is held to E[Y^2],
    # the scale it cancels down from
    for n in range(2, 15):
        for a in (0.5, 2.0):
            g = power_weight_game(n, a)
            for law in LAWS:
                for order in (2, 3):
                    prov = provider_for(law, n, dj_order=order)
                    mix = mixture_approx(g, prov)
                    rep = moments_report(g, prov)
                    second = rep.variance + rep.mean**2
                    assert mix.weights.shape == (1,)
                    assert mix.means[0] == pytest.approx(rep.mean, rel=1e-12), (n, a, law)
                    assert mix.variances[0] == pytest.approx(rep.variance, rel=1e-12,
                                                             abs=1e-12 * second), (n, a, law)
