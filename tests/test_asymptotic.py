import math

import numpy as np
import pytest
from scipy import integrate

from choquet_dist import (MixtureApprox, SetFunction, UniformOrderStats,
                          WeightFunction, alpha, beta2, chain_for,
                          check_capacity, enumerate_chains, mixture_approx,
                          mixture_cdf, mixture_pdf, moments_report,
                          power_weight_game, provider_for)
from choquet_dist.osmoments import (LAWS, exponential_quantile_model,
                                    normal_quantile_model,
                                    uniform_quantile_model)
from choquet_dist.montecarlo import sample_values

from helpers import component_stats, game_kinds


def test_alpha_power_uniform():
    assert alpha(WeightFunction.power(2), uniform_quantile_model()) == pytest.approx(
        0.25, abs=1e-9)


def test_alpha_constant_means():
    one = WeightFunction.constant()
    assert alpha(one, uniform_quantile_model()) == pytest.approx(0.5, abs=1e-9)
    assert alpha(one, exponential_quantile_model()) == pytest.approx(1.0, abs=1e-7)
    assert alpha(one, normal_quantile_model()) == pytest.approx(0.0, abs=1e-6)


def test_beta2_power_uniform():
    assert beta2(WeightFunction.power(2), uniform_quantile_model()) == pytest.approx(
        1 / 112, abs=1e-9)


def test_beta2_constant_uniform():
    assert beta2(WeightFunction.constant(), uniform_quantile_model()) == pytest.approx(
        1 / 12, abs=1e-9)


def test_beta2_constant_exponential():
    # the sample mean of exponentials has variance 1/n, so n Var -> 1
    assert beta2(WeightFunction.constant(), exponential_quantile_model()) == pytest.approx(
        1.0, abs=1e-6)


def test_beta2_constant_normal():
    assert beta2(WeightFunction.constant(), normal_quantile_model()) == pytest.approx(
        1.0, abs=1e-4)


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
    ch = chain_for(g, (2, 4, 1, 3))
    want = [(1 / n) * ((n - i + 1) / n) ** a for i in range(1, n + 1)]
    assert np.allclose(ch.weights, want)


def test_power_weight_rejects_bad_exponent():
    with pytest.raises(ValueError):
        power_weight_game(3, 0.0)


def test_step_weight_function_reproduces_grid():
    g = power_weight_game(5, 2.0)
    ch = chain_for(g, (1, 2, 3, 4, 5))
    J = WeightFunction.from_chain(ch)
    n = 5
    for i in range(1, n + 1):
        want = n * ch.weights[n - i]
        assert J(i / n) == pytest.approx(want, rel=1e-12)
        assert J(i / n) == pytest.approx((i / n) ** 2, rel=1e-12)


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
            chains = ([chain_for(g, range(1, n + 1))] if g.is_symmetric()
                      else list(enumerate_chains(g)))
            for prov in records:
                mix = mixture_approx(g, prov)
                mean, var = np.array([component_stats(ch.weights, prov) for ch in chains]).T
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
