import math

import numpy as np
import pytest

from choquet_dist import (ExponentialOrderStats, SetFunction, UniformOrderStats,
                          make_game, moments_report, provider_for,
                          random_capacity)
from choquet_dist.capacity import subset_sizes
from choquet_dist.moments import mean, nested_pair_level_sums, second_raw_moment
from choquet_dist.montecarlo import sample_values

from helpers import brute_nested_pairs, game_kinds


def _all_nonempty(n):
    return [tuple(i + 1 for i in range(n) if m >> i & 1) for m in range(1, 1 << n)]


def test_reference_uniform_moments(ref_capacity):
    prov = UniformOrderStats(3)
    assert mean(ref_capacity, prov) == pytest.approx(0.495833333333, abs=1e-10)
    m2 = second_raw_moment(ref_capacity, prov)
    sd = math.sqrt(m2 - mean(ref_capacity, prov) ** 2)
    assert sd == pytest.approx(0.183, abs=1e-3)


def test_reference_exponential_moments(ref_capacity):
    rep = moments_report(ref_capacity, ExponentialOrderStats(3))
    # exact values are 29/30 and 0.62450 (cross-checked by direct 3-D
    # quadrature of the integral against the product exponential density)
    assert rep.mean == pytest.approx(29 / 30, abs=1e-12)
    assert rep.sd == pytest.approx(0.624, abs=1e-3)


def test_reference_normal_moments(ref_capacity):
    rep = moments_report(ref_capacity, provider_for("normal", 3, dj_order=3))
    assert rep.mean == pytest.approx(-0.014, abs=3e-3)
    assert rep.sd == pytest.approx(0.615, abs=1e-2)


def test_additive_capacity_mean_is_input_mean(rng):
    # nu(T) = sum of weights telescopes to E[X] under any law
    for law in ("uniform", "exponential"):
        for n in (2, 4):
            w = rng.random(n)
            w /= w.sum()
            g = make_game(n, {s: sum(w[i - 1] for i in s) for s in _all_nonempty(n)})
            prov = provider_for(law, n)
            ex = 0.5 if law == "uniform" else 1.0
            assert mean(g, prov) == pytest.approx(ex, abs=1e-12)


def test_max_capacity_means():
    for n in (2, 3, 5):
        g = make_game(n, {s: 1.0 for s in _all_nonempty(n)})
        assert mean(g, UniformOrderStats(n)) == pytest.approx(n / (n + 1), abs=1e-12)
        hn = sum(1 / k for k in range(1, n + 1))
        assert mean(g, ExponentialOrderStats(n)) == pytest.approx(hn, abs=1e-12)


def test_min_capacity_exponential_mean():
    g = make_game(3, {s: (1.0 if len(s) == 3 else 0.0) for s in _all_nonempty(3)})
    assert mean(g, ExponentialOrderStats(3)) == pytest.approx(1 / 3, abs=1e-12)


def test_constant_zero_game():
    g = make_game(3, {s: 0.0 for s in _all_nonempty(3)})
    rep = moments_report(g, UniformOrderStats(3))
    assert rep.mean == 0.0 and rep.sd == 0.0


def test_variance_nonnegative_random_games(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_capacity(n, rng)
        for law in ("uniform", "exponential"):
            rep = moments_report(g, provider_for(law, n))
            assert rep.variance >= -1e-10


def _second_moment_multiplicity_form(g, prov):
    """Directнад nested-pair evaluation with the multiplicity coefficients
    2/([T]_0! ... [T]_n!) over non-strict nestings; test oracle."""
    n = g.n
    sizes = subset_sizes(n)
    total = 0.0

    def d(provider, t1, t2):
        a, b = n - t1 + 1, n - t1
        c, dd = n - t2 + 1, n - t2

        def pr(i, j):
            if i == 0 or j == 0:
                return 0.0
            return provider.product(min(i, j), max(i, j))

        return pr(a, c) - pr(a, dd) - pr(b, c) + pr(b, dd)

    for m2 in range(1 << n):
        sub = m2
        while True:
            s, t = sizes[sub], sizes[m2]
            mult = 2.0 if s != t else 1.0  # [T]_j! factors: 2/2! = 1 on the diagonal
            if g.values[sub] != 0.0 and g.values[m2] != 0.0:
                total += (mult * g.values[sub] * g.values[m2]
                          / (math.comb(t, s) * math.comb(n, t)) * d(prov, s, t))
            if sub == 0:
                break
            sub = (sub - 1) & m2
    return total


def test_second_moment_matches_multiplicity_form(rng):
    for n in (2, 3, 5):
        vals = rng.random(1 << n)
        vals[0] = 0.0
        from choquet_dist import SetFunction
        g = SetFunction(n, vals)  # any game, no monotonicity needed
        for law in ("uniform", "exponential"):
            prov = provider_for(law, n)
            assert second_raw_moment(g, prov) == pytest.approx(
                _second_moment_multiplicity_form(g, prov), abs=1e-12)


def test_nested_pair_level_sums_match_submask_walk(rng):
    for n in range(1, 7):
        for kind, vals in game_kinds(n, rng).items():
            g = SetFunction(n, vals)
            got, want = nested_pair_level_sums(g), brute_nested_pairs(g)
            assert not np.isnan(got).any(), kind
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=kind)


def test_moments_match_monte_carlo(rng):
    for law in ("uniform", "exponential"):
        for k in range(2):
            g = random_capacity(4, rng)
            ys = sample_values(g, law, 200_000, seed=int(rng.integers(2**31)))
            se = ys.std(ddof=1) / math.sqrt(len(ys))
            assert abs(mean(g, provider_for(law, 4)) - ys.mean()) < 4 * se


def test_report_fields(ref_capacity):
    rep = moments_report(ref_capacity, UniformOrderStats(3))
    assert rep.law == "uniform"
    assert rep.sd == pytest.approx(math.sqrt(rep.variance))
    assert rep.y is None and rep.pdf is None and rep.cdf is None
