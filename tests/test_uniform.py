import math

import numpy as np
import pytest
from scipy import integrate

from choquet_dist import (SetFunction, UniformChoquetDist, UniformOrderStats,
                          chain_table, closed_form_mean, closed_form_second_moment,
                          make_game,
                          power_weight_game, random_capacity, tp_minus_dd, tp_plus_dd,
                          uniform)
from choquet_dist.capacity import subset_sizes
from choquet_dist.moments import mean as general_mean
from choquet_dist.moments import second_raw_moment
from choquet_dist.montecarlo import ks_statistic, sample_values

from helpers import brute_raw_moment, dd_recurrence, expect_gn, game_kinds


def _all_nonempty(n):
    return [tuple(i + 1 for i in range(n) if m >> i & 1) for m in range(1, 1 << n)]


def _symmetric(n):
    return make_game(n, {s: len(s) / n for s in _all_nonempty(n)})


def integrate_pdf(dist, lo=None, hi=None):
    a, b = dist.support()
    knots = [k for k in dist.knot_values() if a < k < b]
    return integrate.quad(dist.pdf, lo if lo is not None else a,
                          hi if hi is not None else b,
                          points=knots, limit=50 + 10 * len(knots), epsabs=1e-10)[0]


def test_cdf_endpoints(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(1.0) == 1.0
    assert d.cdf(-0.2) == 0.0
    assert d.cdf(1.2) == 1.0


def test_cdf_symmetric_mean_at_half():
    d = UniformChoquetDist(_symmetric(3))
    assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-12)


def test_cdf_matches_ecdf(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    ys = sample_values(ref_capacity, "uniform", 100_000, seed=7)
    assert ks_statistic(ys, d.cdf) < 1.36 / math.sqrt(100_000)


def test_pdf_n1_is_uniform_density():
    g = make_game(1, {(1,): 1.0})
    d = UniformChoquetDist(g)
    assert d.pdf(0.3) == pytest.approx(1.0)
    assert d.pdf(0.9) == pytest.approx(1.0)
    assert d.pdf(1.5) == 0.0


def test_pdf_takes_the_left_limit_at_the_top_knot():
    # chains 0 < 1 = 1 and 0 < 0.5 < 1: the density is 3y below 1/2 and
    # 2 - y above, and at the top knot y = 1 it keeps the left limit 1
    d = UniformChoquetDist(make_game(2, {(1,): 1.0, (2,): 0.5, (1, 2): 1.0}))
    ys = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.0 + 1e-12])
    np.testing.assert_allclose(d.pdf(ys), [0.0, 0.75, 1.5, 1.25, 1.0, 0.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(d.cdf(ys), [0.0, 0.09375, 0.375, 0.71875, 1.0, 1.0],
                               rtol=0, atol=1e-14)


def test_pdf_symmetric_single_bspline():
    g = _symmetric(3)
    d = UniformChoquetDist(g)
    knots = [0, 1 / 3, 2 / 3, 1]
    for y in (0.1, 0.4, 0.77):
        assert d.pdf(y) == pytest.approx(3 * tp_plus_dd(knots, y), rel=1e-12)
    # and the cdf collapses to the single-chain divided difference
    for y in (0.2, 0.5, 0.9):
        assert d.cdf(y) == pytest.approx(tp_minus_dd(knots, y), rel=1e-12)


@pytest.mark.parametrize("n, a", [(12, 2.0), (20, 0.5)])
def test_symmetric_law_is_one_bspline_above_the_cap(n, a):
    # every ordering of a symmetric game has the chain of its level values,
    # so the exact law is one B-spline on them and n_max does not apply
    g = power_weight_game(n, a)
    d = UniformChoquetDist(g)
    assert d.knots.shape == (1, n + 1)
    levels = [g.values[(1 << i) - 1] for i in range(n + 1)]
    lo, hi = d.support()
    ys = np.linspace(lo, hi, 2001)
    pdf, cdf = d.pdf(ys), d.cdf(ys)
    few = ys[::10].tolist()
    np.testing.assert_allclose(pdf[::10], [n * dd_recurrence(levels, y, False) for y in few],
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(cdf[::10], [dd_recurrence(levels, y, True) for y in few],
                               rtol=1e-13, atol=0.0)
    m1 = integrate.simpson(ys * pdf, x=ys)
    m2 = integrate.simpson(ys * ys * pdf, x=ys)
    assert m1 == pytest.approx(closed_form_mean(g), rel=1e-11)
    assert m2 == pytest.approx(closed_form_second_moment(g), rel=1e-11)


def test_nan_shift_gives_nan(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    for f in (d.pdf, d.cdf):
        assert math.isnan(f(math.nan))
        out = f(np.array([0.2, math.nan, 0.7]))
        assert np.isnan(out[1]) and not np.isnan(out[[0, 2]]).any()


def test_pdf_integrates_to_one(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    assert integrate_pdf(d) == pytest.approx(1.0, abs=1e-8)


def test_pdf_nonnegative_and_cdf_monotone(ref_capacity, rng):
    d = UniformChoquetDist(ref_capacity)
    ys = np.linspace(-0.1, 1.1, 400)
    pdf = d.pdf(ys)
    cdf = d.cdf(ys)
    assert np.all(pdf >= -1e-12)
    assert np.all(np.diff(cdf) >= -1e-10)


def test_cdf_derivative_matches_pdf(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    interior = np.linspace(0.05, 0.95, 61)
    h = 1e-6
    num = (d.cdf(interior + h) - d.cdf(interior - h)) / (2 * h)
    assert np.max(np.abs(num - d.pdf(interior))) < 1e-6


def test_raw_moment_reference(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    assert d.raw_moment(1) == pytest.approx(0.495833333333333, abs=1e-12)
    sd = math.sqrt(d.raw_moment(2) - d.raw_moment(1) ** 2)
    assert sd == pytest.approx(0.183, abs=1e-3)


def test_raw_moment_matches_closed_forms_random_games(rng):
    for _ in range(6):
        n = int(rng.integers(2, 7))
        vals = rng.normal(size=1 << n)  # arbitrary game, not a capacity
        vals[0] = 0.0
        from choquet_dist import SetFunction
        g = SetFunction(n, vals)
        d = UniformChoquetDist(g)
        assert d.raw_moment(1) == pytest.approx(closed_form_mean(g), abs=1e-13)
        assert d.raw_moment(2) == pytest.approx(closed_form_second_moment(g), abs=1e-13)


def test_raw_moment_matches_level_enumeration(rng):
    for n in range(1, 7):
        for kind, vals in game_kinds(n, rng).items():
            g = SetFunction(n, vals)
            d = UniformChoquetDist(g)
            for r in range(1, 6):
                got = d.raw_moment(r)
                assert not math.isnan(got), (kind, n, r)
                assert got == pytest.approx(brute_raw_moment(g, r), rel=1e-12, abs=0), \
                    (kind, n, r)


def test_raw_moment_max_and_min_capacities_high_order(monkeypatch):
    # Y is the maximum (resp. minimum) of n uniforms: E[Y^r] = n/(n+r)
    # (resp. 1/C(n+r, r)); the dictator nu(T) = [1 in T] is Y = U_1, with
    # E[Y^r] = 1/(r+1).  (r+1)^n level maps would number 11^8 at r = 10, and
    # the dictator is not symmetric, so its chain table is refused above the
    # cap: no step may build it.
    def refuse(g):
        raise AssertionError("raw moments must not build the chain table")

    monkeypatch.setattr(uniform, "chain_table", refuse)
    for n, r_max in ((8, 10), (12, 6), (14, 6)):
        sizes = subset_sizes(n)
        cases = {"max": (sizes > 0, lambda r: n / (n + r)),
                 "min": (sizes == n, lambda r: 1 / math.comb(n + r, r)),
                 "dictator": (np.arange(1 << n) & 1, lambda r: 1 / (r + 1))}
        for kind, (vals, want) in cases.items():
            d = UniformChoquetDist(SetFunction(n, vals.astype(float)))
            assert d.support() == (0.0, 1.0), (kind, n)
            for r in range(1, r_max + 1):
                assert d.raw_moment(r) == pytest.approx(want(r), rel=1e-12), (kind, n, r)


def test_raw_moment_additive_above_the_cap(rng):
    # a weighted mean Y = sum w_i U_i: E[Y] = sum w / 2 and
    # E[Y^2] = (sum w)^2 / 4 + sum w^2 / 12
    n = 12
    w = rng.random(n)
    vals = (np.arange(1 << n)[:, None] >> np.arange(n) & 1) @ w
    d = UniformChoquetDist(SetFunction(n, vals))
    assert d.raw_moment(1) == pytest.approx(w.sum() / 2, rel=1e-12)
    assert d.raw_moment(2) == pytest.approx(w.sum() ** 2 / 4 + w @ w / 12, rel=1e-12)


def test_chain_table_built_once_on_first_use(monkeypatch, ref_capacity):
    calls = []

    def counted(g):
        calls.append(g)
        return chain_table(g)

    monkeypatch.setattr(uniform, "chain_table", counted)
    d = UniformChoquetDist(ref_capacity)
    d.raw_moment(2)
    assert calls == []
    d.pdf(0.3)
    d.cdf(np.linspace(0, 1, 5))
    d.knot_values()
    d.pdf(0.7)
    assert calls == [ref_capacity]


def test_raw_moment_first_equals_pdf_integral(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    val = integrate.quad(lambda y: y * d.pdf(y), 0, 1,
                         points=list(d.knot_values()), limit=200, epsabs=1e-10)[0]
    assert d.raw_moment(1) == pytest.approx(val, abs=1e-7)


def test_raw_moment_third_vs_monte_carlo(rng):
    g = random_capacity(4, rng)
    d = UniformChoquetDist(g)
    ys = sample_values(g, "uniform", 1_000_000, seed=99)
    m3 = np.mean(ys**3)
    se = np.std(ys**3, ddof=1) / math.sqrt(len(ys))
    assert abs(d.raw_moment(3) - m3) < 3 * se


def test_general_moments_agree_with_lattice_sums(rng):
    for _ in range(4):
        n = int(rng.integers(2, 6))
        g = random_capacity(n, rng)
        d = UniformChoquetDist(g)
        prov = UniformOrderStats(n)
        assert general_mean(g, prov) == pytest.approx(d.raw_moment(1), abs=1e-10)
        assert second_raw_moment(g, prov) == pytest.approx(d.raw_moment(2), abs=1e-10)
        # the closed forms are these very calls on the exact uniform record
        assert closed_form_mean(g) == general_mean(g, prov)
        assert closed_form_second_moment(g) == second_raw_moment(g, prov)


def test_raw_moment_validation(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    with pytest.raises(ValueError):
        d.raw_moment(0)


def test_expect_gn_constant_unit(ref_capacity):
    # g = x^n / n! has n-th derivative 1, so the permutation sum returns 1
    d = UniformChoquetDist(ref_capacity)
    n = 3
    assert expect_gn(d, lambda x: x**n / math.factorial(n)) == pytest.approx(1.0, abs=1e-12)


def test_expect_gn_recovers_mean(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    n = 3
    got = expect_gn(d, lambda x: x ** (n + 1) / math.factorial(n + 1))
    assert got == pytest.approx(d.raw_moment(1), abs=1e-12)


def test_expect_gn_rejects_repeated_chain_values():
    # nu({1}) = nu({1,2}) makes a chain with coincident knots
    g = make_game(2, {(1,): 0.5, (2,): 0.5, (1, 2): 0.5})
    d = UniformChoquetDist(g)
    with pytest.raises(ValueError, match="repeated"):
        expect_gn(d, lambda x: x)


def test_support_and_knots(ref_capacity):
    d = UniformChoquetDist(ref_capacity)
    lo, hi = d.support()
    assert lo == 0.0 and hi == 1.0
    ks = d.knot_values()
    assert ks[0] == 0.0 and ks[-1] == 1.0
    assert set(np.round(ks, 12)) >= {0.0, 0.1, 0.55, 1.0}


def _kind_games(rng, n_max=6):
    for n in range(1, n_max + 1):
        for kind, vals in game_kinds(n, rng).items():
            yield (n, kind), SetFunction(n, vals)


def test_cdf_stays_in_unit_interval_unclamped(rng):
    # the cdf is the bare table average; a kernel that strays outside [0, 1]
    # fails here instead of being clipped
    for tag, g in _kind_games(rng):
        d = UniformChoquetDist(g)
        lo, hi = d.support()
        ks = d.knot_values()
        ys = np.concatenate([np.linspace(lo - 0.1, hi + 0.1, 201),
                             *(ks + e for e in (0.0, 1e-13, -1e-13, 1e-9, -1e-9))])
        cdf = d.cdf(ys)
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0, (tag, cdf.min(), cdf.max())


def test_knot_values_are_the_chain_values(rng):
    for tag, g in _kind_games(rng):
        assert np.array_equal(UniformChoquetDist(g).knot_values(),
                              np.unique(chain_table(g)[1])), tag


def test_knot_values_need_no_chain_table(monkeypatch, rng):
    def refuse(g):
        raise AssertionError("knot_values must not build the chain table")

    monkeypatch.setattr(uniform, "chain_table", refuse)
    g = random_capacity(12, rng)
    assert np.array_equal(UniformChoquetDist(g).knot_values(), np.unique(g.values))
