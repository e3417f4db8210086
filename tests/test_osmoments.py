import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from choquet_dist import (DavidJohnsonOrderStats, ExponentialOrderStats,
                          OrderStats, UniformOrderStats, dj_mean, dj_product,
                          exponential_quantile_model, normal_quantile_model,
                          uniform_quantile_model)
from choquet_dist import osmoments
from choquet_dist.normal import norm_ppf
from choquet_dist.osmoments import LAWS, law_for, provider_for
from helpers import (normal_os_mean_quad, normal_os_product_quad,
                     uniform_product_moment)

SQRT_2PI = math.sqrt(2 * math.pi)


# ---- inverse normal ------------------------------------------------------

def test_norm_ppf_round_trip_through_erfc():
    # the tail mass beyond x, 0.5 erfc(|x|/sqrt 2), returns min(p, 1-p); an
    # error dx in x moves it by a relative |x dx|, hence the 1 + x^2 scale
    lower = np.geomspace(1e-300, 0.5, 3000)
    ps = np.concatenate([lower, 1.0 - np.geomspace(1e-16, 0.5, 3000)])
    xs = norm_ppf(ps)
    tail = np.array([0.5 * math.erfc(abs(x) / math.sqrt(2)) for x in xs])
    want = np.minimum(ps, 1.0 - ps)
    rel = np.abs(tail - want) / want / (1.0 + xs**2)
    assert rel.max() < 1e-15, (ps[rel.argmax()], rel.max())
    assert np.all(xs[:3000] <= 0) and np.all(xs[3000:] >= 0)
    assert norm_ppf(0.5) == 0.0 and isinstance(norm_ppf(0.25), float)


def test_norm_ppf_domain():
    with pytest.raises(ValueError):
        norm_ppf(0.0)
    with pytest.raises(ValueError):
        norm_ppf(1.0)


def test_normal_quantile_model_center_values():
    qm = normal_quantile_model()
    assert qm.quantile(0.5) == 0.0
    g = qm.taylor(0.5)
    assert len(g) == 7 and g[0] == 0.0
    assert g[2] == g[4] == g[6] == 0.0
    assert g[1] == pytest.approx(SQRT_2PI, rel=1e-14)
    assert g[3] == pytest.approx(SQRT_2PI**3, rel=1e-13)


def test_normal_quantile_derivatives_vs_finite_differences():
    qm = normal_quantile_model()
    h = 1e-5
    for u in (0.2, 0.43, 0.71, 0.9):
        g, up, down = qm.taylor(u), qm.taylor(u + h), qm.taylor(u - h)
        assert g[0] == qm.quantile(u)
        fd1 = (qm.quantile(u + h) - qm.quantile(u - h)) / (2 * h)
        assert g[1] == pytest.approx(fd1, rel=1e-8)
        for k in (1, 2, 3, 4, 5):
            fd = (up[k] - down[k]) / (2 * h)
            assert g[k + 1] == pytest.approx(fd, rel=1e-6)


def test_exponential_quantile_model_derivatives():
    qm = exponential_quantile_model()
    u = 0.37
    assert qm.quantile(u) == pytest.approx(-math.log(1 - u))
    g = qm.taylor(u)
    assert g[0] == qm.quantile(u)
    for k in range(1, 7):
        assert g[k] == pytest.approx(math.factorial(k - 1) / (1 - u) ** k)


def test_dj_record_evaluates_the_quantile_once_per_call(monkeypatch):
    """dj_mean and dj_product each read one Taylor list on the n points
    k/(n+1), so a record costs at most three quantile evaluations, not one
    per derivative, and 2n elements, not one per index pair."""
    calls = []

    def counting(p):
        calls.append(np.size(p))
        return norm_ppf(p)

    monkeypatch.setattr(osmoments, "norm_ppf", counting)
    DavidJohnsonOrderStats(normal_quantile_model(), 12, 3)
    assert len(calls) <= 3, calls
    assert sum(calls) <= 2 * 12, calls


# ---- exact uniform moments ----------------------------------------------

def test_uniform_mean_basic():
    assert UniformOrderStats(1).mean(1) == pytest.approx(0.5)
    assert UniformOrderStats(3).mean(2) == pytest.approx(0.5)


def test_uniform_product_factorial_formula():
    # l = 2 with unit powers
    assert UniformOrderStats(3).product(2, 3) == pytest.approx(2 * 4 / (4 * 5))
    # diagonal is the l = 1, power-2 case
    for n in (2, 4, 6):
        prov = UniformOrderStats(n)
        for i in range(1, n + 1):
            assert prov.product(i, i) == pytest.approx(
                i * (i + 1) / ((n + 1) * (n + 2)))


def test_uniform_product_moment_validates():
    with pytest.raises(ValueError):
        uniform_product_moment([2, 1], [1, 1], 3)
    with pytest.raises(ValueError):
        uniform_product_moment([1, 9], [1, 1], 3)


def test_uniform_mean_sum_identity():
    for n in (1, 3, 7):
        prov = UniformOrderStats(n)
        total = sum(prov.mean(i) for i in range(1, n + 1))
        assert total == pytest.approx(n / 2, abs=1e-12)


# ---- exact exponential moments ------------------------------------------

def test_exp_mean_values():
    assert ExponentialOrderStats(3).mean(1) == pytest.approx(1 / 3)
    for n in (1, 2, 5):
        assert ExponentialOrderStats(n).mean(n) == pytest.approx(
            sum(1 / k for k in range(1, n + 1)))


def test_exp_mean_sum_identity():
    for n in (1, 4, 6):
        prov = ExponentialOrderStats(n)
        total = sum(prov.mean(i) for i in range(1, n + 1))
        assert total == pytest.approx(n, abs=1e-12)


def test_exp_product_small_case():
    # cov = 1/4 and means are 1/2, 3/2
    assert ExponentialOrderStats(2).product(1, 2) == pytest.approx(1.0)


def test_exp_product_vs_monte_carlo(rng):
    n = 3
    x = np.sort(-np.log1p(-rng.random((200_000, n))), axis=1)
    emp = np.mean(x[:, 0] * x[:, 2])
    se = np.std(x[:, 0] * x[:, 2], ddof=1) / math.sqrt(len(x))
    assert abs(ExponentialOrderStats(n).product(1, 3) - emp) < 4 * se


def test_spacing_positivity_exact_providers():
    for prov in (UniformOrderStats(6), ExponentialOrderStats(6)):
        means = [prov.mean(i) for i in range(1, 7)]
        assert all(b > a for a, b in zip(means, means[1:]))
        for i in range(1, 7):
            assert prov.product(i, i) >= means[i - 1] ** 2 - 1e-12


# ---- series approximations ----------------------------------------------

def test_series_truncates_to_exact_uniform():
    qm = uniform_quantile_model()
    for n in (2, 3, 6):
        exact = UniformOrderStats(n)
        for order in (2, 3):
            for i in range(1, n + 1):
                assert dj_mean(qm, i, n, order) == pytest.approx(
                    exact.mean(i), abs=1e-14)
                for j in range(i, n + 1):
                    assert dj_product(qm, i, j, n, order) == pytest.approx(
                        exact.product(i, j), abs=1e-14)


def test_series_median_term_vanishes_for_normal():
    qm = normal_quantile_model()
    assert dj_mean(qm, 2, 3, 2) == 0.0
    assert dj_mean(qm, 3, 5, 3) == 0.0


def test_series_mean_vs_quadrature_normal():
    qm = normal_quantile_model()
    want = normal_os_mean_quad(3, 3)
    assert want == pytest.approx(0.8463, abs=2e-4)  # sanity on the oracle itself
    assert dj_mean(qm, 3, 3, 2) == pytest.approx(want, abs=0.02)


def test_series_order3_not_worse_than_order2():
    # The third-order terms help everywhere the series is in its regime.  The
    # two extreme statistics at n=10 sit outside it (the tail derivatives of
    # the normal quantile outgrow the 1/(n+2) powers), so they are checked in
    # aggregate instead: e2/e3 there are 5.4e-4/1.8e-3 by quadrature.
    qm = normal_quantile_model()
    for n in (3, 5, 10):
        e2s, e3s = [], []
        for i in range(1, n + 1):
            want = normal_os_mean_quad(i, n)
            e2s.append(abs(dj_mean(qm, i, n, 2) - want))
            e3s.append(abs(dj_mean(qm, i, n, 3) - want))
            if n < 10 or 1 < i < n:
                assert e3s[-1] <= e2s[-1] + 1e-12, (n, i)
        assert sum(e3s) <= sum(e2s) + 1e-12


def test_series_product_order3_closer_on_pairs():
    # the oracle itself against the exact normal n = 3 values, with a = sqrt(3)/pi
    a = math.sqrt(3) / math.pi
    exact = {(1, 1): 1 + a / 2, (1, 2): a / 2, (1, 3): -a, (2, 2): 1 - a,
             (2, 3): a / 2, (3, 3): 1 + a / 2}
    qm = normal_quantile_model()
    n = 3
    for (i, j), value in exact.items():
        want = normal_os_product_quad(i, j, n)
        assert want == pytest.approx(value, rel=0, abs=1e-9), (i, j)
        e2 = abs(dj_product(qm, i, j, n, 2) - want)
        e3 = abs(dj_product(qm, i, j, n, 3) - want)
        assert e3 < e2


def test_series_product_variance_sign():
    qm = normal_quantile_model()
    var = dj_product(qm, 2, 2, 3) - dj_mean(qm, 2, 3) ** 2
    assert var > 0


def test_series_provider_interface():
    prov = DavidJohnsonOrderStats(normal_quantile_model(), 4, order=3)
    assert prov.law == "normal"
    assert prov.product(2, 2) >= prov.mean(2) ** 2 - 1e-3


def test_series_rejects_bad_order():
    qm = normal_quantile_model()
    with pytest.raises(ValueError):
        dj_mean(qm, 1, 3, order=4)


def test_series_exponential_law_sanity():
    # same machinery against a second law with known exact values
    qm = exponential_quantile_model()
    n = 5
    exact = ExponentialOrderStats(n)
    for i in (1, 3, 5):
        assert dj_mean(qm, i, n, 3) == pytest.approx(exact.mean(i), abs=0.02)


# ---- law registry ----------------------------------------------------------

def test_provider_for_reads_registry():
    assert type(provider_for("uniform", 4)) is UniformOrderStats
    assert type(provider_for("exponential", 4)) is ExponentialOrderStats
    for order in (2, 3):
        prov = provider_for("normal", 4, dj_order=order)
        assert type(prov) is DavidJohnsonOrderStats
        assert prov.order == order and prov.n == 4 and prov.law == "normal"


def test_provider_for_unknown_law():
    with pytest.raises(ValueError, match="unknown law"):
        provider_for("cauchy", 3)


def test_registry_models_carry_their_names():
    for name in LAWS:
        assert law_for(name).quantile_model().name == name


def test_registry_models_cdf_pdf_support_match_quantile():
    u = np.linspace(0.001, 0.999, 999)
    # mass below lo and above hi, each from the textbook law
    tail_mass = {"uniform": lambda lo, hi: (lo, 1.0 - hi),
                 "exponential": lambda lo, hi: (-math.expm1(-lo), math.exp(-hi)),
                 "normal": lambda lo, hi: (special.ndtr(lo), special.ndtr(-hi))}
    for name in LAWS:
        qm = law_for(name).quantile_model()
        x = qm.quantile(u)
        np.testing.assert_allclose(qm.cdf(x), u, rtol=1e-13, err_msg=name)
        terms = qm.taylor(u)
        assert len(terms) == 7, name
        G, G1 = terms[:2]
        assert np.array_equal(G, x), name
        np.testing.assert_allclose(qm.pdf(x) * G1, 1.0, rtol=1e-10, err_msg=name)
        lo, hi = qm.support
        assert lo < x.min() and x.max() < hi
        assert 0.0 <= min(tail_mass[name](lo, hi))
        assert max(tail_mass[name](lo, hi)) < 1e-17, name


# ---- the order-statistic record ---------------------------------------------

def _builders(n):
    return [UniformOrderStats(n), ExponentialOrderStats(n),
            DavidJohnsonOrderStats(normal_quantile_model(), n, order=3)]


def test_record_index_guard():
    # numpy would wrap index 0 to the last order statistic; the accessors refuse
    n = 4
    for prov in _builders(n):
        for bad in (0, n + 1):
            with pytest.raises(ValueError):
                prov.mean(bad)
        for i, j in ((2, 1), (0, 1), (1, n + 1)):
            with pytest.raises(ValueError):
                prov.product(i, j)
    qm = normal_quantile_model()
    with pytest.raises(ValueError):
        dj_mean(qm, np.array([1, 2, 5]), 4)
    with pytest.raises(ValueError):
        dj_mean(qm, np.array([0, 1]), 4)
    with pytest.raises(ValueError):
        dj_product(qm, np.array([1, 2]), np.array([2, 5]), 4)
    with pytest.raises(ValueError):
        dj_product(qm, np.array([1, 3]), np.array([2, 2]), 4)


def test_record_arrays_are_read_only_and_symmetric():
    for prov in _builders(5):
        assert isinstance(prov, OrderStats)
        assert prov.d.shape == (5,) and prov.cov.shape == (5, 5)
        # the series record's differences round each way round differently
        np.testing.assert_allclose(prov.cov, prov.cov.T, rtol=0.0, atol=1e-15)
        with pytest.raises(ValueError):
            prov.d[0] = 1.0
        with pytest.raises(ValueError):
            prov.cov[0, 1] = 1.0
        # identity hashing: records can key a dict
        assert {prov: 1}[prov] == 1


def test_dj_record_matches_scalar_series():
    for name in ("normal", "exponential"):
        qm = law_for(name).quantile_model()
        for order in (2, 3):
            for n in range(1, 21):
                prov = DavidJohnsonOrderStats(qm, n, order)
                for i in range(1, n + 1):
                    assert prov.mean(i) == pytest.approx(dj_mean(qm, i, n, order),
                                                         rel=1e-12, abs=1e-15)
                    for j in range(i, n + 1):
                        want = dj_product(qm, i, j, n, order)
                        assert prov.product(i, j) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_exact_records_match_scalar_oracles():
    for n in range(1, 13):
        uni, ex = UniformOrderStats(n), ExponentialOrderStats(n)
        for i in range(1, n + 1):
            assert uni.mean(i) == pytest.approx(i / (n + 1), rel=1e-14)
            assert ex.mean(i) == pytest.approx(sum(1 / k for k in range(n - i + 1, n + 1)),
                                               rel=1e-14)
            cov = sum(1 / k**2 for k in range(n - i + 1, n + 1))
            for j in range(i, n + 1):
                want = (uniform_product_moment([i], [2], n) if i == j
                        else uniform_product_moment([i, j], [1, 1], n))
                assert uni.product(i, j) == pytest.approx(want, rel=1e-14)
                assert ex.product(i, j) == pytest.approx(cov + ex.mean(i) * ex.mean(j),
                                                         rel=1e-14)


def test_exact_cov_is_symmetric_read_only_and_psd():
    for n in (1, 2, 5, 12, 40):
        for prov in (UniformOrderStats(n), ExponentialOrderStats(n)):
            assert np.array_equal(prov.cov, prov.cov.T)
            assert not prov.cov.flags.writeable and not prov.d.flags.writeable
            eig = np.linalg.eigvalsh(prov.cov)
            assert eig.min() > -1e-15 * eig.max(), (n, prov.law, eig.min())


@pytest.mark.parametrize("n", [100, 400])
def test_exact_records_are_correctly_rounded_at_large_n(n):
    uni, ex = UniformOrderStats(n), ExponentialOrderStats(n)
    den = (n + 1) ** 2 * (n + 2)
    off = ~np.eye(n, dtype=bool)
    assert np.all(uni.d == float(Fraction(1, n + 1)))
    assert np.all(np.diag(uni.cov) == float(Fraction(n, den)))
    assert np.all(uni.cov[off] == float(Fraction(-1, den)))
    t = range(1, n + 1)
    assert ex.d.tolist() == [float(Fraction(1, k)) for k in t]
    assert np.diag(ex.cov).tolist() == [float(Fraction(1, k * k)) for k in t]
    assert np.all(ex.cov[off] == 0.0)


@pytest.mark.parametrize("n", [100, 400])
@pytest.mark.parametrize("a", [0.5, 2.0])
def test_level_vector_variance_matches_rationals(n, a):
    # the chain values nu_t of power_weight_game(n, a), built from its n + 1
    # levels directly since the game itself stops at n = 24; the variance
    # nu' Cov(D) nu against its rational value, the floats taken exactly
    steps = ((n - np.arange(1, n + 1) + 1) / n) ** a / n
    nu = np.concatenate([[0.0], np.cumsum(steps)])[1:]
    x = [Fraction(v) for v in nu.tolist()]
    exact = {"uniform": ((n + 1) * sum(v * v for v in x) - sum(x) ** 2)
             / ((n + 1) ** 2 * (n + 2)),
             "exponential": sum(v * v / (t * t) for t, v in enumerate(x, 1))}
    for prov in (UniformOrderStats(n), ExponentialOrderStats(n)):
        got = nu @ prov.cov @ nu
        want = float(exact[prov.law])
        assert got == pytest.approx(want, rel=2e-15, abs=0.0), prov.law


def test_dj_record_differences_its_series_arrays_once():
    # d and Cov(D) = S - dd' from the padded series arrays, bit for bit
    for name in ("normal", "exponential"):
        qm = law_for(name).quantile_model()
        for order in (2, 3):
            for n in range(1, 13):
                i = np.arange(1, n + 1)
                mu = np.append(0.0, dj_mean(qm, i, n, order))
                M = np.pad(dj_product(qm, np.minimum.outer(i, i), np.maximum.outer(i, i),
                                      n, order), ((1, 0), (1, 0)))
                d = np.diff(mu)[::-1]
                S = np.diff(np.diff(M, axis=0), axis=1)[::-1, ::-1]
                prov = DavidJohnsonOrderStats(qm, n, order)
                assert np.array_equal(prov.d, d), (name, order, n)
                assert np.array_equal(prov.cov, S - np.outer(d, d)), (name, order, n)
