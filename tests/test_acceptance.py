"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.  All
tolerances are fixed here, not calibrated.  Criterion 2's reference mean is
the exact exponential-case value 29/30 of the reference capacity (sd
sqrt(351)/30); the earlier stated mean 0.963 was dropped as irreproducible,
since it lies 0.0037 from the value the definition gives.
"""
import math
import time

import numpy as np
from scipy import integrate

from choquet_dist import (ExponentialChoquetDist, UniformChoquetDist,
                          UniformOrderStats, WeightFunction, alpha, beta2,
                          closed_form_mean, closed_form_second_moment,
                          ks_statistic, make_game, mixture_approx,
                          orness, power_weight_game, provider_for,
                          random_capacity, tp_minus_dd, tp_plus_dd)
from choquet_dist.moments import mean as general_mean
from choquet_dist.moments import second_raw_moment
from choquet_dist.montecarlo import sample_values

from conftest import REF_VALUES
from helpers import (plus_full_degree_recurrence, random_distinct_knots,
                     rational_dd_with_scale, walk_is_regular)


def _ref():
    return make_game(3, REF_VALUES)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_uniform_reference_moments():
    t0 = time.perf_counter()
    g = _ref()
    d = UniformChoquetDist(g)
    mean_lattice = d.raw_moment(1)
    m2_lattice = d.raw_moment(2)
    mean_closed = closed_form_mean(g)
    sd = math.sqrt(m2_lattice - mean_lattice**2)
    dt = time.perf_counter() - t0
    ok = (abs(mean_lattice - 0.495) <= 1e-3 and abs(sd - 0.183) <= 1e-3
          and abs(mean_lattice - mean_closed) < 1e-14 and dt < 1.0)
    report(1, ok, f"uniform mean={mean_lattice:.6f} sd={sd:.6f} ({dt * 1e3:.0f} ms)")
    assert abs(mean_lattice - 0.495) <= 1e-3
    assert abs(sd - 0.183) <= 1e-3
    assert dt < 1.0


def test_criterion_2_exponential_reference_moments():
    # Renyi: on ordering sigma, Y = E1/3 + nu(S2)*E2/2 + nu(S1)*E3 with E_i iid
    # Exp(1); averaging the 6 orderings gives E[Y] = 29/30, E[Y^2] = 298/225.
    exact_mean = 29 / 30
    exact_sd = math.sqrt(351) / 30
    t0 = time.perf_counter()
    g = _ref()
    prov = provider_for("exponential", 3)
    mean = general_mean(g, prov)
    sd = math.sqrt(second_raw_moment(g, prov) - mean**2)
    dt = time.perf_counter() - t0
    mean_ok = abs(mean - exact_mean) <= 1e-3
    sd_ok = abs(sd - exact_sd) <= 1e-3
    report(2, mean_ok and sd_ok and dt < 1.0,
           f"exponential mean={mean:.6f} sd={sd:.6f} ({dt * 1e3:.0f} ms)")
    assert mean_ok, (f"mean {mean:.6f} vs exact 29/30={exact_mean:.6f}, "
                     f"gap {abs(mean - exact_mean):.1e}")
    assert sd_ok, (f"sd {sd:.6f} vs exact sqrt(351)/30={exact_sd:.6f}, "
                   f"gap {abs(sd - exact_sd):.1e}")
    assert dt < 1.0


def test_criterion_3_normal_series_moments():
    t0 = time.perf_counter()
    g = _ref()
    prov = provider_for("normal", 3, dj_order=3)  # "order (n+2)^-2 or better"
    mean = general_mean(g, prov)
    sd = math.sqrt(second_raw_moment(g, prov) - mean**2)
    dt = time.perf_counter() - t0
    ok = abs(mean - (-0.014)) <= 3e-3 and abs(sd - 0.615) <= 1e-2 and dt < 1.0
    report(3, ok, f"normal series mean={mean:.6f} sd={sd:.6f} ({dt * 1e3:.0f} ms)")
    assert abs(mean - (-0.014)) <= 3e-3
    assert abs(sd - 0.615) <= 1e-2
    assert dt < 1.0


def test_criterion_4_orness():
    g = _ref()
    val = orness(g)
    mean = closed_form_mean(g)
    identity = ((g.n + 1) * mean - 1) / (g.n - 1)
    ok = abs(val - 0.49) <= 5e-3 and abs(val - identity) <= 1e-12
    report(4, ok, f"orness={val:.6f}, identity gap={abs(val - identity):.1e}")
    assert abs(val - 0.49) <= 5e-3
    assert abs(val - identity) <= 1e-12


def test_criterion_5_limit_functionals():
    t0 = time.perf_counter()
    from choquet_dist.osmoments import uniform_quantile_model
    J = WeightFunction.power(2)
    qm = uniform_quantile_model()
    a = alpha(J, qm)
    b = beta2(J, qm)
    dt = time.perf_counter() - t0
    ok = abs(a - 0.25) <= 1e-6 and abs(b - 1 / 112) <= 1e-6 and dt < 1.0
    report(5, ok, f"alpha={a:.9f} beta2={b:.9f} ({dt * 1e3:.0f} ms)")
    assert abs(a - 0.25) <= 1e-6
    assert abs(b - 1 / 112) <= 1e-6
    assert dt < 1.0


def test_criterion_6_density_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)
    worst_u = worst_e = 0.0
    checked_e = 0
    for k in range(20):
        n = 2 + k % 5
        g = random_capacity(n, rng)
        d = UniformChoquetDist(g)
        knots = [x for x in d.knot_values() if 0 < x < 1]
        val = integrate.quad(d.pdf, 0, 1, points=knots,
                             limit=50 + 10 * len(knots), epsabs=1e-10)[0]
        worst_u = max(worst_u, abs(val - 1.0))
        if walk_is_regular(g):
            dist = ExponentialChoquetDist(g)
            hi = 50 * float(np.max(dist.scales))
            val = integrate.quad(dist.pdf, 0, hi, limit=300, epsabs=1e-9)[0]
            worst_e = max(worst_e, abs(val - 1.0))
            checked_e += 1
    dt = time.perf_counter() - t0
    ok = worst_u <= 1e-7 and worst_e <= 1e-6 and checked_e >= 10 and dt < 30
    report(6, ok, f"max |int pdf - 1|: uniform {worst_u:.2e}, exponential "
                  f"{worst_e:.2e} over {checked_e} regular games ({dt:.1f} s)")
    assert worst_u <= 1e-7
    assert worst_e <= 1e-6
    assert checked_e >= 10
    assert dt < 30


def test_criterion_7_monte_carlo_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = []
    for k in range(5):
        g = random_capacity(4, rng)
        for law in ("uniform", "exponential", "normal"):
            want = general_mean(g, provider_for(law, 4, dj_order=3))
            ys = sample_values(g, law, 1_000_000, seed=1000 + 10 * k)
            se = ys.std(ddof=1) / math.sqrt(len(ys))
            tol = 3 * se if law != "normal" else max(3 * se, 5e-3)
            worst.append(abs(ys.mean() - want) / tol)
    dt = time.perf_counter() - t0
    ok = max(worst) < 1.0 and dt < 120
    report(7, ok, f"max |mc - exact| / tolerance = {max(worst):.2f} over "
                  f"15 runs ({dt:.1f} s)")
    assert max(worst) < 1.0
    assert dt < 120


def test_criterion_8_ks_bands():
    t0 = time.perf_counter()
    g = _ref()
    band = 1.63 / math.sqrt(100_000)
    du = UniformChoquetDist(g)
    ks_u = ks_statistic(sample_values(g, "uniform", 100_000, seed=21), du.cdf)
    de = ExponentialChoquetDist(g)
    ks_e = ks_statistic(sample_values(g, "exponential", 100_000, seed=22), de.cdf)
    dt = time.perf_counter() - t0
    ok = ks_u < band and ks_e < band and dt < 30
    report(8, ok, f"KS uniform={ks_u:.5f} exponential={ks_e:.5f} "
                  f"(band {band:.5f}, {dt:.1f} s)")
    assert ks_u < band
    assert ks_e < band
    assert dt < 30


def test_criterion_9_internal_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)

    # lattice sums vs closed forms on random games
    from choquet_dist import SetFunction
    gap_closed = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        vals = rng.normal(size=1 << n)
        vals[0] = 0.0
        g = SetFunction(n, vals)
        d = UniformChoquetDist(g)
        gap_closed = max(gap_closed,
                         abs(d.raw_moment(1) - closed_form_mean(g)),
                         abs(d.raw_moment(2) - closed_form_second_moment(g)))

    # uniform provider vs lattice sums
    gap_prov = 0.0
    for _ in range(6):
        n = int(rng.integers(2, 6))
        g = random_capacity(n, rng)
        d = UniformChoquetDist(g)
        prov = UniformOrderStats(n)
        gap_prov = max(gap_prov,
                       abs(general_mean(g, prov) - d.raw_moment(1)),
                       abs(second_raw_moment(g, prov) - d.raw_moment(2)))

    # recurrence vs rational formula on 100 random distinct-knot sets
    gap_rec = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        knots = random_distinct_knots(rng, n)
        lo, hi = float(np.min(knots)), float(np.max(knots))
        y = float(rng.uniform(lo, hi))
        want, scale = rational_dd_with_scale(knots, y, "plus", n - 1)
        got = tp_plus_dd(knots, y)
        gap_rec = max(gap_rec, abs(got - want) / max(abs(want), 1e-3 * scale, 1e-12))

    # degree-n complement identity, plus side from the independent mirror
    # recurrence (the rational formula's own cancellation noise would swamp
    # the stated absolute tolerance on wide knot sets)
    gap_comp = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        knots = random_distinct_knots(rng, n)
        y = float(rng.uniform(float(np.min(knots)), float(np.max(knots))))
        plus_n = plus_full_degree_recurrence(knots, y)
        gap_comp = max(gap_comp, abs(tp_minus_dd(knots, y) + plus_n - 1.0))

    dt = time.perf_counter() - t0
    ok = (gap_closed <= 1e-13 and gap_prov <= 1e-10 and gap_rec <= 1e-9
          and gap_comp <= 1e-10 and dt < 10)
    report(9, ok, f"lattice-vs-closed {gap_closed:.1e}, provider {gap_prov:.1e}, "
                  f"recurrence {gap_rec:.1e} rel, complement {gap_comp:.1e} ({dt:.1f} s)")
    assert gap_closed <= 1e-13
    assert gap_prov <= 1e-10
    assert gap_rec <= 1e-9
    assert gap_comp <= 1e-10
    assert dt < 10


def test_criterion_10_asymptotic_trend():
    stats = {}
    for n in (5, 20):
        mix = mixture_approx(power_weight_game(n, 2.0), UniformOrderStats(n))
        stats[n] = (abs(float(mix.means[0]) - 0.25),
                    abs(n * float(mix.variances[0]) - 1 / 112))
    ok = stats[20][0] < stats[5][0] and stats[20][1] < stats[5][1]
    report(10, ok, f"|mean-1/4|: {stats[5][0]:.4f} -> {stats[20][0]:.4f}; "
                   f"|nV-1/112|: {stats[5][1]:.5f} -> {stats[20][1]:.5f}")
    assert stats[20][0] < stats[5][0]
    assert stats[20][1] < stats[5][1]
