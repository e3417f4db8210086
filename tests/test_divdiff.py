import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from choquet_dist import (SetFunction, UniformChoquetDist, chain_table, tp_minus_dd,
                          tp_plus_dd)
from choquet_dist.capacity import BLOCK_ELEMENTS
from choquet_dist.divdiff import tp_dd_sum

from helpers import (dd_generic, dd_recurrence, game_kinds,
                     plus_full_degree_recurrence, random_distinct_knots,
                     rational_dd_with_scale, tp_dd_distinct)

KNOTS = (0.0, 0.55, 0.8, 1.0)


def test_plus_dd_outside_hull():
    assert tp_plus_dd(KNOTS, -0.5) == 0.0   # degree n-1 polynomial on the knots
    assert tp_plus_dd(KNOTS, 1.5) == 0.0    # function vanishes at every knot


def test_minus_dd_outside_hull():
    assert tp_minus_dd(KNOTS, 2.0) == 1.0   # monic degree-n polynomial
    assert tp_minus_dd(KNOTS, -1.0) == 0.0


def test_plus_dd_vs_rational_formula():
    got = tp_plus_dd(KNOTS, 0.5)
    want = tp_dd_distinct(KNOTS, 0.5, "plus", 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_minus_dd_vs_complement_of_plus():
    # x^3 = x_+^3 + x_-^3 and the cubic has unit leading coefficient
    plus3 = tp_dd_distinct(KNOTS, 0.5, "plus", 3)
    assert tp_minus_dd(KNOTS, 0.5) == pytest.approx(1.0 - plus3, rel=1e-12)
    assert 0.0 < tp_minus_dd(KNOTS, 0.5) < 1.0


def test_distinct_formula_linear():
    assert tp_dd_distinct((0.0, 1.0), -1.0, "plus", 1) == pytest.approx(1.0)


def test_distinct_formula_leading_coefficient():
    assert tp_dd_distinct((0.0, 0.5, 1.0), 0.0, "plus", 2) == pytest.approx(1.0)


def test_distinct_formula_rejects_repeats():
    with pytest.raises(ValueError, match="distinct"):
        tp_dd_distinct((0.0, 0.0, 1.0), 0.5, "plus", 1)


def test_repeated_knots_fine_for_recurrence():
    # hat-function style coincident ends still work through the recurrence
    val = tp_plus_dd((0.0, 0.0, 1.0), 0.25)
    assert np.isfinite(val) and val > 0


# n times tp_plus_dd over n+1 knots is the normalized B-spline density

def test_bspline_order1_uniform_density():
    assert tp_plus_dd((0.0, 1.0), 0.5) == pytest.approx(1.0)
    assert tp_plus_dd((0.0, 1.0), 1.5) == 0.0


def test_bspline_hat_peak():
    assert 2 * tp_plus_dd((0.0, 0.5, 1.0), 0.5) == pytest.approx(2.0)


def test_bspline_integrates_to_one(rng):
    for n in (1, 2, 3, 5):
        knots = np.sort(random_distinct_knots(rng, n))
        val, _ = integrate.quad(lambda t: n * tp_plus_dd(knots, t), knots[0], knots[-1],
                                points=list(knots), limit=200, epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_dd_generic_constant_vanishes():
    assert dd_generic(lambda x: 1.0, (0.3, 1.7, -2.0)) == pytest.approx(0.0, abs=1e-14)


def test_dd_generic_leading_coefficient():
    assert dd_generic(lambda x: x * x, (0.0, 1.0, 2.0)) == pytest.approx(1.0)


def test_dd_generic_exponential():
    assert dd_generic(math.exp, (0.0, 1.0)) == pytest.approx(math.e - 1.0)


def test_grid_evaluation_matches_scalar(rng):
    for n in (1, 2, 4):
        knots = random_distinct_knots(rng, n)
        ys = np.concatenate([rng.normal(scale=2.0, size=40), knots])
        plus = tp_plus_dd(knots, ys)
        minus = tp_minus_dd(knots, ys)
        for y, p, m in zip(ys, plus, minus):
            assert p == pytest.approx(tp_plus_dd(knots, float(y)), abs=1e-13)
            assert m == pytest.approx(tp_minus_dd(knots, float(y)), abs=1e-13)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_permutation_symmetry(seed, n):
    rng = np.random.default_rng(seed)
    knots = rng.normal(scale=2.0, size=n + 1)
    y = rng.normal()
    base_p, base_m = tp_plus_dd(knots, y), tp_minus_dd(knots, y)
    for _ in range(3):
        perm = rng.permutation(knots)
        assert tp_plus_dd(perm, y) == pytest.approx(base_p, rel=1e-9, abs=1e-12)
        assert tp_minus_dd(perm, y) == pytest.approx(base_m, rel=1e-9, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 8))
def test_recurrence_vs_rational(seed, n):
    rng = np.random.default_rng(seed)
    knots = random_distinct_knots(rng, n)
    y = rng.normal(scale=2.0)
    want, scale = rational_dd_with_scale(knots, y, "plus", n - 1)
    got = tp_plus_dd(knots, y)
    assert got == pytest.approx(tp_dd_distinct(knots, y, "plus"), abs=1e-12 * max(1.0, scale))
    assert abs(got - want) <= 1e-9 * max(abs(want), 1e-3 * scale, 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_plus_minus_complement(seed, n):
    # degree-n variants on shared knots add to the monic divided difference, 1
    rng = np.random.default_rng(seed)
    knots = random_distinct_knots(rng, n)
    y = rng.normal(scale=2.0)
    plus_n = plus_full_degree_recurrence(knots, y)
    assert tp_minus_dd(knots, y) + plus_n == pytest.approx(1.0, abs=1e-10)
    # and the rational formula agrees within its own conditioning
    want, scale = rational_dd_with_scale(knots, y, "plus", n)
    assert plus_n == pytest.approx(want, abs=1e-12 * max(1.0, scale))


def test_minus_dd_continuous_in_y_at_knots(rng):
    for n in (1, 2, 3, 5):
        knots = random_distinct_knots(rng, n)
        for a in knots:
            left = tp_minus_dd(knots, a - 1e-9)
            right = tp_minus_dd(knots, a + 1e-9)
            assert abs(left - right) < 1e-6  # C^{n-1} in y, so ~2e-9 * slope


def test_knot_validation():
    with pytest.raises(ValueError):
        tp_plus_dd((0.5,), 0.2)
    with pytest.raises(ValueError):
        tp_plus_dd((0.0, np.inf), 0.2)


def test_scalar_and_grid_paths_match_reference_recurrence(rng):
    # a scalar y and a grid both run on the sorted knots, bit for bit,
    # repeated knots included; a scalar returns a plain float
    for n in range(1, 8):
        knots = rng.normal(size=n + 1)
        knots[n // 2] = knots[-1]
        ys = np.concatenate([np.linspace(knots.min() - 0.5, knots.max() + 0.5, 41), knots])
        for minus, fn in ((False, tp_plus_dd), (True, tp_minus_dd)):
            want = [dd_recurrence(np.sort(knots), y, minus) for y in ys]
            assert np.array_equal(fn(knots, ys), want), (n, minus)
            for y in ys[::4].tolist():
                got = fn(knots, y)
                assert type(got) is float and got == dd_recurrence(np.sort(knots), y, minus), \
                    (n, minus, y)


def _row_sums(table, ys, minus):
    """Sum over the table rows, in order, of the reference recurrence on each
    sorted row at each y, in plain floats."""
    rows = [sorted(row) for row in np.asarray(table).tolist()]
    return np.array([sum(dd_recurrence(row, y, minus) for row in rows)
                     for y in np.asarray(ys).tolist()])


def _assert_kernel_matches(table, ys, tag):
    for minus in (False, True):
        got = tp_dd_sum(table, ys, minus)
        assert got.shape == np.shape(ys), tag
        assert np.array_equal(got, _row_sums(table, ys, minus)), (tag, minus)


def test_kernel_on_unsorted_chain_values(rng):
    # a signed game is not monotone: its chain values come unsorted
    nu = chain_table(SetFunction(5, game_kinds(5, rng)["signed"]))[1]
    assert np.any(np.diff(nu, axis=1) < 0.0)
    lo, hi = nu.min(), nu.max()
    _assert_kernel_matches(nu, np.linspace(lo - 0.1, hi + 0.1, 37), "signed")


def test_kernel_on_tied_knots_at_grid_points(rng):
    # quarter-rounded values put repeated knots exactly on 0.25, 0.5, 0.75
    vals = game_kinds(4, rng)["tied"]
    nu = chain_table(SetFunction(4, vals))[1]
    ys = np.linspace(0.0, 1.0, 21)
    assert np.isin([0.25, 0.5, 0.75], nu).all() and np.isin([0.25, 0.5, 0.75], ys).all()
    _assert_kernel_matches(nu, ys, "tied")


def test_kernel_row_count_not_a_multiple_of_the_block(rng):
    nu = chain_table(SetFunction(6, game_kinds(6, rng)["generic"]))[1]
    ys = np.linspace(-0.1, 1.1, 37)
    step = BLOCK_ELEMENTS // ys.size
    assert len(nu) > step and len(nu) % step != 0
    _assert_kernel_matches(nu, ys, "blocks")


def test_kernel_grid_longer_than_one_block(rng):
    nu = chain_table(SetFunction(2, game_kinds(2, rng)["generic"]))[1]
    ys = np.linspace(-0.1, 1.1, BLOCK_ELEMENTS + 7)
    _assert_kernel_matches(nu, ys, "long grid")


def test_kernel_shapes_and_zero_d_input(rng):
    nu = chain_table(SetFunction(3, game_kinds(3, rng)["generic"]))[1]
    ys = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    for minus in (False, True):
        got = tp_dd_sum(nu, ys, minus)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), _row_sums(nu, ys.ravel(), minus))
        for y in (0.3, np.float64(0.3), np.array(0.3)):
            got = tp_dd_sum(nu, y, minus)
            assert type(got) is float and got == _row_sums(nu, [0.3], minus)[0]
    d = UniformChoquetDist(SetFunction(3, game_kinds(3, rng)["generic"]))
    assert type(d.pdf(np.array(0.3))) is float and type(d.cdf(np.float64(0.3))) is float
