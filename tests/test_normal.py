"""The numpy standard normal: cdf against math.erfc, quantile against scipy's
ndtri (a test-only dependency), edge values, and bounded temporaries."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

from choquet_dist import normal
from choquet_dist.normal import norm_cdf, norm_ppf

MIB = 1 << 20


def erfc_cdf(xs):
    return np.array([0.5 * math.erfc(-x / math.sqrt(2)) for x in xs])


def _branch_edges():
    """x at |x|/sqrt 2 = 0.5 and 4 (where the erf/erfc approximations meet),
    both signs, with their floating-point neighbours."""
    edges = np.array([0.5, 4.0]) * math.sqrt(2)
    edges = np.concatenate([edges, -edges])
    return np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])


def test_norm_cdf_against_math_erfc():
    # the scale of test_norm_ppf_round_trip_through_erfc: an error dx in x
    # moves the tail mass by a relative |x dx|
    xs = np.concatenate([np.linspace(-37.5, 9.0, 40_001),
                         np.random.default_rng(0).normal(0.0, 3.0, 20_000).clip(-37.5, 9.0),
                         _branch_edges()])
    want = erfc_cdf(xs)
    rel = np.abs(norm_cdf(xs) - want) / want / (1.0 + xs**2)
    assert rel.max() <= 1e-15, (xs[rel.argmax()], rel.max())


def test_norm_cdf_infinities_and_nan_without_warnings():
    xs = np.array([np.inf, -np.inf, np.nan, 0.1, 3.0, 10.0, -10.0, -40.0, 40.0, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm_cdf(xs)
        assert norm_cdf(np.inf) == 1.0 and norm_cdf(-np.inf) == 0.0
        assert np.isnan(norm_cdf(np.nan))
    assert got[0] == 1.0 and got[1] == 0.0 and np.isnan(got[2])
    np.testing.assert_allclose(got[3:9], erfc_cdf(xs[3:9]), rtol=1e-13, atol=0.0)
    assert got[7] == 0.0 and got[8] == 1.0 and got[9] == 1.0 and got[10] == 0.0


def test_norm_cdf_keeps_shape_and_scalars():
    s = norm_cdf(0.3)
    assert np.ndim(s) == 0 and isinstance(s, float)
    assert np.ndim(norm_cdf(np.array(0.3))) == 0
    assert norm_cdf([[0.1], [0.2]]).shape == (2, 1)
    assert norm_cdf(np.empty((0, 3))).shape == (0, 3)
    assert norm_cdf(0) == 0.5


@pytest.mark.parametrize("fn, draw", [(norm_cdf, lambda r, k: r.normal(0.0, 3.0, k)),
                                      (norm_ppf, lambda r, k: r.random(k))])
def test_values_do_not_depend_on_the_block(fn, draw):
    # every element takes the same operations whatever block or call holds it
    x = draw(np.random.default_rng(1), 2 * normal.BLOCK + 3)
    whole = fn(x)
    picks = np.arange(0, x.size, 997)
    assert np.array_equal(whole[picks], [fn(v) for v in x[picks]])
    assert np.array_equal(whole[-5:], fn(x[-5:]))


def test_norm_ppf_against_ndtri():
    ps = np.concatenate([np.random.default_rng(2).random(100_000),
                         np.geomspace(1e-300, 0.5, 3000),
                         1.0 - np.geomspace(1e-16, 0.5, 3000)])
    got, want = norm_ppf(ps), special.ndtri(ps)
    nonzero = want != 0.0
    assert np.all(got[~nonzero] == 0.0)
    rel = np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])
    assert rel.max() <= 2e-15, (ps[nonzero][rel.argmax()], rel.max())


@pytest.mark.parametrize("bad", [[0.5, 0.0], [1.0], [np.nan, -0.1], [0.3, 1.5],
                                 [np.inf], [-np.inf], -1e-300])
def test_norm_ppf_refuses_probabilities_outside_the_open_interval(bad):
    with pytest.raises(ValueError, match="strictly inside"):
        norm_ppf(bad)


def test_norm_ppf_passes_nan_through():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm_ppf([0.3, np.nan, 1e-20, np.nan])
        scalar = norm_ppf(np.nan)
    assert np.isnan(got[1]) and np.isnan(got[3]) and np.isfinite(got[[0, 2]]).all()
    assert isinstance(scalar, float) and math.isnan(scalar)
    assert norm_ppf(np.empty((2, 0))).shape == (2, 0)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn, draw", [(norm_cdf, lambda r, k: r.normal(0.0, 3.0, k)),
                                      (norm_ppf, lambda r, k: r.random(k))])
def test_temporaries_are_bounded_beyond_the_output(fn, draw):
    # the output itself takes x.nbytes; a full-size temporary would add as much
    x = draw(np.random.default_rng(3), 1_000_000)
    assert _traced_peak(fn, x) - x.nbytes <= 2 * MIB
