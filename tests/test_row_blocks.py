"""Row-blocked evaluation: agreement with the one-shot products at and across
block boundaries, and temporaries bounded independently of the point count."""
import math
import tracemalloc

import numpy as np
import pytest

from choquet_dist import (ExponentialChoquetDist, choquet_values, mixture_approx,
                          mixture_cdf, mixture_pdf, provider_for, random_capacity)
from choquet_dist.capacity import BLOCK_ELEMENTS, in_row_blocks

from helpers import one_shot_choquet_values, one_shot_exponential, one_shot_mixture

EPS = np.finfo(float).eps
MIB = 1 << 20


def block_rows(width: int) -> int:
    """Rows of one block: the largest power of two whose block of rows x width
    stays within BLOCK_ELEMENTS, and at least 1."""
    return 2 ** max(int(math.log2(BLOCK_ELEMENTS / width)), 0)


def boundary_counts(width: int) -> tuple[int, ...]:
    b = block_rows(width)
    return 0, 1, b - 1, b, b + 1, 2 * b + 3


@pytest.fixture(scope="module")
def game5():
    return random_capacity(5, np.random.default_rng(26))


@pytest.fixture(scope="module")
def mix5(game5):
    return mixture_approx(game5, provider_for("normal", 5, dj_order=3))


@pytest.fixture(scope="module")
def exp5(game5):
    return ExponentialChoquetDist(game5)


@pytest.mark.parametrize("width", [1, 5, 120, 3000, BLOCK_ELEMENTS, BLOCK_ELEMENTS + 1])
def test_slices_are_whole_blocks_but_the_last(width):
    b = block_rows(width)
    for m in boundary_counts(width):
        sizes = []
        out = in_row_blocks(lambda xb: sizes.append(len(xb)) or xb + 1.0,
                            np.arange(m, dtype=float), width)
        assert np.array_equal(out, np.arange(m) + 1.0)
        assert sum(sizes) == m and all(s == b for s in sizes[:-1])
        assert 0 < (sizes[-1] if sizes else 1) <= b


@pytest.mark.parametrize("pdf", [True, False])
def test_mixture_matches_one_shot_across_blocks(mix5, pdf):
    evaluate = mixture_pdf if pdf else mixture_cdf
    b = block_rows(mix5.weights.size)
    rng = np.random.default_rng(1)
    sd = np.sqrt(mix5.variances)
    for m in boundary_counts(mix5.weights.size):
        y = rng.uniform(np.min(mix5.means - 6 * sd), np.max(mix5.means + 6 * sd), m)
        got, want = evaluate(mix5, y), one_shot_mixture(mix5, y, pdf)
        assert got.shape == (m,)
        if m <= b:
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 4 * EPS * np.max(np.abs(want)))


@pytest.mark.parametrize("pdf", [True, False])
def test_mixture_keeps_scalar_and_2d_shapes(mix5, pdf):
    evaluate = mixture_pdf if pdf else mixture_cdf
    y0 = float(mix5.means[0])
    got = evaluate(mix5, y0)
    assert isinstance(got, float) and got == one_shot_mixture(mix5, np.array([y0]), pdf)[0]
    b = block_rows(mix5.weights.size)
    lo, hi = np.min(mix5.means) - 1.0, np.max(mix5.means) + 1.0
    y = np.linspace(lo, hi, 3 * (b + 1)).reshape(3, -1)
    got, want = evaluate(mix5, y), one_shot_mixture(mix5, y.ravel(), pdf).reshape(y.shape)
    assert got.shape == y.shape
    assert np.all(np.abs(got - want) <= 4 * EPS * np.max(np.abs(want)))


@pytest.mark.parametrize("cdf", [False, True])
def test_exponential_matches_one_shot_across_blocks(exp5, cdf):
    evaluate = exp5.cdf if cdf else exp5.pdf
    bound = EPS * exp5.cancellation if cdf else exp5.pdf_bound
    b = block_rows(exp5.scales.size)
    rng = np.random.default_rng(2)
    for m in boundary_counts(exp5.scales.size):
        y = rng.uniform(-0.5, 8.0, m)
        got, want = evaluate(y), one_shot_exponential(exp5, y, cdf)
        assert got.shape == (m,)
        if m <= b:
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= bound)
    assert isinstance(evaluate(0.7), float)
    assert evaluate(0.7) == one_shot_exponential(exp5, np.array([0.7]), cdf)[0]
    y = np.linspace(-1.0, 8.0, 3 * (b + 1)).reshape(3, -1)
    got = evaluate(y)
    assert got.shape == y.shape
    assert np.all(np.abs(got - one_shot_exponential(exp5, y.ravel(), cdf).reshape(y.shape))
                  <= bound)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_choquet_values_equal_one_shot_at_every_size(n):
    g = random_capacity(n, np.random.default_rng(n))
    rng = np.random.default_rng(3)
    for m in boundary_counts(n):
        x = rng.normal(size=(m, n))
        x[: m // 3] = np.round(x[: m // 3])  # ties take the stable order
        got = choquet_values(g, x)
        assert got.shape == (m,) and np.array_equal(got, one_shot_choquet_values(g, x))


def _traced_peak(fn, *args) -> int:
    """Peak bytes that numpy and Python allocate during fn(*args), counted
    from the start of the call; the output of POINTS float64 values is part
    of it, so the tests below hold what is left to one budget."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


POINTS = 200_000


@pytest.mark.parametrize("evaluate", [mixture_cdf, mixture_pdf])
def test_mixture_temporaries_are_bounded(mix5, evaluate):
    assert mix5.weights.size == 120
    y = np.random.default_rng(4).normal(np.mean(mix5.means), 0.3, POINTS)
    assert _traced_peak(evaluate, mix5, y) - y.nbytes <= 2 * MIB


def test_choquet_values_temporaries_are_bounded(game5):
    x = np.random.default_rng(5).normal(size=(POINTS, 5))
    assert _traced_peak(choquet_values, game5, x) - POINTS * x.itemsize <= 2 * MIB


def test_exponential_cdf_temporaries_are_bounded(exp5):
    y = np.random.default_rng(6).exponential(size=POINTS)
    assert _traced_peak(exp5.cdf, y) - y.nbytes <= 2 * MIB
