"""Seedable Monte Carlo oracle for the Choquet integral.

Sampling is deterministic given the seed: the generator is numpy's PCG64
(seeded through SeedSequence), inputs are drawn as uniforms and pushed
through the quantile function of the requested law, and the integral is
evaluated with the same vectorized routine everywhere.  The quantile function
is the one the law registry (``osmoments.LAWS``) gives the David-Johnson
series, so sampled and series-approximated results share one inverse cdf by
construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capacity import SetFunction, choquet_values
from .osmoments import law_for

KS_STRIDES = (1024, 64, 8)  # sorted draws per segment, level by level, in ks_statistic


@dataclass(frozen=True)
class MCReport:
    """Empirical summary of one sampling run."""

    n_samples: int
    mean: float
    sd: float
    standard_error: float
    ecdf: np.ndarray  # sorted sample values


def sample_values(g: SetFunction, law: str, n_samples: int, seed: int) -> np.ndarray:
    """Unsorted vector of n_samples Choquet integral draws."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((n_samples, g.n))
    np.clip(u, 1e-16, 1.0 - 1e-16, out=u)  # keep inverse cdfs finite
    return choquet_values(g, law_for(law).quantile_model().quantile(u))


def sample(g: SetFunction, law: str, n_samples: int, seed: int) -> MCReport:
    ys = sample_values(g, law, n_samples, seed)
    ys.sort()
    sd = float(np.std(ys, ddof=1))
    return MCReport(n_samples=n_samples, mean=float(np.mean(ys)), sd=sd,
                    standard_error=sd / math.sqrt(n_samples), ecdf=ys)


def ks_statistic(samples: np.ndarray, cdf: Callable) -> float:
    """sup_x |ECDF(x) - F(x)| over the sample points, both one-sided gaps.

    ``cdf`` is called on sorted subsets of the sample, at most
    ``len(KS_STRIDES) + 1`` times.  The first call takes every
    KS_STRIDES[0]-th order statistic and the largest, which cut the sorted
    sample into segments with evaluated ends.  Each next call cuts the
    segments into pieces of the next stride, drops the pieces whose draws
    those ends bound below the best gap found, and evaluates the ends of the
    rest; the last call evaluates every draw whose own bound still reaches
    the best gap.  For a nondecreasing cdf the result is the one evaluating
    every draw gives; otherwise it can be lower by at most the callable's
    largest decrease.  A NaN sample is refused; +-inf is allowed.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    m = xs.size
    if m < 2:
        raise ValueError("need at least 2 samples")
    if np.isnan(xs[-1]):  # sorting puts NaN last
        raise ValueError("the sample holds NaN")
    upper = lambda i: (i + 1) / m  # ECDF at draw i
    lower = lambda i: upper(i) - 1.0 / m  # ECDF just below it
    f = np.full(m, np.nan)  # the cdf at the draws evaluated so far
    best = -np.inf

    def evaluate(idx):
        nonlocal best
        if idx.size:
            v = np.asarray(cdf(xs[idx]), dtype=float)
            if v.shape != idx.shape:
                raise ValueError("the cdf must return one value per sample")
            f[idx] = v
            best = np.maximum(best, np.max(np.maximum(upper(idx) - v, v - lower(idx))))

    # a draw a < i < b has F(x_a) <= F(x_i) <= F(x_b), which bounds its gap
    # by max(upper(i) - F(x_a), F(x_b) - lower(i)); the slack below covers a
    # cdf that rounding makes dip slightly
    a = np.arange(0, m - 1, KS_STRIDES[0])  # segments [a, b] with both ends evaluated
    b = np.minimum(a + KS_STRIDES[0], m - 1)
    evaluate(np.append(a, m - 1))
    for stride, finer in zip(KS_STRIDES, KS_STRIDES[1:]):
        # cut each segment into pieces c <= i < d of the finer stride, keep the
        # pieces whose draws the segment's ends cannot bound below best, and
        # evaluate the ends of the kept pieces
        c = a[:, None] + np.arange(0, stride, finer)
        d = np.minimum(c + finer, b[:, None])
        inside = c < d
        kept = inside & (np.maximum(upper(d - 1) - f[a, None], f[b, None] - lower(c))
                         >= best - 1e-12)
        ends = kept.copy()
        ends[:, 1:] |= kept[:, :-1]  # a kept piece ends where the next starts
        ends[:, 0] = False  # the segment's own start is evaluated already
        evaluate(c[ends & inside])
        a, b = c[kept], d[kept]
    i = a[:, None] + np.arange(1, KS_STRIDES[-1])
    fa, fb = f[a, None], f[b, None]
    evaluate(i[(i < b[:, None])
               & (np.maximum(upper(i) - fa, fb - lower(i)) >= best - 1e-12)])
    return float(best)
