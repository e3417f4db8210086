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
    ceil(log2(m - 1)) + 1 times for m draws.  The first call takes the
    smallest and the largest draw, the ends of one segment of the sorted
    sample.  Each next call takes the midpoints of the segments whose draws
    their evaluated ends cannot bound below the best gap found, and splits
    those segments there, until no segment is left.  For a nondecreasing cdf
    the result is the one evaluating every draw gives; otherwise it can be
    lower by at most the callable's largest decrease.  A NaN sample is
    refused; +-inf is allowed.
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
        v = np.asarray(cdf(xs[idx]), dtype=float)
        if v.shape != idx.shape:
            raise ValueError("the cdf must return one value per sample")
        f[idx] = v
        best = np.maximum(best, np.max(np.maximum(upper(idx) - v, v - lower(idx))))

    # a draw a < i < b has F(x_a) <= F(x_i) <= F(x_b), which bounds its gap
    # by max(upper(b - 1) - F(x_a), F(x_b) - lower(a + 1)); the slack below
    # covers a cdf that rounding makes dip slightly
    a, b = np.array([0]), np.array([m - 1])  # segments [a, b] with both ends evaluated
    evaluate(np.append(a, b))
    while True:
        kept = (b - a > 1) & (np.maximum(upper(b - 1) - f[a], f[b] - lower(a + 1))
                              >= best - 1e-12)
        if not kept.any():
            return float(best)
        a, b = a[kept], b[kept]
        mid = (a + b) // 2
        evaluate(mid)
        a, b = np.stack([a, mid], 1).ravel(), np.stack([mid, b], 1).ravel()
