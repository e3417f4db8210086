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

KS_STRIDE = 32  # sorted draws per coarse cdf evaluation in ks_statistic


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

    ``cdf`` is called on sorted subsets of the sample, at most twice: first on
    every KS_STRIDE-th order statistic and the largest, then on the draws
    whose gap those values cannot bound below the best gap found.  For a
    nondecreasing cdf the result is the one evaluating every draw gives;
    otherwise it can be lower by at most the callable's largest decrease.
    A NaN sample is refused; +-inf is allowed.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    m = xs.size
    if m < 2:
        raise ValueError("need at least 2 samples")
    if np.isnan(xs[-1]):  # sorting puts NaN last
        raise ValueError("the sample holds NaN")
    upper = np.arange(1, m + 1) / m  # ECDF at each draw
    lower = upper - 1.0 / m  # ECDF just below it

    def evaluate(idx):
        f = np.asarray(cdf(xs[idx]), dtype=float)
        if f.shape != idx.shape:
            raise ValueError("the cdf must return one value per sample")
        return f, np.max(np.maximum(upper[idx] - f, f - lower[idx]))

    coarse = np.append(np.arange(0, m - 1, KS_STRIDE), m - 1)
    f, best = evaluate(coarse)
    # draw i lies between coarse draws a <= i <= b, so F(x_a) <= F(x_i) <= F(x_b)
    # bounds its gap; the slack covers a cdf that rounding makes dip slightly
    seg = np.arange(m - 1) // KS_STRIDE
    bound = np.maximum(upper[:-1] - f[seg], f[seg + 1] - lower[:-1])
    bound[coarse[:-1]] = -np.inf
    fine = np.flatnonzero(bound >= best - 1e-12)
    if fine.size:
        best = np.maximum(best, evaluate(fine)[1])
    return float(best)
