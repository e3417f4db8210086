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
    """sup_x |ECDF(x) - F(x)| over the sample points, both one-sided gaps;
    cdf takes the sorted sample array."""
    xs = np.sort(np.asarray(samples, dtype=float))
    m = xs.size
    if m < 2:
        raise ValueError("need at least 2 samples")
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise ValueError("the cdf must return one value per sample")
    steps = np.arange(1, m + 1) / m
    d_plus = np.max(steps - f)
    d_minus = np.max(f - (steps - 1.0 / m))
    return float(max(d_plus, d_minus))
