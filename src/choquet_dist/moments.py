"""First two raw moments of the Choquet integral for an arbitrary input law.

Everything runs through expectations of order-statistic spacings
D_t = X_{n-t+1:n} - X_{n-t:n} (with the convention X_{0:n} = 0):

    E[Y]   = sum_{T}  nu(T) / C(n,|T|) * E[D_{|T|}]
    E[Y^2] = sum_{T1 strict subset T2} 2 nu(T1) nu(T2)
                 / (C(|T2|,|T1|) C(n,|T2|)) * E[D_{|T1|} D_{|T2|}]
             + sum_{T} nu(T)^2 / C(n,|T|) * E[D_{|T|}^2]

The subset sums only involve nu through per-cardinality aggregates, so they
are grouped by (|T1|, |T2|) once and contracted with the spacing moments,
which are first and second differences of the order-statistic record
(exact uniform/exponential, or series).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import (SetFunction, inverse_binomials, ranked_zeta, require_capacity,
                       subset_sizes)
from .osmoments import OrderStats, UniformOrderStats


@dataclass
class DistributionReport:
    """Mean, variance and standard deviation of the integral under one law."""

    law: str
    mean: float
    variance: float
    sd: float


def _spacings(stats: OrderStats) -> tuple[np.ndarray, np.ndarray]:
    """E[D_t] and E[D_s D_t] for s, t = 1..n (index t-1): differences of the
    order-statistic moments padded with X_{0:n} = 0, read from the top."""
    n = stats.n
    mu = np.concatenate([[0.0], stats.means])
    M = np.zeros((n + 1, n + 1))
    M[1:, 1:] = stats.products
    return np.diff(mu)[::-1], np.diff(np.diff(M, axis=0), axis=1)[::-1, ::-1]


def nested_pair_level_sums(g: SetFunction) -> np.ndarray:
    """P[s, t] = sum of nu(T1) nu(T2) over strict nestings T1 < T2 with
    |T1| = s, |T2| = t; the ranked zeta transform of nu, weighted by nu(T2)
    and summed over each level |T2| = t, then kept above the diagonal."""
    n = g.n
    sizes = subset_sizes(n)
    z = ranked_zeta(g.values, n)
    z *= g.values
    P = np.stack([np.bincount(sizes, weights=row, minlength=n + 1) for row in z])
    return np.triu(P, k=1)


def mean(g: SetFunction, stats: OrderStats) -> float:
    """E[Y] for the input law of the order-statistic record."""
    d1, _ = _spacings(stats)
    return float(g.level_sums()[1:] * inverse_binomials(g.n)[1:, g.n] @ d1)


def second_raw_moment(g: SetFunction, stats: OrderStats) -> float:
    """E[Y^2]: strict nested pairs (factor 2) plus the diagonal, each pair
    (s, t) weighted by 1/(C(t, s) C(n, t))."""
    n = g.n
    _, d2 = _spacings(stats)
    sq = np.bincount(subset_sizes(n), weights=g.values**2, minlength=n + 1)
    inv = inverse_binomials(n)[1:, 1:]
    coef = (2.0 * nested_pair_level_sums(g)[1:, 1:] + np.diag(sq[1:])) * inv * inv[:, -1]
    return float(np.sum(coef * d2))


def orness(g: SetFunction) -> float:
    """Location of the aggregation between minimum (0) and maximum (1).

    Computed as ((n+1) E - 1)/(n - 1) where E is the exact mean of the
    integral under standard-uniform inputs, an affine rescaling that sends
    the minimum to 0, the arithmetic mean to 1/2 and the maximum to 1.
    """
    if g.n < 2:
        raise ValueError("orness needs n >= 2")
    require_capacity(g, "orness")
    return ((g.n + 1) * mean(g, UniformOrderStats(g.n)) - 1.0) / (g.n - 1.0)


def moments_report(g: SetFunction, stats: OrderStats) -> DistributionReport:
    m1 = mean(g, stats)
    m2 = second_raw_moment(g, stats)
    var = m2 - m1 * m1
    return DistributionReport(law=stats.law, mean=m1,
                              variance=var, sd=math.sqrt(max(var, 0.0)))
