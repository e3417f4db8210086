"""First two moments of the Choquet integral for an arbitrary input law.

Over a uniformly random ordering, independent of the inputs, the integral is
Y = sum_t nu(T_t) D_t, with T_t the set of the t largest inputs and
D_t = X_{n-t+1:n} - X_{n-t:n} (X_{0:n} = 0).  The law's spacing record
(:class:`~choquet_dist.osmoments.OrderStats`), d = E[D] and C = Cov(D), and
the game's chain record, the level means a_t = E nu(T_t) and the covariance
K of the nu(T_t) (:func:`_chain_record`), give

    E[Y] = a.d,   Var[Y] = <K, C> + d'Kd + a'Ca,

a variance of three non-negative terms, free of the m2 - m1^2 cancellation.
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


def _level_means(g: SetFunction) -> np.ndarray:
    """a[t-1] = E nu(T_t), the mean of nu over the t-subsets, t = 1..n."""
    return (g.level_sums() * inverse_binomials(g.n)[:, g.n])[1:]


def _chain_record(g: SetFunction) -> tuple[np.ndarray, np.ndarray]:
    """The level means a and the covariance K[s-1, t-1] of nu(T_s), nu(T_t):
    the nested-pair sums of h(T) = nu(T) - a_|T|, each pair T_s < T_t weighted
    by its probability 1/(C(t, s) C(n, t)), with the squares of h on the diagonal."""
    n, sizes, inv = g.n, subset_sizes(g.n), inverse_binomials(g.n)
    a = _level_means(g)
    h = SetFunction(n, g.values - np.append(0.0, a)[sizes])
    sq = np.bincount(sizes, weights=h.values**2, minlength=n + 1)
    upper = (nested_pair_level_sums(h) + np.diag(sq / 2.0))[1:, 1:] * inv[1:, 1:] * inv[1:, n]
    return a, upper + upper.T


def mean(g: SetFunction, stats: OrderStats) -> float:
    """E[Y] = a.d for the input law of the spacing record."""
    return float(_level_means(g) @ stats.d)


def second_raw_moment(g: SetFunction, stats: OrderStats) -> float:
    """E[Y^2] = Var[Y] + E[Y]^2."""
    rep = moments_report(g, stats)
    return rep.variance + rep.mean ** 2


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
    """Mean a.d and variance <K, C> + d'Kd + a'Ca under one law."""
    d, C = stats.d, stats.cov
    a, K = _chain_record(g)
    var = float(np.sum(K * C) + d @ K @ d + a @ C @ a)
    return DistributionReport(law=stats.law, mean=float(a @ d),
                              variance=var, sd=math.sqrt(max(var, 0.0)))
