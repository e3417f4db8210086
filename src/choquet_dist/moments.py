"""First two raw moments of the Choquet integral for an arbitrary input law.

Everything runs through expectations of order-statistic spacings
D_t = X_{n-t+1:n} - X_{n-t:n} (with the convention X_{0:n} = 0):

    E[Y]   = sum_{T}  nu(T) / C(n,|T|) * E[D_{|T|}]
    E[Y^2] = sum_{T1 strict subset T2} 2 nu(T1) nu(T2)
                 / (C(|T2|,|T1|) C(n,|T2|)) * E[D_{|T1|} D_{|T2|}]
             + sum_{T} nu(T)^2 / C(n,|T|) * E[D_{|T|}^2]

The subset sums only involve nu through per-cardinality aggregates, so they
are grouped by (|T1|, |T2|) once and combined with whatever order-statistic
moment provider is supplied (exact uniform/exponential, or series).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import SetFunction, ranked_zeta, subset_sizes


@dataclass
class DistributionReport:
    """Mean, variance and standard deviation of the integral under one law."""

    law: str
    mean: float
    variance: float
    sd: float


def _spacing_mean(provider, n: int, t: int) -> float:
    """E[D_t] = E[X_{n-t+1:n}] - E[X_{n-t:n}], with X_{0:n} = 0."""
    hi = provider.mean(n - t + 1)
    lo = provider.mean(n - t) if n - t >= 1 else 0.0
    return hi - lo


def _pair(provider, i: int, j: int) -> float:
    if i == 0 or j == 0:
        return 0.0
    return provider.product(min(i, j), max(i, j))


def _spacing_product(provider, n: int, t1: int, t2: int) -> float:
    """E[D_{t1} D_{t2}] expanded bilinearly into order-statistic products."""
    a, b = n - t1 + 1, n - t1
    c, d = n - t2 + 1, n - t2
    return (_pair(provider, a, c) - _pair(provider, a, d)
            - _pair(provider, b, c) + _pair(provider, b, d))


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


def mean(g: SetFunction, provider) -> float:
    """E[Y] for the input law represented by the provider."""
    lev = g.level_sums()
    return sum(lev[t] / math.comb(g.n, t) * _spacing_mean(provider, g.n, t)
               for t in range(1, g.n + 1))


def second_raw_moment(g: SetFunction, provider) -> float:
    """E[Y^2]: strict nested pairs (factor 2) plus the diagonal."""
    n = g.n
    P = nested_pair_level_sums(g)
    total = 0.0
    for s in range(1, n):
        for t in range(s + 1, n + 1):
            if P[s, t] != 0.0:
                total += (2.0 * P[s, t] / (math.comb(t, s) * math.comb(n, t))
                          * _spacing_product(provider, n, s, t))
    sizes = subset_sizes(n)
    sq = np.bincount(sizes, weights=g.values**2, minlength=n + 1)
    for t in range(1, n + 1):
        if sq[t] != 0.0:
            total += sq[t] / math.comb(n, t) * _spacing_product(provider, n, t, t)
    return total


def moments_report(g: SetFunction, provider) -> DistributionReport:
    m1 = mean(g, provider)
    m2 = second_raw_moment(g, provider)
    var = m2 - m1 * m1
    return DistributionReport(law=getattr(provider, "law", "?"), mean=m1,
                              variance=var, sd=math.sqrt(max(var, 0.0)))
