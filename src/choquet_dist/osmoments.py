"""First and second (product) moments of order statistics for the input laws.

Exact closed forms are available for the standard uniform and standard
exponential laws.  Any other law enters through its quantile function G and
derivatives:  writing X_{i:n} = G(U_{i:n}) and Taylor-expanding G around
r_i = i/(n+1) gives the David-Johnson series, whose terms are grouped by
powers of 1/(n+2).  The order-(n+2)^-2 truncation is the default; the
order-(n+2)^-3 terms are included behind the ``order=3`` flag.  A uniform
quantile model (identity G) collapses every series to the exact uniform
values, which is used as a structural test elsewhere.

``LAWS`` is the one registry of input laws: each name maps to its quantile
model and, for the uniform and exponential laws, the exact provider.  The
moment providers, the Monte Carlo sampler and the CLI all read it, so adding
a law is one entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .normal import norm_pdf, norm_ppf


def _check_indices(i: int, j: int, n: int) -> None:
    if not 1 <= i <= j <= n:
        raise ValueError(f"need 1 <= i <= j <= n, got i={i}, j={j}, n={n}")


# ---------------------------------------------------------------------------
# exact uniform moments
# ---------------------------------------------------------------------------

def uniform_product_moment(indices, powers, n: int) -> float:
    """E[ prod_k U_{i_k:n}^{m_k} ] for strictly increasing indices i_1 < ... < i_l.

    Factorial formula: n! / (n + sum m)! * prod_k (i_k + M_k - 1)! / (i_k + M_{k-1} - 1)!
    with M_k the cumulative sum of the powers.
    """
    idx = list(indices)
    pws = list(powers)
    if len(idx) != len(pws) or not idx:
        raise ValueError("indices and powers must be equally long and nonempty")
    if any(i < 1 or i > n for i in idx) or sorted(set(idx)) != idx:
        raise ValueError(f"indices must be strictly increasing within 1..{n}")
    total = sum(pws)
    out = math.factorial(n) / math.factorial(n + total)
    acc = 0
    for i, m in zip(idx, pws):
        out *= math.factorial(i + acc + m - 1) / math.factorial(i + acc - 1)
        acc += m
    return out


def uniform_mean(i: int, n: int) -> float:
    """E[U_{i:n}] = i/(n+1)."""
    _check_indices(i, i, n)
    return i / (n + 1)


def uniform_product(i: int, j: int, n: int) -> float:
    """E[U_{i:n} U_{j:n}] for i <= j; equals i(j+1)/((n+1)(n+2))."""
    _check_indices(i, j, n)
    if i == j:
        return uniform_product_moment([i], [2], n)
    return uniform_product_moment([i, j], [1, 1], n)


# ---------------------------------------------------------------------------
# exact exponential moments
# ---------------------------------------------------------------------------

def exp_mean(i: int, n: int) -> float:
    """E[X_{i:n}] = sum_{k=n-i+1}^{n} 1/k for standard exponential inputs."""
    _check_indices(i, i, n)
    return sum(1.0 / k for k in range(n - i + 1, n + 1))


def exp_product(i: int, j: int, n: int) -> float:
    """E[X_{i:n} X_{j:n}] for i <= j: the covariance sum_{k=n-i+1}^n 1/k^2
    plus the product of the means."""
    _check_indices(i, j, n)
    cov = sum(1.0 / k**2 for k in range(n - i + 1, n + 1))
    return cov + exp_mean(i, n) * exp_mean(j, n)


# ---------------------------------------------------------------------------
# quantile models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantileModel:
    """Quantile function G = F^{-1} on (0,1) with derivatives up to order 6.

    ``trunc`` shrinks the integration domain to [trunc, 1-trunc] for
    functionals that integrate against G (needed when G blows up at the
    endpoints), and ``quad_tol`` is the absolute tolerance those quadratures
    should target.
    """

    name: str
    quantile: Callable[[float], float]
    derivatives: tuple
    trunc: float = 0.0
    quad_tol: float = 1e-8

    def deriv(self, u: float, k: int) -> float:
        if not 1 <= k <= len(self.derivatives):
            raise ValueError(f"derivative order {k} not available for {self.name}")
        return self.derivatives[k - 1](u)


def uniform_quantile_model() -> QuantileModel:
    one = lambda u: 1.0
    zero = lambda u: 0.0
    return QuantileModel("uniform", lambda u: u, (one, zero, zero, zero, zero, zero))


def exponential_quantile_model() -> QuantileModel:
    """G(u) = -log(1-u); the k-th derivative is (k-1)!/(1-u)^k."""
    derivs = tuple((lambda k: lambda u: math.factorial(k - 1) / (1.0 - u) ** k)(k)
                   for k in range(1, 7))
    return QuantileModel("exponential", lambda u: -np.log1p(-u), derivs)


def normal_quantile_model() -> QuantileModel:
    """Standard normal quantile with closed-form derivatives.

    With f the standard normal density and G the quantile, composition gives
    G' = 1/(f o G), G'' = G/(f o G)^2, and onward up to order six with the
    polynomial factors 1+2G^2, G(7+6G^2), 7+46G^2+24G^4, G(127+326G^2+120G^4).
    """
    def d(k):
        def dk(u):
            g = norm_ppf(u)
            f = norm_pdf(g)
            if k == 1:
                return 1.0 / f
            if k == 2:
                return g / f**2
            if k == 3:
                return (1.0 + 2.0 * g * g) / f**3
            if k == 4:
                return g * (7.0 + 6.0 * g * g) / f**4
            if k == 5:
                return (7.0 + g * g * (46.0 + 24.0 * g * g)) / f**5
            return g * (127.0 + g * g * (326.0 + 120.0 * g * g)) / f**6
        return dk

    return QuantileModel("normal", norm_ppf, tuple(d(k) for k in range(1, 7)),
                         trunc=1e-9, quad_tol=1e-6)


# ---------------------------------------------------------------------------
# David-Johnson series
# ---------------------------------------------------------------------------

def _check_order(order: int) -> None:
    if order not in (2, 3):
        raise ValueError(f"series order must be 2 or 3, got {order}")


def dj_mean(qm: QuantileModel, i: int, n: int, order: int = 2) -> float:
    """Series approximation of E[X_{i:n}] to order (n+2)^-order."""
    _check_order(order)
    _check_indices(i, i, n)
    m = n + 2
    r = i / (n + 1)
    s = 1.0 - r
    d = s - r
    G = qm.quantile(r)
    g = {k: qm.deriv(r, k) for k in range(2, 5 if order == 2 else 7)}
    val = (G + r * s / (2 * m) * g[2]
           + r * s / m**2 * (d * g[3] / 3 + r * s * g[4] / 8))
    if order == 3:
        val += r * s / m**3 * (-d * g[3] / 3 + (d * d - r * s) * g[4] / 4
                               + r * s * d * g[5] / 6 + (r * s) ** 2 * g[6] / 48)
    return val


def dj_product(qm: QuantileModel, i: int, j: int, n: int, order: int = 2) -> float:
    """Series approximation of E[X_{i:n} X_{j:n}] for i <= j.

    The order-(n+2)^-2 truncation carries the familiar ten terms; at i = j it
    coincides with the series for E[X_{i:n}^2], so no separate diagonal
    variant is needed.
    """
    _check_order(order)
    _check_indices(i, j, n)
    m = n + 2
    ri, rj = i / (n + 1), j / (n + 1)
    si, sj = 1.0 - ri, 1.0 - rj
    di, dj = si - ri, sj - rj
    kmax = 4 if order == 2 else 6
    gi = {0: qm.quantile(ri)} | {k: qm.deriv(ri, k) for k in range(1, kmax + 1)}
    gj = {0: qm.quantile(rj)} | {k: qm.deriv(rj, k) for k in range(1, kmax + 1)}

    val = (gi[0] * gj[0]
           + ri * sj / m * gi[1] * gj[1]
           + ri * si / (2 * m) * gj[0] * gi[2]
           + rj * sj / (2 * m) * gi[0] * gj[2]
           + ri * sj / m**2 * (di * gi[2] * gj[1] + dj * gi[1] * gj[2]
                               + ri * si / 2 * gi[3] * gj[1]
                               + rj * sj / 2 * gi[1] * gj[3]
                               + ri * sj / 2 * gi[2] * gj[2])
           + ri * rj * si * sj / (4 * m**2) * gi[2] * gj[2]
           + ri * si * gj[0] / m**2 * (ri * si / 8 * gi[4] + di / 3 * gi[3])
           + rj * sj * gi[0] / m**2 * (rj * sj / 8 * gj[4] + dj / 3 * gj[3]))

    if order == 3:
        # coefficient of G^(a)_i G^(b)_j in the (n+2)^-3 stratum
        c3 = {
            (0, 3): -rj * sj * dj / 3,
            (0, 4): rj * sj * (dj * dj - rj * sj) / 4,
            (0, 5): rj**2 * sj**2 * dj / 6,
            (0, 6): rj**3 * sj**3 / 48,
            (1, 2): -ri * sj * dj,
            (1, 3): ri * sj * (dj * dj - rj * sj),
            (1, 4): 5 * ri * rj * sj**2 * dj / 6,
            (1, 5): ri * rj**2 * sj**3 / 8,
            (2, 1): -ri * sj * di,
            (2, 2): ri * sj * (15 * ri * rj - 10 * ri - 5 * rj + 3) / 2,
            (2, 3): ri * sj * (20 * ri * rj**2 - 25 * ri * rj + 6 * ri
                               - 5 * rj**2 + 4 * rj) / 6,
            (2, 4): ri * rj * sj**2 * (4 * ri + rj - 5 * ri * rj) / 16,
            (3, 0): -ri * si * di / 3,
            (3, 1): ri * sj * (di * di - ri * si),
            (3, 2): ri * sj * (20 * ri**2 * rj - 15 * ri**2 - 15 * ri * rj
                               + 9 * ri + rj) / 6,
            (3, 3): ri**2 * sj**2 * (2 * ri + 3 * rj - 5 * ri * rj) / 12,
            (4, 0): ri * si * (di * di - ri * si) / 4,
            (4, 1): 5 * ri**2 * si * di * sj / 6,
            (4, 2): ri**2 * si * sj * (4 * ri + rj - 5 * ri * rj) / 16,
            (5, 0): ri**2 * si**2 * di / 6,
            (5, 1): ri**3 * si**2 * sj / 8,
            (6, 0): ri**3 * si**3 / 48,
        }
        val += sum(coef * gi[a] * gj[b] for (a, b), coef in c3.items()) / m**3
    return val


# ---------------------------------------------------------------------------
# providers: one object per (law, n) with mean(i) and product(i, j)
# ---------------------------------------------------------------------------

class UniformOrderStats:
    """Exact standard-uniform order-statistic moments for a fixed n."""

    law = "uniform"

    def __init__(self, n: int):
        self.n = n

    def mean(self, i: int) -> float:
        return uniform_mean(i, self.n)

    def product(self, i: int, j: int) -> float:
        return uniform_product(i, j, self.n)


class ExponentialOrderStats:
    """Exact standard-exponential order-statistic moments for a fixed n."""

    law = "exponential"

    def __init__(self, n: int):
        self.n = n

    def mean(self, i: int) -> float:
        return exp_mean(i, self.n)

    def product(self, i: int, j: int) -> float:
        return exp_product(i, j, self.n)


class DavidJohnsonOrderStats:
    """Series-approximated moments for a quantile-specified law at a fixed n."""

    def __init__(self, qm: QuantileModel, n: int, order: int = 2):
        _check_order(order)
        self.qm = qm
        self.n = n
        self.order = order
        self.law = qm.name

    def mean(self, i: int) -> float:
        return dj_mean(self.qm, i, self.n, self.order)

    def product(self, i: int, j: int) -> float:
        return dj_product(self.qm, i, j, self.n, self.order)


# ---------------------------------------------------------------------------
# law registry: the one table every caller dispatches through
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """An input law: a factory for its quantile model and, where the
    order-statistic moments have closed forms, the exact provider class."""

    quantile_model: Callable[[], QuantileModel]
    exact_stats: Callable[[int], object] | None = None


# Factories, not built models: a model built here would capture norm_ppf at
# import time, so later rebinding of the name would not reach it.
LAWS = {
    "uniform": Law(uniform_quantile_model, UniformOrderStats),
    "exponential": Law(exponential_quantile_model, ExponentialOrderStats),
    "normal": Law(normal_quantile_model),
}


def law_for(name: str) -> Law:
    """The registry entry of the named law; ValueError for an unknown name."""
    try:
        return LAWS[name]
    except KeyError:
        raise ValueError(f"unknown law {name!r}; expected one of {', '.join(LAWS)}") from None


def provider_for(law: str, n: int, dj_order: int = 2):
    """Order-statistic moments of the named law at n: exact where known,
    otherwise the David-Johnson series of order dj_order."""
    entry = law_for(law)
    if entry.exact_stats is not None:
        return entry.exact_stats(n)
    return DavidJohnsonOrderStats(entry.quantile_model(), n, dj_order)
