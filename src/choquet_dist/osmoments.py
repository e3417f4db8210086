"""Moments of order statistics and of their spacings for the input laws.

Exact closed forms are available for the standard uniform and standard
exponential laws.  Any other law enters through the Taylor terms of its
quantile function G:  writing X_{i:n} = G(U_{i:n}) and Taylor-expanding G around
r_i = i/(n+1) gives the David-Johnson series, whose terms are grouped by
powers of 1/(n+2).  The order-(n+2)^-2 truncation is the default; the
order-(n+2)^-3 terms are included behind the ``order=3`` flag.

The series functions broadcast over arrays of 1-based indices.  An
``OrderStats`` record holds a law's spacing moments once per (law, n): with
D_t = X_{n-t+1:n} - X_{n-t:n} (X_{0:n} = 0), the mean vector d = E[D] and the
covariance matrix Cov(D).  The uniform and exponential records fill them from
closed forms, exact to one rounding at any n; the series record differences
its order-statistic moments once, in its builder.

``LAWS`` is the one registry of input laws: each name maps to its quantile
model and, for the uniform and exponential laws, the exact record builder.
The moment records, the Monte Carlo sampler and the CLI all read it, so
adding a law is one entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .normal import norm_cdf, norm_pdf, norm_ppf


def _check_indices(i, j, n: int) -> None:
    """1 <= i <= j <= n for scalar or (broadcast) array indices."""
    i, j = np.asarray(i), np.asarray(j)
    if not np.all((1 <= i) & (i <= j) & (j <= n)):
        raise ValueError(f"need 1 <= i <= j <= n, got i={i}, j={j}, n={n}")


# ---------------------------------------------------------------------------
# quantile models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantileModel:
    """An input law by its quantile G = F^{-1} on (0,1), whose Taylor terms
    ``taylor(u)`` = [G(u), G'(u), .., G^(6)(u)] come from one evaluation of G
    and feed the David-Johnson series (order 2 reads the first five), and by
    its cdf F and density f on the real line, which feed the limit
    functionals in x = G(u).
    ``support`` is the law's support with each infinite end cut where the
    tail mass beyond it is below ~1e-17.  All callables take arrays.
    """

    name: str
    quantile: Callable[[float], float]
    taylor: Callable
    cdf: Callable
    pdf: Callable
    support: tuple[float, float]


def uniform_quantile_model() -> QuantileModel:
    return QuantileModel("uniform", lambda u: u, lambda u: [u, 1.0] + [0.0] * 5,
                         cdf=lambda x: x, pdf=np.ones_like, support=(0.0, 1.0))


def exponential_quantile_model() -> QuantileModel:
    """G(u) = -log(1-u) and G^(k)(u) = (k-1)!/(1-u)^k."""
    G = lambda u: -np.log1p(-u)
    terms = lambda u: [G(u)] + [math.factorial(k - 1) / (1.0 - u) ** k for k in range(1, 7)]
    return QuantileModel("exponential", G, terms,
                         cdf=lambda x: -np.expm1(-x), pdf=lambda x: np.exp(-x),
                         support=(0.0, 40.0))


def normal_quantile_model() -> QuantileModel:
    """Standard normal quantile with its Taylor terms in closed form.

    With f the standard normal density and G the quantile, composition gives
    G' = 1/(f o G), G'' = G/(f o G)^2, and onward up to order six with the
    polynomial factors 1+2G^2, G(7+6G^2), 7+46G^2+24G^4, G(127+326G^2+120G^4).
    """
    def terms(u):
        g = norm_ppf(u)
        f = norm_pdf(g)
        return [g, 1.0 / f, g / f**2, (1.0 + 2.0 * g * g) / f**3,
                g * (7.0 + 6.0 * g * g) / f**4,
                (7.0 + g * g * (46.0 + 24.0 * g * g)) / f**5,
                g * (127.0 + g * g * (326.0 + 120.0 * g * g)) / f**6]

    return QuantileModel("normal", norm_ppf, terms,
                         cdf=norm_cdf, pdf=norm_pdf, support=(-9.0, 9.0))


# ---------------------------------------------------------------------------
# David-Johnson series
# ---------------------------------------------------------------------------

def _check_order(order: int) -> None:
    if order not in (2, 3):
        raise ValueError(f"series order must be 2 or 3, got {order}")


def dj_mean(qm: QuantileModel, i, n: int, order: int = 2):
    """Series approximation of E[X_{i:n}] to order (n+2)^-order."""
    _check_order(order)
    _check_indices(i, i, n)
    m = n + 2
    r = i / (n + 1)
    s = 1.0 - r
    d = s - r
    g = qm.taylor(r)
    val = (g[0] + r * s / (2 * m) * g[2]
           + r * s / m**2 * (d * g[3] / 3 + r * s * g[4] / 8))
    if order == 3:
        val += r * s / m**3 * (-d * g[3] / 3 + (d * d - r * s) * g[4] / 4
                               + r * s * d * g[5] / 6 + (r * s) ** 2 * g[6] / 48)
    return val


def dj_product(qm: QuantileModel, i, j, n: int, order: int = 2):
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
    # row a holds G^(a) at the n points k/(n+1); read it at i and at j
    terms = qm.taylor(np.arange(1, n + 1) / (n + 1))
    table = np.array([np.broadcast_to(t, (n,)) for t in terms])
    gi, gj = table[:, np.asarray(i) - 1], table[:, np.asarray(j) - 1]

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
# the spacing record: every law tabulated once per n
# ---------------------------------------------------------------------------

class OrderStats:
    """First two moments of the order-statistic spacings of n i.i.d. draws.

    With D_t = X_{n-t+1:n} - X_{n-t:n} the t-th spacing from the top
    (X_{0:n} = 0), ``d[t-1]`` is E[D_t] and ``cov[s-1, t-1]`` is
    Cov(D_s, D_t); both arrays are read-only.  X_{i:n} is the sum of the D_t
    over t > n - i, so ``mean(i)`` = E[X_{i:n}] and ``product(i, j)`` =
    E[X_{i:n} X_{j:n}] are short sums over them, with the 1-based index check.
    """

    def __init__(self, law: str, n: int, d, cov):
        self.law = law
        self.n = n
        self.d = np.array(d, dtype=float)
        self.cov = np.array(cov, dtype=float)
        self.d.flags.writeable = False
        self.cov.flags.writeable = False

    def mean(self, i: int) -> float:
        _check_indices(i, i, self.n)
        return float(self.d[self.n - i:].sum())

    def product(self, i: int, j: int) -> float:
        _check_indices(i, j, self.n)
        n, d = self.n, self.d
        return float(self.cov[n - i:, n - j:].sum() + d[n - i:].sum() * d[n - j:].sum())


class UniformOrderStats(OrderStats):
    """Exact standard-uniform spacings for a fixed n: E[D_t] = 1/(n+1) and
    Cov(D) = (I (n+1) - 11')/((n+1)^2 (n+2)), each entry one rounding of its
    rational value."""

    def __init__(self, n: int):
        den = (n + 1) ** 2 * (n + 2)
        cov = np.full((n, n), -1.0 / den)
        np.fill_diagonal(cov, n / den)
        super().__init__("uniform", n, np.full(n, 1.0 / (n + 1)), cov)


class ExponentialOrderStats(OrderStats):
    """Exact standard-exponential spacings for a fixed n (Renyi): the D_t are
    independent exponentials of rate t, so E[D_t] = 1/t and Cov(D) = diag(1/t^2)."""

    def __init__(self, n: int):
        t = np.arange(1.0, n + 1)
        super().__init__("exponential", n, 1.0 / t, np.diag(1.0 / (t * t)))


class DavidJohnsonOrderStats(OrderStats):
    """Series-approximated spacings for a quantile-specified law at a fixed n:
    one ``dj_mean`` call on the indices and one ``dj_product`` call on their
    (min, max) grids, padded with X_{0:n} = 0 and differenced here once;
    ``cov`` is symmetric up to the rounding of those differences."""

    def __init__(self, qm: QuantileModel, n: int, order: int = 2):
        self.order = order
        i = np.arange(1, n + 1)
        mu = np.append(0.0, dj_mean(qm, i, n, order))
        M = np.pad(dj_product(qm, np.minimum.outer(i, i), np.maximum.outer(i, i), n, order),
                   ((1, 0), (1, 0)))
        d = np.diff(mu)[::-1]
        S = np.diff(np.diff(M, axis=0), axis=1)[::-1, ::-1]
        super().__init__(qm.name, n, d, S - np.outer(d, d))


# ---------------------------------------------------------------------------
# law registry: the one table every caller dispatches through
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """An input law: a factory for its quantile model and, where the
    spacing moments have closed forms, the exact record builder."""

    quantile_model: Callable[[], QuantileModel]
    exact_stats: Callable[[int], OrderStats] | None = None


# Factories, not built models: a model built here would capture norm_ppf,
# norm_cdf and norm_pdf at import time, so later rebinding of the names would
# not reach it.
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


def provider_for(law: str, n: int, dj_order: int = 2) -> OrderStats:
    """Spacing record of the named law at n: exact where known, otherwise
    the David-Johnson series of order dj_order."""
    entry = law_for(law)
    if entry.exact_stats is not None:
        return entry.exact_stats(n)
    return DavidJohnsonOrderStats(entry.quantile_model(), n, dj_order)
