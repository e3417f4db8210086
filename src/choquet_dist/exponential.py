"""Exact density and cdf of the Choquet integral under standard-exponential
inputs, available when every permutation chain is *regular*.

Within one descending-order region the integral is sum_i p_i X_{n-i+1:n},
whose density is a signed mixture of exponentials with rates 1/c_i, where
c_i = nu_i^sigma / i.  That closed form requires the c_i of each chain to be
positive and pairwise distinct; games violating this (the minimum capacity,
for instance) are rejected with a pointer to the Monte Carlo path, since near
ties make the partial-fraction coefficients blow up.  The scales, the
regularity test and the partial-fraction weights are computed for all rows
of :func:`~choquet_dist.capacity.chain_table` at once.  A game whose weights
cancel past CANCELLATION_TOL (eps * sum |w| s) is refused as well.
"""
from __future__ import annotations

import math

import numpy as np

from .capacity import SetFunction, chain_table, in_row_blocks
from .moments import moments_report
from .osmoments import ExponentialOrderStats

C_DISTINCT_RTOL = 1e-9
CANCELLATION_TOL = 1e-5


class RegularityError(ValueError):
    """A chain's exponential-mixture coefficients are degenerate."""

    def __init__(self, message, sigma=None):
        super().__init__(message)
        self.sigma = sigma


def chain_coeffs(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scales c[k, i-1] = nu[k, i] / i of the (k, n+1) chain values nu, and
    whether each row is regular: positive and pairwise distinct to
    C_DISTINCT_RTOL.  For positive scales some pair is that close exactly
    when some pair of neighbours in sorted order is."""
    n = nu.shape[1] - 1
    c = nu[:, 1:] / np.arange(1, n + 1)
    s = np.sort(c, axis=1)
    close = np.diff(s, axis=1) <= C_DISTINCT_RTOL * s[:, 1:]
    return c, (s[:, 0] > 0.0) & ~np.any(close, axis=1)


def _irregularity(sigma: tuple[int, ...], c: np.ndarray) -> RegularityError:
    """The error for one irregular chain, naming its first problem: the
    smallest nonpositive scale, else the lexicographically first close pair."""
    if np.any(c <= 0.0):
        i = int(np.argmin(c)) + 1
        problem = f"c_{i} = {c[i - 1]:g} is not positive"
    else:
        i, k = np.triu_indices(c.size, 1)
        close = np.abs(c[i] - c[k]) <= C_DISTINCT_RTOL * np.maximum(np.abs(c[i]), np.abs(c[k]))
        j = np.flatnonzero(close)[0]
        problem = f"c_{i[j] + 1} and c_{k[j] + 1} coincide at {c[i[j]]:g}"
    return RegularityError(f"chain of sigma={sigma}: {problem}; the exponential closed form "
                           "does not apply (perturb nu or use Monte Carlo)", sigma=sigma)


class ExponentialChoquetDist:
    """Exact distribution object for a regular game under exponential inputs.

    Construction pools the (scale, weight) pairs of all chains by scale; the
    density is then weights @ exp(-y / scales) and the cdf integrates term by
    term.  An irregular game raises :class:`RegularityError`.
    """

    def __init__(self, game: SetFunction):
        self.game = game
        sigmas, nu = chain_table(game)
        c, regular = chain_coeffs(nu)
        if not np.all(regular):
            k = int(np.argmin(regular))
            raise _irregularity(tuple(sigmas[k].tolist()), c[k])
        # partial fractions of x^(n-2) over the n scales of each chain; n = 1
        # gives the bare 1/c factor
        denom = np.ones_like(c)
        for k in range(game.n):
            d = c - c[:, k:k + 1]
            d[:, k] = 1.0
            denom *= d
        w = np.float_power(c, game.n - 2) / denom
        # the weights of one scale can cancel by orders of magnitude: pool
        # them by exactly rounded sums
        self.scales, inverse = np.unique(c, return_inverse=True)
        inverse = inverse.ravel()
        by_scale = np.split(w.ravel()[np.argsort(inverse)], np.cumsum(np.bincount(inverse))[:-1])
        self.weights = np.array([math.fsum(part) for part in by_scale]) / len(c)
        # 1 for a single scale; the cdf, mass and mean lose about eps times it
        self.cancellation = float(np.abs(self.weights) @ self.scales)
        eps = np.finfo(float).eps
        # the pdf's terms are w e^(-y/s), so it loses about eps * sum |w|
        self.pdf_bound = eps * float(np.abs(self.weights).sum())
        bound = eps * self.cancellation
        if bound > CANCELLATION_TOL:
            raise ValueError(f"exponential weights cancel: the cdf may be off by {bound:.1e} "
                             f"(eps * sum |w| s > {CANCELLATION_TOL:g}); use Monte Carlo")

    def pdf(self, y):
        """Density at y (scalar or array), good to about ``pdf_bound``; its
        temporaries hold at most BLOCK_ELEMENTS (point, scale) entries."""
        return self._sum(y, lambda decay: decay @ self.weights)

    def cdf(self, y):
        """Distribution function at y (scalar or array), good to about eps *
        ``cancellation``; its temporaries hold at most BLOCK_ELEMENTS
        (point, scale) entries."""
        terms = self.weights * self.scales
        return self._sum(y, lambda decay: (1.0 - decay) @ terms)

    def _sum(self, y, reduce):
        """reduce(exp(-y / scales)) at each y >= 0 and 0 at each y < 0, a
        block of points at a time."""
        ya = np.asarray(y, dtype=float)
        pos = np.maximum(ya, 0.0).ravel()  # negative y contributes 0; avoid exp overflow
        vals = in_row_blocks(lambda p: reduce(np.exp(-np.divide.outer(p, self.scales))),
                             pos, self.scales.size)
        out = np.where(ya < 0.0, 0.0, vals.reshape(ya.shape))
        return float(out) if ya.ndim == 0 else out


def exp_moments(g: SetFunction) -> tuple[float, float]:
    """(mean, sd) from the spacing formulas with exact exponential moments.

    Needs no regularity; works for every game.
    """
    rep = moments_report(g, ExponentialOrderStats(g.n))
    return rep.mean, rep.sd
