"""Exact distribution of the Choquet integral under standard-uniform inputs.

For each descending-order region the integral is a fixed linear combination
of uniform order statistics, so averaging over the n! orderings gives

    cdf:  F(y) = (1/n!)     sum_sigma  DD[(x - y)_-^n     : chain knots]
    pdf:  f(y) = (1/(n-1)!) sum_sigma  DD[(x - y)_+^(n-1) : chain knots]

with the chain knots nu_0^sigma .. nu_n^sigma of each permutation: averages
over the rows of :func:`~choquet_dist.capacity.chain_table`, summed by one call
of :func:`~choquet_dist.divdiff.tp_dd_sum`.  The pdf is an equal-weight mixture
of n! B-spline densities, or of one for a symmetric game (an OWA function),
whose orderings share one chain.  Raw moments of any order come from a lattice
sum over nested subset chains; r = 1, 2 also have closed forms to check it.
"""
from __future__ import annotations

import math

import numpy as np

from .capacity import (SetFunction, chain_table, inverse_binomials, ranked_zeta,
                       subset_sizes)
from .divdiff import tp_dd_sum


class UniformChoquetDist:
    """Distribution object caching the chain table of a game as arrays.

    Row k of ``sigmas`` is an ordering and row k of ``knots`` its chain values
    nu_0^sigma .. nu_n^sigma (see :func:`~choquet_dist.capacity.chain_table`).
    """

    def __init__(self, game: SetFunction):
        self.game = game
        self.sigmas, self.knots = chain_table(game)

    def support(self) -> tuple[float, float]:
        vals = self.game.values
        return float(min(vals.min(), 0.0)), float(max(vals.max(), 0.0))

    def knot_values(self) -> np.ndarray:
        """Sorted distinct chain values; the pdf is polynomial between them."""
        return np.unique(self.knots)

    def cdf(self, y):
        """P[Y <= y]; scalar or array argument, clamped into [0, 1]."""
        return np.clip(self._cdf_raw(y), 0.0, 1.0)

    def _cdf_raw(self, y):
        # unclamped average over the chains; useful when chasing cancellation
        return tp_dd_sum(self.knots, y, minus=True) / len(self.knots)

    def pdf(self, y):
        """Density at y; scalar or array argument."""
        # n times the average over the chains: the divisor is (n-1)! on n! rows
        return tp_dd_sum(self.knots, y, minus=False) / (len(self.knots) / self.game.n)

    def raw_moment(self, r: int) -> float:
        """E[Y^r] as the exact lattice sum over nested subset chains.

        Summing nu(T_1) ... nu(T_r) / prod C(|T_{i+1}|, |T_i|) over the chains
        T_1 <= ... <= T_r <= T_{r+1} = N takes r - 1 chained ranked zeta
        transforms, each weighted by 1/C(|T|, s), and one contraction at N.
        """
        if r < 1:
            raise ValueError("moment order must be >= 1")
        n = self.game.n
        vals = self.game.values
        sizes = subset_sizes(n)
        inv_binom = inverse_binomials(n)
        f = vals
        for _ in range(r - 1):
            z = ranked_zeta(f, n)
            f = vals * sum(z[s] * inv_binom[s, sizes] for s in range(n + 1))
        return float(f @ inv_binom[sizes, n]) / math.comb(n + r, r)


def closed_form_mean(g: SetFunction) -> float:
    """E[Y] = (1/(n+1)) sum_T nu(T)/C(n,|T|)."""
    lev = g.level_sums()
    return sum(lev[t] / math.comb(g.n, t) for t in range(1, g.n + 1)) / (g.n + 1)


def closed_form_second_moment(g: SetFunction) -> float:
    """E[Y^2] = 2/((n+1)(n+2)) sum_{T1 subset-eq T2} nu(T1)nu(T2)
    / (C(|T2|,|T1|) C(n,|T2|))."""
    from .moments import nested_pair_level_sums

    n = g.n
    P = nested_pair_level_sums(g)
    total = 0.0
    for s in range(1, n):
        for t in range(s + 1, n + 1):
            total += P[s, t] / (math.comb(t, s) * math.comb(n, t))
    sq = np.bincount(subset_sizes(n), weights=g.values**2, minlength=n + 1)
    total += sum(sq[t] / math.comb(n, t) for t in range(1, n + 1))
    return 2.0 * total / ((n + 1) * (n + 2))


def closed_form_sd(g: SetFunction) -> float:
    m1 = closed_form_mean(g)
    return math.sqrt(max(closed_form_second_moment(g) - m1 * m1, 0.0))
