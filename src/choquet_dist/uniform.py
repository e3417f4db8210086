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
sum over nested subset chains and need no chain table; the closed forms for
r = 1, 2 that check it are the spacing route of :mod:`~choquet_dist.moments`
on the exact uniform order-statistic record.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .capacity import (SetFunction, chain_table, inverse_binomials, ranked_zeta,
                       subset_sizes)
from .divdiff import tp_dd_sum
from .moments import mean, second_raw_moment
from .osmoments import UniformOrderStats


class UniformChoquetDist:
    """Distribution object of a game; the chain table is built on first use.

    Row k of ``knots`` holds the chain values nu_0^sigma .. nu_n^sigma of one
    ordering (see :func:`~choquet_dist.capacity.chain_table`).  Only ``pdf``
    and ``cdf`` read it; ``raw_moment``, ``support`` and ``knot_values`` read
    the game's values alone, so they take any n.
    """

    def __init__(self, game: SetFunction):
        self.game = game

    @cached_property
    def knots(self) -> np.ndarray:
        return chain_table(self.game)[1]

    def support(self) -> tuple[float, float]:
        vals = self.game.values
        return float(min(vals.min(), 0.0)), float(max(vals.max(), 0.0))

    def knot_values(self) -> np.ndarray:
        """Sorted distinct chain values; the pdf is polynomial between them.
        Every subset lies on some chain, so these are the game's values."""
        return np.unique(self.game.values)

    def cdf(self, y):
        """P[Y <= y]; scalar or array argument."""
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
    """E[Y] under uniform inputs: the spacing route on the exact record."""
    return mean(g, UniformOrderStats(g.n))


def closed_form_second_moment(g: SetFunction) -> float:
    """E[Y^2] under uniform inputs: the spacing route on the exact record."""
    return second_raw_moment(g, UniformOrderStats(g.n))
