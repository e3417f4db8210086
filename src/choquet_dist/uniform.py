"""Exact distribution of the Choquet integral under standard-uniform inputs.

For each descending-order region the integral is a fixed linear combination
of uniform order statistics, so averaging over the n! orderings gives

    cdf:  F(y) = (1/n!)     sum_sigma  DD[(x - y)_-^n     : chain knots]
    pdf:  f(y) = (1/(n-1)!) sum_sigma  DD[(x - y)_+^(n-1) : chain knots]

with the chain knots nu_0^sigma .. nu_n^sigma of each permutation.  The pdf
is equivalently an equal-weight mixture of n! B-spline densities.  Raw
moments of any order come from a lattice sum over nested subset chains,
while r = 1, 2 also have direct closed forms used to cross-check it.
"""
from __future__ import annotations

import math

import numpy as np

from .capacity import (Chain, SetFunction, enumerate_chains, ranked_zeta,
                       subset_sizes)
from .divdiff import dd_generic, tp_minus_dd, tp_plus_dd


class UniformChoquetDist:
    """Distribution object caching the n! chains of a game."""

    def __init__(self, game: SetFunction):
        self.game = game
        self.chains: tuple[Chain, ...] = tuple(enumerate_chains(game))
        self._knots = [ch.nu_chain for ch in self.chains]

    def support(self) -> tuple[float, float]:
        vals = self.game.values
        return float(min(vals.min(), 0.0)), float(max(vals.max(), 0.0))

    def knot_values(self) -> np.ndarray:
        """Sorted distinct chain values; the pdf is polynomial between them."""
        return np.unique(np.concatenate(self._knots))

    def cdf(self, y):
        """P[Y <= y]; scalar or array argument, clamped into [0, 1]."""
        return np.clip(self._cdf_raw(y), 0.0, 1.0)

    def _cdf_raw(self, y):
        # unclamped permutation average; useful when chasing cancellation
        total = sum(tp_minus_dd(k, y) for k in self._knots)
        return total / math.factorial(self.game.n)

    def pdf(self, y):
        """Density at y; scalar or array argument."""
        total = sum(tp_plus_dd(k, y) for k in self._knots)
        return total / math.factorial(self.game.n - 1)

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
        # inv_binom[s, t] = 1/C(t, s); 0 where s > t, as no s-subset lies in T
        inv_binom = np.array([[1.0 / math.comb(t, s) if s <= t else 0.0
                               for t in range(n + 1)] for s in range(n + 1)])
        f = vals
        for _ in range(r - 1):
            z = ranked_zeta(f, n)
            f = vals * sum(z[s] * inv_binom[s, sizes] for s in range(n + 1))
        return float(f @ inv_binom[sizes, n]) / math.comb(n + r, r)

    def expect_gn(self, f) -> float:
        """sum over permutations of the divided difference of f at the chain
        knots; equals E[f^(n)(Y)] when every chain has distinct knots.

        Note the caller supplies f itself (the antiderivative of order n of
        the function whose expectation is wanted), and no 1/n! factor
        applies: each ordering contributes n! times its region's share.
        """
        total = 0.0
        for ch in self.chains:
            knots = ch.nu_chain
            gaps = np.diff(np.sort(knots))
            if np.min(gaps) <= 1e-12:
                raise ValueError(
                    f"chain of sigma={ch.sigma} has repeated values; "
                    "use raw_moment/cdf/pdf, which allow coincident knots")
            total += dd_generic(f, knots)
        return total


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
