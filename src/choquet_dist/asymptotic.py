"""Normal-mixture approximation of the Choquet integral for large samples.

Each descending-order region contributes a linear combination of order
statistics; under the usual smoothness/boundedness conditions on its weight
generator J (a function on (0,1) with J(i/n) = n p_{n-i+1}) such a statistic
is asymptotically normal with limiting mean and scaled variance

    alpha(J, F)  = int_0^1 J(u) G(u) du,
    beta^2(J, F) = 2 iint_{0<u<v<1} J(u) J(v) u (1-v) G'(u) G'(v) du dv,

G the quantile of the input law.  The integral itself is then approximately
an equal-weight mixture of the per-ordering normals.  Whether the conditions
hold for a data-driven game cannot be checked; the orness diagnostic is the
customary heuristic and callers should treat non-symmetric step-J results as
exploratory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .capacity import Chain, SetFunction, enumerate_chains
from .normal import norm_cdf, norm_pdf
from .osmoments import QuantileModel


@dataclass(frozen=True)
class WeightFunction:
    """Order-statistic weight generator J on (0,1)."""

    fn: Callable[[float], float]
    provenance: str = "analytic"

    def __call__(self, u: float) -> float:
        return self.fn(u)

    @staticmethod
    def power(a: float) -> "WeightFunction":
        """J(u) = u^a."""
        if a <= 0:
            raise ValueError("the exponent must be strictly positive")
        return WeightFunction(lambda u: u ** a, provenance=f"power({a:g})")

    @staticmethod
    def constant(value: float = 1.0) -> "WeightFunction":
        return WeightFunction(lambda u: value, provenance="constant")

    @staticmethod
    def from_chain(chain: Chain) -> "WeightFunction":
        """Step function with J(i/n) = n p_{n-i+1}, extended as piecewise
        constant on ((i-1)/n, i/n]; the grid values are pinned, the extension
        between them is a choice."""
        w = np.asarray(chain.weights)
        n = w.size

        def step(u: float) -> float:
            i = min(max(int(math.ceil(u * n)), 1), n)
            return n * w[n - i]

        return WeightFunction(step, provenance=f"chain{chain.sigma}")


def alpha(J: WeightFunction, qm: QuantileModel) -> float:
    """int_0^1 J(u) G(u) du by adaptive quadrature on the model's safe domain."""
    lo, hi = qm.trunc, 1.0 - qm.trunc
    val, err = integrate.quad(lambda u: J(u) * qm.quantile(u), lo, hi,
                              epsabs=qm.quad_tol * 0.1, epsrel=1e-10, limit=400)
    if err > qm.quad_tol:
        raise ValueError(f"alpha quadrature did not reach {qm.quad_tol:g} "
                         f"(estimated error {err:g})")
    return val


def beta2(J: WeightFunction, qm: QuantileModel) -> float:
    """2 iint_{u<v} J(u)J(v) u(1-v) G'(u)G'(v) du dv over the triangle,
    as iterated adaptive quadrature."""
    lo, hi = qm.trunc, 1.0 - qm.trunc
    g1 = qm.derivatives[0]

    def integrand(u: float, v: float) -> float:
        return 2.0 * J(u) * J(v) * u * (1.0 - v) * g1(u) * g1(v)

    val, err = integrate.dblquad(integrand, lo, hi, lambda v: lo, lambda v: v,
                                 epsabs=qm.quad_tol * 0.1, epsrel=1e-10)
    if err > qm.quad_tol:
        raise ValueError(f"beta^2 quadrature did not reach {qm.quad_tol:g} "
                         f"(estimated error {err:g})")
    return val


@dataclass(frozen=True)
class MixtureApprox:
    """Equal-weight normal mixture; one component per distinct ordering.

    For symmetric games all orderings coincide, so a single component with
    weight 1 stands in for the n! identical ones.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")


def _component_stats(weights: np.ndarray, provider) -> tuple[float, float]:
    """Mean and variance of sum_i p_i X_{n-i+1:n} from provider moments."""
    n = weights.size
    mean = sum(weights[i - 1] * provider.mean(n - i + 1) for i in range(1, n + 1))
    second = 0.0
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            a, b = n - i + 1, n - k + 1
            second += (weights[i - 1] * weights[k - 1]
                       * provider.product(min(a, b), max(a, b)))
    return mean, second - mean * mean


def mixture_approx(g: SetFunction, provider) -> MixtureApprox:
    """Per-ordering normal components from exact or series moments."""
    if g.is_symmetric():
        ch = _identity_chain(g)
        m, v = _component_stats(ch.weights, provider)
        return MixtureApprox(np.array([1.0]), np.array([m]), np.array([v]))
    chains = list(enumerate_chains(g))
    stats = [_component_stats(ch.weights, provider) for ch in chains]
    k = len(chains)
    return MixtureApprox(np.full(k, 1.0 / k),
                         np.array([s[0] for s in stats]),
                         np.array([s[1] for s in stats]))


def _identity_chain(g: SetFunction) -> Chain:
    from .capacity import chain_for
    return chain_for(g, range(1, g.n + 1))


def mixture_pdf(m: MixtureApprox, y):
    """Density of the normal mixture at y (scalar or array)."""
    _require_positive_variances(m)
    ya = np.asarray(y, dtype=float)
    sd = np.sqrt(m.variances)
    z = (ya[..., None] - m.means) / sd
    out = (norm_pdf(z) / sd) @ m.weights
    return float(out) if ya.ndim == 0 else out


def mixture_cdf(m: MixtureApprox, y):
    _require_positive_variances(m)
    ya = np.asarray(y, dtype=float)
    sd = np.sqrt(m.variances)
    z = (ya[..., None] - m.means) / sd
    out = norm_cdf(z) @ m.weights
    return float(out) if ya.ndim == 0 else out


def _require_positive_variances(m: MixtureApprox) -> None:
    if np.any(m.variances <= 0.0):
        raise ValueError("a mixture component has nonpositive variance; "
                         "use the exact distribution instead")


def power_weight_game(n: int, a: float) -> SetFunction:
    """Symmetric game whose ordering weights are p_i = (1/n)((n-i+1)/n)^a.

    nu(S) depends on |S| only, so the induced aggregation is a linear
    combination of order statistics with generator J(u) = u^a.  Built
    directly from per-cardinality prefix sums; n beyond the permutation cap
    is fine here since nothing enumerates orderings.
    """
    if a <= 0:
        raise ValueError("the exponent must be strictly positive")
    if n < 1 or n > 24:
        raise ValueError("n out of the supported range 1..24")
    steps = ((n - np.arange(1, n + 1) + 1) / n) ** a / n
    prefix = np.concatenate([[0.0], np.cumsum(steps)])
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    return SetFunction(n, prefix[sizes])
