"""Normal-mixture approximation of the Choquet integral for large samples.

Each descending-order region contributes a linear combination of order
statistics; under the usual smoothness/boundedness conditions on its weight
generator J (a function on (0,1) with J(i/n) = n p_{n-i+1}) such a statistic
is asymptotically normal with limiting mean and scaled variance

    alpha(J, F)  = int_0^1 J(u) G(u) du,
    beta^2(J, F) = 2 iint_{0<u<v<1} J(u) J(v) u (1-v) G'(u) G'(v) du dv,

G the quantile of the input law.  Both are computed in x = G(u), where
G'(u) du = dx (Stigler 1974, Ann. Statist. 2):

    alpha  = int J(F(x)) x f(x) dx,
    beta^2 = 2 int J(F(y)) (1 - F(y)) K(y) dy,  K(y) = int_{-inf}^{y} J(F(x)) F(x) dx,

whose integrands are bounded and whose inner integral is cumulative.  One
fixed composite Gauss-Legendre rule over the law's support does both.

The integral itself is then approximately an equal-weight mixture of the
normals of the chain table's rows (one row for a symmetric game).  Whether
the conditions hold for a data-driven game cannot be checked; the orness
diagnostic is the customary heuristic and callers should treat the mixture
of a non-symmetric game as exploratory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capacity import SetFunction, chain_table, in_row_blocks, subset_sizes
from .normal import norm_cdf, norm_pdf
from .osmoments import OrderStats, QuantileModel

GL_NODES = 8  # Gauss-Legendre nodes per panel
BASE_PANELS = 100  # equal panels over the support, before grading and halving
GRADED_PANELS = 40  # geometric panels (ratio 1/2) into each end of the support
QUAD_TOL = 1e-10  # largest accepted halving gap, relative to max(1, |value|)


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point rule on [-1, 1] (Golub-Welsch)."""
    k = np.arange(1.0, m)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * v[0] ** 2


def _lagrange(t: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Entry [..., m] is the m-th Lagrange basis polynomial on the nodes at t."""
    d = t[..., None] - nodes
    others = ~np.eye(nodes.size, dtype=bool)
    scale = np.prod(np.where(others, nodes[:, None] - nodes, 1.0), axis=1)
    return np.prod(np.where(others, d[..., None, :], 1.0), axis=-1) / scale


_GL_X, _GL_W = _gauss_legendre(GL_NODES)
# _GL_S[k, m] = int_{-1}^{x_k} l_m(s) ds, exact by the rule itself on [-1, x_k]
# since l_m has degree GL_NODES - 1
_GL_S = (_lagrange(-1.0 + np.outer(_GL_X + 1.0, _GL_X + 1.0) / 2.0, _GL_X)
         * _GL_W[:, None]).sum(axis=1) * ((_GL_X + 1.0) / 2.0)[:, None]


class PanelRule:
    """Composite Gauss-Legendre rule in x on the panels between sorted edges.

    ``x`` and ``w`` are the (panels, GL_NODES) nodes and weights; integrands
    are passed as their values at ``x``.
    """

    def __init__(self, edges):
        self.edges = np.asarray(edges, dtype=float)
        self._half = np.diff(self.edges)[:, None] / 2.0
        self.x = self.edges[:-1, None] + self._half * (_GL_X + 1.0)
        self.w = self._half * _GL_W

    @classmethod
    def for_law(cls, qm: QuantileModel) -> "PanelRule":
        """BASE_PANELS equal panels on qm.support, graded geometrically into
        both ends (where J(F(x)) = F(x)^a is only as smooth as x^a)."""
        lo, hi = qm.support
        h = (hi - lo) / BASE_PANELS
        graded = h * 0.5 ** np.arange(1, GRADED_PANELS + 1)
        return cls(np.unique(np.concatenate([np.linspace(lo, hi, BASE_PANELS + 1),
                                             lo + graded, hi - graded])))

    def bisected(self) -> "PanelRule":
        """The same rule with every panel split in two."""
        mid = (self.edges[:-1] + self.edges[1:]) / 2.0
        return PanelRule(np.sort(np.concatenate([self.edges, mid])))

    def integral(self, f) -> float:
        return float(np.sum(self.w * f))

    def cumulative(self, f) -> np.ndarray:
        """int_{edges[0]}^{x} of f at every node x, from f at the nodes."""
        before = np.concatenate([[0.0], np.cumsum(np.sum(self.w * f, axis=1))[:-1]])
        return before[:, None] + self._half * (f @ _GL_S.T)


def _by_halving(name: str, qm: QuantileModel, on_rule) -> float:
    """on_rule on the law's panels and on the bisected panels; the second
    value, if the two agree to QUAD_TOL."""
    rule = PanelRule.for_law(qm)
    coarse, fine = on_rule(rule), on_rule(rule.bisected())
    err = abs(fine - coarse)
    if not err <= QUAD_TOL * max(1.0, abs(fine)):
        raise ValueError(f"{name} quadrature did not reach {QUAD_TOL:g} "
                         f"(estimated error {err:g})")
    return fine


@dataclass(frozen=True)
class WeightFunction:
    """Order-statistic weight generator J on (0,1), applied to arrays.  The
    quadrature of alpha and beta2 takes J smooth inside (0,1); a jump shows
    as a failed halving check."""

    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, u):
        return self.fn(u)

    @staticmethod
    def power(a: float) -> "WeightFunction":
        """J(u) = u^a."""
        _check_exponent(a)
        return WeightFunction(lambda u: u ** a)


def _check_exponent(a: float) -> None:
    if not 0.0 < a < np.inf:
        raise ValueError(f"the exponent must be finite and strictly positive, got {a}")


def alpha(J: WeightFunction, qm: QuantileModel) -> float:
    """int J(F(x)) x f(x) dx over the law's support."""
    def on_rule(rule):
        x = rule.x
        return rule.integral(J(qm.cdf(x)) * x * qm.pdf(x))

    return _by_halving("alpha", qm, on_rule)


def beta2(J: WeightFunction, qm: QuantileModel) -> float:
    """2 int J(F(y)) (1 - F(y)) K(y) dy with the cumulative
    K(y) = int^y J(F(x)) F(x) dx, over the law's support."""
    def on_rule(rule):
        F = qm.cdf(rule.x)
        JF = J(F)
        return 2.0 * rule.integral(JF * (1.0 - F) * rule.cumulative(JF * F))

    return _by_halving("beta^2", qm, on_rule)


@dataclass(frozen=True)
class MixtureApprox:
    """Equal-weight normal mixture, one component per row of the chain table
    (a single component of weight 1 for a symmetric game)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")


def mixture_approx(g: SetFunction, stats: OrderStats) -> MixtureApprox:
    """Per-ordering normal components: component k is sum_t nu_t D_t over
    the spacings D_t of the record and the chain values nu_1..nu_n of row k
    of :func:`~choquet_dist.capacity.chain_table` (only the identity chain for
    a symmetric game), with mean nu.d and variance nu' Cov(D) nu."""
    nu = chain_table(g)[1][:, 1:]
    variances = np.einsum("ks,st,kt->k", nu, stats.cov, nu)
    return MixtureApprox(np.full(len(nu), 1.0 / len(nu)), nu @ stats.d, variances)


def mixture_pdf(m: MixtureApprox, y):
    """Density of the normal mixture at y (scalar or array); its temporaries
    hold at most BLOCK_ELEMENTS (point, component) entries."""
    return _mixture(m, y, lambda z, sd: norm_pdf(z) / sd)


def mixture_cdf(m: MixtureApprox, y):
    """Distribution function of the normal mixture at y (scalar or array);
    its temporaries hold at most BLOCK_ELEMENTS (point, component) entries."""
    return _mixture(m, y, lambda z, sd: norm_cdf(z))


def _mixture(m: MixtureApprox, y, kernel):
    """The weighted sum over the components of kernel(z, sd) at the
    standardized points z = (y - mean) / sd, a block of points at a time."""
    if np.any(m.variances <= 0.0):
        raise ValueError("a mixture component has nonpositive variance; "
                         "use the exact distribution instead")
    ya = np.asarray(y, dtype=float)
    sd = np.sqrt(m.variances)
    out = in_row_blocks(lambda yb: kernel((yb[:, None] - m.means) / sd, sd) @ m.weights,
                        ya.ravel(), m.weights.size)
    return float(out[0]) if ya.ndim == 0 else out.reshape(ya.shape)


def power_weight_game(n: int, a: float) -> SetFunction:
    """Symmetric game whose ordering weights are p_i = (1/n)((n-i+1)/n)^a.

    nu(S) depends on |S| only, so the induced aggregation is a linear
    combination of order statistics with generator J(u) = u^a.  Built
    directly from per-cardinality prefix sums; n beyond the enumeration cap
    is fine here since its chain table is one row.
    """
    _check_exponent(a)
    if n < 1 or n > 24:
        raise ValueError("n out of the supported range 1..24")
    steps = ((n - np.arange(1, n + 1) + 1) / n) ** a / n
    prefix = np.concatenate([[0.0], np.cumsum(steps)])
    return SetFunction(n, prefix[subset_sizes(n)])
