"""Independent oracles used across the test suite.

Everything here is deliberately written from first principles (explicit
sorting, textbook densities, brute-force quadrature) and stays independent of
the library code paths it checks.
"""
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, stats

from choquet_dist.capacity import chain_table
from choquet_dist.exponential import C_DISTINCT_RTOL, RegularityError
from choquet_dist.normal import norm_cdf, norm_pdf


def brute_choquet(values_by_subset: dict, x) -> float:
    """Direct sort-and-weight evaluation from the definition.

    values_by_subset maps frozensets to nu values; x is indexed from 0.
    """
    n = len(x)
    order = sorted(range(1, n + 1), key=lambda i: -x[i - 1])
    total = 0.0
    prev = 0.0
    cur = frozenset()
    for k in order:
        cur = cur | {k}
        val = values_by_subset[cur]
        total += (val - prev) * x[k - 1]
        prev = val
    return total


def os_density(i: int, n: int, x, cdf, pdf):
    """Density of the i-th order statistic of n iid draws."""
    F = cdf(x)
    c = math.factorial(n) / (math.factorial(i - 1) * math.factorial(n - i))
    return c * F ** (i - 1) * (1.0 - F) ** (n - i) * pdf(x)


def normal_os_mean_quad(i: int, n: int) -> float:
    """E[X_{i:n}] for standard normal inputs by adaptive quadrature on |x|<=9."""
    f = lambda x: x * os_density(i, n, x, stats.norm.cdf, stats.norm.pdf)
    return integrate.quad(f, -9, 9, limit=200, epsabs=1e-11)[0]


def normal_os_product_quad(i: int, j: int, n: int) -> float:
    """E[X_{i:n} X_{j:n}] for i <= j, standard normal, by quadrature.

    For i < j the factor (F(y) - F(x))^(j-i-1) of the joint density is
    expanded binomially, so each term is a cumulative integral in x times a
    function of y, integrated once more in y: composite Simpson on one fixed
    grid of |x| <= 9, vectorized throughout.
    """
    if i == j:
        f = lambda x: x * x * os_density(i, n, x, stats.norm.cdf, stats.norm.pdf)
        return integrate.quad(f, -9, 9, limit=200, epsabs=1e-11)[0]
    c = math.factorial(n) / (math.factorial(i - 1) * math.factorial(j - i - 1)
                             * math.factorial(n - j))
    x = np.linspace(-9.0, 9.0, 8001)
    F, f = stats.norm.cdf(x), stats.norm.pdf(x)
    m = j - i - 1
    total = 0.0
    for k in range(m + 1):
        lower = integrate.cumulative_simpson(x * F ** (i - 1 + k) * f, x=x, initial=0.0)
        upper = x * F ** (m - k) * (1.0 - F) ** (n - j) * f
        total += math.comb(m, k) * (-1) ** k * integrate.simpson(upper * lower, x=x)
    return c * total


def random_distinct_knots(rng, n: int, min_gap: float = 1e-3) -> np.ndarray:
    """n+1 knots with pairwise gaps above min_gap (keeps the rational formula
    well conditioned, which is the point of comparing against it)."""
    while True:
        k = np.sort(rng.normal(scale=2.0, size=n + 1))
        if np.min(np.diff(k)) > min_gap:
            return rng.permutation(k)


def plus_full_degree_recurrence(knots, y: float) -> float:
    """Independent recurrence for the divided difference of (x-y)_+^n.

    Mirror image of the package's minus variant (initial row 1 on the c side
    instead of the b side); written separately so the plus/minus complement
    identity can be checked without the ill-conditioned rational formula.
    """
    b = [t for t in knots if t < y]
    c = [t for t in knots if t >= y]
    r, s = len(b), len(c)
    if s == 0:
        return 0.0
    if r == 0:
        return 1.0
    A = [1.0] * (s + 1)
    A[0] = 0.0
    for k in range(1, r + 1):
        bk = b[k - 1]
        for j in range(1, s + 1):
            A[j] = ((c[j - 1] - y) * A[j] + (y - bk) * A[j - 1]) / (c[j - 1] - bk)
    return A[s]


def rational_dd_with_scale(knots, y: float, variant: str, degree: int):
    """Rational-formula divided difference plus its conditioning scale.

    The scale (sum of absolute terms) bounds the cancellation noise of the
    formula itself; agreement with the recurrence can only be expected
    relative to it.
    """
    knots = np.asarray(knots, dtype=float)
    total = 0.0
    scale = 0.0
    for i, ai in enumerate(knots):
        x = ai - y
        if variant == "plus":
            g = x ** degree if x > 0 else 0.0
        else:
            g = x ** degree if x < 0 else 0.0
        denom = np.prod([ai - aj for j, aj in enumerate(knots) if j != i])
        total += g / denom
        scale += abs(g / denom)
    return total, scale


def game_kinds(n: int, rng) -> dict:
    """Value arrays (indexed by mask, entry 0 = 0) of five kinds of game on n
    attributes: generic, signed, tied (rounded to quarters), symmetric and zero."""
    sizes = np.array([bin(m).count("1") for m in range(1 << n)])
    generic = rng.random(1 << n)
    generic[0] = 0.0
    signed = rng.normal(size=1 << n)
    signed[0] = 0.0
    level = np.concatenate([[0.0], rng.random(n)])
    return {"generic": generic, "signed": signed, "tied": np.round(generic * 4.0) / 4.0,
            "symmetric": level[sizes], "zero": np.zeros(1 << n)}


def brute_nested_pairs(g) -> np.ndarray:
    """P[s, t] = sum of nu(T1) nu(T2) over strict nestings T1 < T2 with
    |T1| = s, |T2| = t, by walking the proper submasks of every mask (3^n)."""
    n = g.n
    vals = g.values
    P = np.zeros((n + 1, n + 1))
    for m2 in range(1, 1 << n):
        v2 = vals[m2]
        if v2 == 0.0:
            continue
        t = m2.bit_count()
        sub = (m2 - 1) & m2
        while sub:
            P[sub.bit_count(), t] += vals[sub] * v2
            sub = (sub - 1) & m2
    return P


def exact_spacing_moments(g, e1, e2) -> tuple[Fraction, Fraction]:
    """E[Y] and Var[Y] in rational arithmetic from the spacing moments
    E[D_t] = e1(t) and E[D_s D_t] = e2(s, t), the game's floats taken
    exactly; every nested pair T1 <= T2 is walked by submasks with the
    weight 1/(C(|T2|,|T1|) C(n,|T2|))."""
    n = g.n
    vals = [Fraction(v) for v in g.values.tolist()]
    first = sum(vals[m] * e1(m.bit_count()) / math.comb(n, m.bit_count())
                for m in range(1, 1 << n))
    by_sizes: dict[tuple[int, int], Fraction] = {}
    for m2 in range(1, 1 << n):
        sub = m2
        while sub:
            key = (sub.bit_count(), m2.bit_count())
            by_sizes[key] = by_sizes.get(key, 0) + vals[sub] * vals[m2]
            sub = (sub - 1) & m2
    # the pair's multiplicity is 2 when T1 < T2
    second = sum(total * (2 if s < t else 1) * e2(s, t) / (math.comb(t, s) * math.comb(n, t))
                 for (s, t), total in by_sizes.items())
    return first, second - first * first


def exact_uniform_moments(g) -> tuple[Fraction, Fraction]:
    """E[Y] and Var[Y] under uniform inputs in rational arithmetic: the
    spacings have E[D_t] = 1/(n+1) and E[D_s D_t] = (1 + [s = t])/((n+1)(n+2))."""
    n = g.n
    return exact_spacing_moments(g, lambda t: Fraction(1, n + 1),
                                 lambda s, t: Fraction(1 + (s == t), (n + 1) * (n + 2)))


def exact_exponential_moments(g) -> tuple[Fraction, Fraction]:
    """E[Y] and Var[Y] under exponential inputs in rational arithmetic: the
    spacings are independent with rates t (Renyi), so E[D_t] = 1/t and
    E[D_s D_t] = (1 + [s = t])/(st)."""
    return exact_spacing_moments(g, lambda t: Fraction(1, t),
                                 lambda s, t: Fraction(1 + (s == t), s * t))


def brute_raw_moment(g, r: int) -> float:
    """E[Y^r] under uniform inputs by enumerating the (r+1)^n maps from
    attributes to entry levels 1..r+1; each encodes one chain T_1 <= ... <= T_r
    (attribute j belongs to T_i iff its level is <= i)."""
    n = g.n
    vals = g.values
    full = (1 << n) - 1
    total = 0.0
    for levels in itertools.product(range(1, r + 2), repeat=n):
        bits_at = [0] * (r + 2)
        for j, lv in enumerate(levels):
            bits_at[lv] |= 1 << j
        masks = list(itertools.accumulate(bits_at[1:r + 1], lambda a, b: a | b)) + [full]
        term = 1.0
        for lo, hi in zip(masks, masks[1:]):
            term *= vals[lo] / math.comb(hi.bit_count(), lo.bit_count())
        total += term
    return total / math.comb(n + r, r)


def brute_random_capacity(raw: np.ndarray) -> np.ndarray:
    """Running maximum of the scores over the subset lattice, mask by mask,
    normalized to nu(N) = 1: the values random_capacity draws from raw."""
    size = len(raw)
    vals = np.zeros(size)
    for mask in range(1, size):
        best = raw[mask]
        m = mask
        while m:
            bit = m & -m
            best = max(best, vals[mask ^ bit])
            m ^= bit
        vals[mask] = best
    vals /= vals[-1]
    vals[0] = 0.0
    return vals


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


def dd_generic(f, knots) -> float:
    """Divided difference of an arbitrary function at pairwise distinct knots
    by the rational formula sum_i f(a_i) / prod_{j != i} (a_i - a_j)."""
    a = np.asarray(knots, dtype=float)
    if np.min(np.diff(np.sort(a))) <= 1e-10:
        raise ValueError("knots are not pairwise distinct (gap <= 1e-10)")
    diffs = np.subtract.outer(a, a)
    np.fill_diagonal(diffs, 1.0)
    denoms = np.prod(diffs, axis=1)
    return float(sum(f(float(ai)) / d for ai, d in zip(a, denoms)))


def tp_dd_distinct(knots, y: float, variant: str = "plus", degree=None) -> float:
    """Rational-formula divided difference of (x-y)_+^degree ("plus") or
    (x-y)_-^degree ("minus") at distinct knots; degree defaults to n-1 for
    plus and n for minus, the degrees of the package's recurrences."""
    n = len(knots) - 1
    if degree is None:
        degree = n - 1 if variant == "plus" else n
    if variant == "plus":
        return dd_generic(lambda x: (x - y) ** degree if x > y else 0.0, knots)
    return dd_generic(lambda x: (x - y) ** degree if x < y else 0.0, knots)


def expect_gn(dist, f) -> float:
    """Sum over the chain table of a UniformChoquetDist's game of the divided
    difference of f at the chain knots; equals E[f^(n)(Y)] when every chain
    has distinct knots (f is the order-n antiderivative of the function whose
    expectation is wanted, and each ordering contributes n! times its
    region's share)."""
    total = 0.0
    for sigma, knots in zip(*chain_table(dist.game)):
        if np.min(np.diff(np.sort(knots))) <= 1e-12:
            raise ValueError(f"chain of sigma={tuple(sigma)} has repeated values")
        total += dd_generic(f, knots)
    return total


@functools.lru_cache(maxsize=8)
def os_table(stats) -> tuple[np.ndarray, np.ndarray]:
    """E[X_{i:n}] at [i-1] and E[X_{i:n} X_{j:n}] at [i-1, j-1] of a record,
    one accessor call per order statistic and per pair i <= j, tabulated
    once per record (records hash by identity)."""
    n = stats.n
    mu = np.array([stats.mean(i) for i in range(1, n + 1)])
    M = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            M[i - 1, j - 1] = M[j - 1, i - 1] = stats.product(i, j)
    return mu, M


def component_stats(weights, stats) -> tuple[float, float]:
    """Mean and variance of sum_i p_i X_{n-i+1:n}, term by term over the
    accessor values of ``os_table``."""
    n = len(weights)
    mu, M = os_table(stats)
    mean = sum(weights[i - 1] * mu[n - i] for i in range(1, n + 1))
    second = 0.0
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            second += weights[i - 1] * weights[k - 1] * M[n - i, n - k]
    return mean, second - mean * mean


def spacing_moments(g, stats) -> tuple[float, float]:
    """(E[Y], E[Y^2]) from the spacings D_t = X_{n-t+1:n} - X_{n-t:n}
    expanded term by term into order-statistic accessor calls, with the
    nested pairs summed by walking submasks."""
    n = g.n

    def mu(i):
        return stats.mean(i) if i >= 1 else 0.0

    def pair(i, j):
        return stats.product(min(i, j), max(i, j)) if i >= 1 and j >= 1 else 0.0

    def d2(s, t):
        a, b, c, d = n - s + 1, n - s, n - t + 1, n - t
        return pair(a, c) - pair(a, d) - pair(b, c) + pair(b, d)

    lev = g.level_sums()
    first = sum(lev[t] / math.comb(n, t) * (mu(n - t + 1) - mu(n - t))
                for t in range(1, n + 1))
    P = brute_nested_pairs(g)
    sq = np.bincount([m.bit_count() for m in range(1 << n)], weights=g.values ** 2,
                     minlength=n + 1)
    second = 0.0
    for s in range(1, n + 1):
        for t in range(s, n + 1):
            w = 2.0 * P[s, t] if s < t else sq[t]
            second += w / (math.comb(t, s) * math.comb(n, t)) * d2(s, t)
    return first, second


# ---------------------------------------------------------------------------
# per-chain routes: one permutation, one chain and one scalar at a time
# ---------------------------------------------------------------------------

def chain_walk(g) -> list:
    """(sigma, nu_chain) of every permutation of 1..n in lexicographic order,
    the prefix masks built one attribute at a time."""
    out = []
    for sigma in itertools.permutations(range(1, g.n + 1)):
        nu_chain = np.zeros(g.n + 1)
        m = 0
        for i, k in enumerate(sigma, start=1):
            m |= 1 << (k - 1)
            nu_chain[i] = g.values[m]
        out.append((sigma, nu_chain))
    return out


def table_walk(g) -> list:
    """The chains a chain table holds: every ordering's, or only the identity
    ordering's for a symmetric game, whose orderings all share one chain."""
    walk = chain_walk(g)
    return walk[:1] if g.is_symmetric() else walk


def walk_chain_coeffs(nu_chain):
    """Scales c_i = nu_i / i of one chain and its first problem (None when the
    chain is regular), the pairs scanned in lexicographic order."""
    n = len(nu_chain) - 1
    c = nu_chain[1:] / np.arange(1, n + 1)
    if np.any(c <= 0.0):
        i = int(np.argmin(c)) + 1
        return c, f"c_{i} = {c[i - 1]:g} is not positive"
    for i in range(n):
        for k in range(i + 1, n):
            if abs(c[i] - c[k]) <= C_DISTINCT_RTOL * max(abs(c[i]), abs(c[k])):
                return c, f"c_{i + 1} and c_{k + 1} coincide at {c[i]:g}"
    return c, None


def walk_is_regular(g) -> bool:
    return all(walk_chain_coeffs(nu_chain)[1] is None for _, nu_chain in chain_walk(g))


def walk_exponential(g) -> tuple[np.ndarray, np.ndarray]:
    """(scales, weights) of the exponential law: the partial-fraction weights
    of every chain of the table collected by scale in a dict, in chain order,
    pooled by math.fsum and averaged over the chains; raises RegularityError
    at the first irregular chain."""
    n = g.n
    walk = table_walk(g)
    pooled: dict[float, list[float]] = {}
    for sigma, nu_chain in walk:
        c, problem = walk_chain_coeffs(nu_chain)
        if problem:
            raise RegularityError(
                f"chain of sigma={sigma}: {problem}; the exponential "
                "closed form does not apply (perturb nu or use Monte Carlo)")
        for i in range(n):
            denom = 1.0
            for k in range(n):
                if k != i:
                    denom *= c[i] - c[k]
            w = c[i] ** (n - 2) / denom
            pooled.setdefault(float(c[i]), []).append(w)
    scales = np.array(sorted(pooled))
    return scales, np.array([math.fsum(pooled[s]) for s in scales]) / len(walk)


def walk_mixture(g, stats) -> tuple[np.ndarray, np.ndarray]:
    """(means, variances) of the per-ordering components, the weight matrix
    stacked chain by chain (only the identity chain for a symmetric game)
    against the accessor values of ``os_table``."""
    W = np.array([np.diff(nu_chain)[::-1] for _, nu_chain in table_walk(g)])
    mu, M = os_table(stats)
    means = W @ mu
    second = np.einsum("ki,ij,kj->k", W, M, W)
    return means, second - means * means


def dd_recurrence(knots, y: float, minus: bool) -> float:
    """De Boor / Varsi recurrence for the divided difference of (x-y)_+^(n-1)
    or (x-y)_-^n at one y, on the knots in the order given."""
    b = [t for t in knots if t < y]
    c = [t for t in knots if t >= y]
    r, s = len(b), len(c)
    if r == 0:
        return 0.0
    if s == 0:
        return 1.0 if minus else 0.0
    A = [0.0] * (s + 1)
    if minus:
        A[0] = 1.0
    else:
        A[1] = 1.0 / (c[0] - b[0])
        for j in range(2, s + 1):
            A[j] = (y - b[0]) * A[j - 1] / (c[j - 1] - b[0])
    for k in range(1 if minus else 2, r + 1):
        bk = b[k - 1]
        for j in range(1, s + 1):
            A[j] = ((c[j - 1] - y) * A[j] + (y - bk) * A[j - 1]) / (c[j - 1] - bk)
    return A[s]


# ---------------------------------------------------------------------------
# one-shot evaluators: each per-point evaluator as a single (points x width)
# product, with the library's own elementwise kernels; the row-blocked
# library paths must reproduce these
# ---------------------------------------------------------------------------

def one_shot_mixture(m, y, pdf: bool) -> np.ndarray:
    """Normal-mixture pdf or cdf at the 1-D points y."""
    sd = np.sqrt(m.variances)
    z = (y[:, None] - m.means) / sd
    return (norm_pdf(z) / sd if pdf else norm_cdf(z)) @ m.weights


def one_shot_exponential(dist, y, cdf: bool) -> np.ndarray:
    """Exponential-law pdf or cdf at the 1-D points y from its partial fractions."""
    decay = np.exp(-np.divide.outer(np.maximum(y, 0.0), dist.scales))
    out = (1.0 - decay) @ (dist.weights * dist.scales) if cdf else decay @ dist.weights
    return np.where(y < 0.0, 0.0, out)


def one_shot_choquet_values(g, x) -> np.ndarray:
    """Choquet integral of every row of the (m, n) matrix x."""
    order = np.argsort(-x, axis=1, kind="stable")
    masks = np.cumsum(1 << order.astype(np.int64), axis=1)
    weights = np.diff(g.values[masks], axis=1, prepend=0.0)
    return np.einsum("ij,ij->i", weights, np.take_along_axis(x, order, axis=1))


def full_ks_statistic(samples, cdf) -> float:
    """Kolmogorov distance with the cdf evaluated at every sorted draw: the
    reference for the bracketed search in ``montecarlo.ks_statistic``."""
    xs = np.sort(np.asarray(samples, dtype=float))
    m = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    steps = np.arange(1, m + 1) / m
    d_plus = np.max(steps - f)
    d_minus = np.max(f - (steps - 1.0 / m))
    return float(max(d_plus, d_minus))
