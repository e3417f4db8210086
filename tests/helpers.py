"""Independent oracles used across the test suite.

Everything here is deliberately written from first principles (explicit
sorting, textbook densities, brute-force quadrature) and stays independent of
the library code paths it checks.
"""
import itertools
import math

import numpy as np
from scipy import integrate, stats


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
    """E[X_{i:n} X_{j:n}] for i <= j, standard normal, by quadrature."""
    if i == j:
        f = lambda x: x * x * os_density(i, n, x, stats.norm.cdf, stats.norm.pdf)
        return integrate.quad(f, -9, 9, limit=200, epsabs=1e-11)[0]
    c = math.factorial(n) / (math.factorial(i - 1) * math.factorial(j - i - 1)
                             * math.factorial(n - j))

    def joint(y, x):  # x < y
        Fx, Fy = stats.norm.cdf(x), stats.norm.cdf(y)
        return (x * y * c * Fx ** (i - 1) * (Fy - Fx) ** (j - i - 1)
                * (1.0 - Fy) ** (n - j) * stats.norm.pdf(x) * stats.norm.pdf(y))

    return integrate.dblquad(joint, -9, 9, lambda x: x, 9, epsabs=1e-9)[0]


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
