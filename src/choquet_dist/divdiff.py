"""Divided differences of truncated power functions, and B-splines.

For knots a_0..a_n (order matters nowhere; repeats are allowed) and a shift y,
the two quantities computed here are the n-th order divided differences of

    (x - y)_+^(n-1)    and    (x - y)_-^n,

where x_+^k is x^k for x > 0 and 0 otherwise, and x_-^k is x^k for x < 0 and
0 otherwise.  Both are evaluated with the de Boor / Varsi recurrence: split
the knots into b's (below y) and c's (at or above y), so every denominator
c_l - b_k is positive and coincident knots cost nothing.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_knots(knots) -> np.ndarray:
    a = np.asarray(knots, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("need a flat vector of at least 2 knots")
    if not np.all(np.isfinite(a)):
        raise ValueError("knots must be finite")
    return a


def tp_plus_dd(knots: Sequence[float], y):
    """Divided difference of (x - y)_+^(n-1) over the n+1 given knots.

    y may be a scalar or an array of shifts.  Returns 0 when y lies outside
    the closed knot hull.
    """
    return _divdiff(knots, y, minus=False)


def tp_minus_dd(knots: Sequence[float], y):
    """Divided difference of (x - y)_-^n over the n+1 given knots.

    y may be a scalar or an array.  Equals 0 for y at or below every knot and
    1 for y above every knot.
    """
    return _divdiff(knots, y, minus=True)


def _divdiff(knots, y, minus: bool):
    a = _as_knots(knots)
    if np.isscalar(y) or np.ndim(y) == 0:
        y = float(y)
        below = a < y
        # plain floats: the recurrence runs far faster on them than on numpy scalars
        return _recurrence(a[below].tolist(), a[~below].tolist(), y, minus)
    return _dd_grid(a, np.asarray(y, dtype=float), minus)


def _recurrence(b, c, y, minus: bool):
    """The table recurrence for knots b below y and c at or above it, at one
    float y or at an array of y that share the split."""
    r, s = len(b), len(c)
    if r == 0:
        return 0.0
    if s == 0:
        return 1.0 if minus else 0.0
    zero = 0.0 * y
    # flat length-(s+1) table; entry j holds alpha_{k,j} for the current row k
    A = [zero] * (s + 1)
    if minus:
        A[0] = zero + 1.0
        first = 1
    else:
        A[1] = zero + 1.0 / (c[0] - b[0])
        for j in range(2, s + 1):
            A[j] = (y - b[0]) * A[j - 1] / (c[j - 1] - b[0])
        first = 2
    for k in range(first, r + 1):
        bk = b[k - 1]
        for j in range(1, s + 1):
            A[j] = ((c[j - 1] - y) * A[j] + (y - bk) * A[j - 1]) / (c[j - 1] - bk)
    return A[s]


def _dd_grid(knots: np.ndarray, ys: np.ndarray, minus: bool) -> np.ndarray:
    """Vectorized recurrence over a vector of shifts.

    All y falling between the same pair of sorted knots share one b/c split,
    so the table updates run on whole buckets at once.
    """
    ks = np.sort(knots)
    flat = ys.ravel()
    out = np.empty(flat.shape)
    counts = np.searchsorted(ks, flat, side="left")  # knots strictly below y
    for r in np.unique(counts):
        sel = counts == r
        out[sel] = _recurrence(ks[:r], ks[r:], flat[sel], minus)
    return out.reshape(ys.shape)


def bspline(knots: Sequence[float], t):
    """Normalized B-spline density with the given n+1 knots, evaluated at t.

    Nonnegative, supported on the knot hull, and integrating to 1.  t may be
    a scalar or an array.
    """
    a = _as_knots(knots)
    n = a.size - 1
    return n * tp_plus_dd(a, t)
