"""Divided differences of truncated power functions.

For knots a_0..a_n (order matters nowhere; repeats are allowed) and a shift y,
the two quantities computed here are the n-th order divided differences of

    (x - y)_+^(n-1)    and    (x - y)_-^n,

where x_+^k is x^k for x > 0 and 0 otherwise, and x_-^k is x^k for x < 0 and
0 otherwise.  Both are evaluated with the de Boor / Varsi recurrence on the
sorted knots: split them into b's (below y) and c's (at or above y), so every
denominator c_l - b_k is positive and coincident knots cost nothing.

One kernel, :func:`tp_dd_sum`, does this for a whole (k, n+1) table of knot
rows and sums the rows: the (row, y) pairs that share a split run through the
recurrence together, a block of pairs at a time.  The one-knot-vector
functions are its one-row case.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .capacity import BLOCK_ELEMENTS


def _as_knots(knots) -> np.ndarray:
    a = np.asarray(knots, dtype=float)
    if a.ndim != 1:
        raise ValueError("need a flat vector of knots")
    return a


def tp_plus_dd(knots: Sequence[float], y):
    """Divided difference of (x - y)_+^(n-1) over the n+1 given knots.

    y may be a scalar or an array of shifts.  Returns 0 when y lies outside
    the closed knot hull.  n times it is the normalized B-spline density
    with these knots.
    """
    return tp_dd_sum(_as_knots(knots)[None], y, minus=False)


def tp_minus_dd(knots: Sequence[float], y):
    """Divided difference of (x - y)_-^n over the n+1 given knots.

    y may be a scalar or an array.  Equals 0 for y at or below every knot and
    1 for y above every knot.
    """
    return tp_dd_sum(_as_knots(knots)[None], y, minus=True)


def tp_dd_sum(table, y, minus: bool):
    """Sum over the rows of a (k, n+1) knot table of the divided difference of
    (x - y)_-^n (``minus``) or (x - y)_+^(n-1), at a scalar y (giving a
    float) or an array of shifts (giving an array of their shape); a NaN
    shift gives NaN.

    Each row is sorted, the (row, y) pairs with the same number of knots
    strictly below y go through the recurrence together, and the rows are
    added into the total in table order.
    """
    ks = np.asarray(table, dtype=float)
    if ks.ndim != 2 or ks.shape[1] < 2:
        raise ValueError("need rows of at least 2 knots")
    if not np.all(np.isfinite(ks)):
        raise ValueError("knots must be finite")
    ks = np.sort(ks, axis=1)
    ya = np.asarray(y, dtype=float)
    flat = ya.ravel()
    total = np.zeros(flat.size)
    step = max(1, BLOCK_ELEMENTS // max(flat.size, 1))  # rows of one pass
    for start in range(0, len(ks), step):
        rows = ks[start:start + step]
        # knots strictly below y (a NaN y counts as above all, then gets NaN)
        counts = rows.shape[1] - np.count_nonzero(rows[:, :, None] >= flat, axis=1)
        vals = np.empty(counts.shape)
        for r in np.unique(counts):
            i, j = np.nonzero(counts == r)
            vals[i, j] = _recurrence(rows[i, :r].T, rows[i, r:].T, flat[j], minus)
        # a running sum adds the rows one by one, as a loop over them would
        total = np.cumsum(np.vstack([total, vals]), axis=0)[-1]
    total[np.isnan(flat)] = np.nan
    out = total.reshape(ya.shape)
    return float(out) if ya.ndim == 0 else out


def _recurrence(b, c, y, minus: bool):
    """The table recurrence for knots b below y and c at or above it, at an
    array of pairs that share the split: b[k] and c[j] hold the k-th b and the
    j-th c of each pair, y its shift."""
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

