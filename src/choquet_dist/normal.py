"""Standard normal pdf, cdf, and a high-accuracy quantile function.

The quantile (inverse cdf) combines Acklam's rational estimate with one
Halley refinement step against an erfc-based cdf.  Work happens in the lower
half only; for p > 1/2 the complement 1-p is exact in floating point, so the
refined result keeps absolute error near machine level across
[1e-9, 1 - 1e-9], far below the 1e-12 target.
"""
from __future__ import annotations

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Acklam's rational approximation coefficients.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_TAIL = 0.02425


def _poly(coeffs, x):
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def norm_cdf(x):
    from scipy import special  # imported on first use: the other laws need no scipy
    return special.ndtr(x)


def norm_ppf(p):
    """Quantile of the standard normal; scalar in, scalar out, arrays pass through."""
    from scipy import special
    arr = np.asarray(p, dtype=float)
    scalar = arr.ndim == 0
    q = np.atleast_1d(arr).copy()
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")

    flip = q > 0.5
    q[flip] = 1.0 - q[flip]  # exact: 0.5 <= p < 1

    x = np.empty_like(q)
    tail = q < _P_TAIL
    if np.any(tail):
        u = np.sqrt(-2.0 * np.log(q[tail]))
        x[tail] = _poly(_C, u) / (_poly(_D, u) * u + 1.0)
    mid = ~tail
    if np.any(mid):
        t = q[mid] - 0.5
        r = t * t
        x[mid] = _poly(_A, r) * t / (_poly(_B, r) * r + 1.0)

    # Halley step; x <= 0 here so erfc sees a nonnegative argument and the
    # cdf value keeps full relative accuracy.
    ok = x * x < 1200.0  # exp would overflow far beyond the supported range
    e = 0.5 * special.erfc(-x[ok] / np.sqrt(2.0)) - q[ok]
    u = e * SQRT_2PI * np.exp(0.5 * x[ok] * x[ok])
    x[ok] -= u / (1.0 + 0.5 * x[ok] * u)

    x[flip] = -x[flip]
    return float(x[0]) if scalar else x.reshape(arr.shape)
