"""Standard normal pdf, cdf and quantile: the last two are scipy's ``ndtr`` and
``ndtri``, imported on first use so that the other laws need no scipy."""
from __future__ import annotations

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def norm_cdf(x):
    from scipy import special
    return special.ndtr(x)


def norm_ppf(p):
    """Quantile of the standard normal; scalar in, scalar out, arrays pass through."""
    from scipy import special
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    x = special.ndtri(arr)
    return float(x) if arr.ndim == 0 else x
