"""Standard normal pdf, cdf and quantile on numpy alone.

The cdf is 1/2 erfc(-x/sqrt 2), with erf and erfc from Cody's rational
Chebyshev approximations (Math. Comp. 23, 1969, 631-637; the CALERF set). The
quantile is Wichura's AS241 (PPND16; Appl. Statist. 37, 1988, 477-484). Both
walk their input in blocks of BLOCK elements, so that every temporary stays
small whatever the input size, and evaluate their rational functions by
Horner steps in place. Each element takes the same operations whatever block
or call holds it, so a value does not depend on the array around it.
"""
from __future__ import annotations

import math

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))
SQRT2 = math.sqrt(2.0)
# elements per block of norm_cdf and norm_ppf: 128 KiB per float64 temporary,
# within a core's cache, and long enough to spread numpy's per-call cost
BLOCK = 16384


def _rational(num, den, t):
    """num(t) / den(t) by Horner steps in place, for coefficient sequences of
    equal length, highest degree first."""
    p = num[0] * t
    q = den[0] * t
    for a, b in zip(num[1:-1], den[1:-1]):
        p += a
        p *= t
        q += b
        q *= t
    p += num[-1]
    q += den[-1]
    p /= q
    return p


# Each rational function is (numerator, denominator), coefficients highest
# degree first. Cody's numerators are halved (exactly) to give erf/2 and
# erfc/2; the leading 1 of each of his denominators is implicit in CALERF.
_halved = lambda coeffs: tuple(0.5 * c for c in coeffs)
# erf(y)/2 = y R(y^2) on |y| <= 0.5
_HALF_ERF = (_halved((1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
                      3.77485237685302021e02, 3.20937758913846947e03)),
             (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
              2.84423683343917062e03))
# exp(y^2) erfc(y)/2 = R(y) on 0.5 < y <= 4
_HALF_ERFC_MID = (_halved((2.15311535474403846e-8, 5.64188496988670089e-1,
                           8.88314979438837594e00, 6.61191906371416295e01,
                           2.98635138197400131e02, 8.81952221241769090e02,
                           1.71204761263407058e03, 2.05107837782607147e03,
                           1.23033935479799725e03)),
                  (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
                   1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
                   3.43936767414372164e03, 1.23033935480374942e03))
# exp(y^2) erfc(y)/2 = (1/sqrt(pi) - z R(z)) / (2y), z = 1/y^2, on y > 4
_HALF_ERFC_TAIL = (_halved((1.63153871373020978e-2, 3.05326634961232344e-1,
                            3.60344899949804439e-1, 1.25781726111229246e-1,
                            1.60837851487422766e-2, 6.58749161529837803e-4)),
                   (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
                    6.05183413124413191e-2, 2.33520497626869185e-3))
_HALF_INV_SQRT_PI = 0.5 * 5.6418958354775628695e-1
_ERFC_ZERO = 30.0  # erfc(y) underflows to 0 well below this y

# AS241: |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)^2, then the tails in
# r = sqrt(-log min(p, 1 - p)), shifted by 1.6 up to r = 5 and by 5 beyond
_PPF_CENTRAL = ((2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
                 4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
                 1.3314166789178437745e2, 3.3871328727963666080e0),
                (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
                 2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
                 4.2313330701600911252e1, 1.0))
_PPF_NEAR = ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
              1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
              4.6303378461565452959e0, 1.4234371107496835773e0),
             (1.05075007164441684324e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
              1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
              2.0531916266377588219e0, 1.0))
_PPF_FAR = ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
             2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
             5.4637849111641143699e0, 6.6579046435011037772e0),
            (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
             7.8686913114561325910e-4, 1.4875361290850615025e-2, 1.3692988092273580531e-1,
             5.9983220655588793769e-1, 1.0))


def _blockwise(fn, x):
    """fn of consecutive BLOCK-element slices of x, into one output of x's shape."""
    flat = x.ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, BLOCK):
        fn(flat[start:start + BLOCK], out[start:start + BLOCK])
    return out.reshape(x.shape)


def _half_erfc(a):
    """erfc(a)/2 for 0.5 < a <= inf, with exp(-a^2) taken as Cody takes it:
    exp(-m^2) exp(-(a - m)(a + m)), m = trunc(16 a)/16."""
    np.minimum(a, _ERFC_ZERO, out=a)
    r = _rational(*_HALF_ERFC_MID, a)
    big = np.flatnonzero(a > 4.0)
    if big.size:
        ab = a[big]
        z = ab * ab
        np.divide(1.0, z, out=z)
        t = _rational(*_HALF_ERFC_TAIL, z)
        t *= z
        np.subtract(_HALF_INV_SQRT_PI, t, out=t)
        t /= ab
        r[big] = t
    m = np.trunc(a * 16.0)
    m *= 0.0625
    d = m - a
    a += m
    d *= a
    np.exp(d, out=d)  # exp(-(a - m)(a + m))
    np.square(m, out=m)
    np.negative(m, out=m)
    np.exp(m, out=m)
    m *= d
    m *= r
    return m


def _cdf_block(x, out):
    a = np.abs(x)
    a /= SQRT2  # |y| for y = -x/sqrt(2), rounded as -x / sqrt(2) is
    near = np.flatnonzero(a <= 0.5)
    far = np.flatnonzero(a > 0.5)
    if near.size + far.size < a.size:
        out[np.isnan(a)] = np.nan
    if near.size:
        y = x[near]
        y /= -SQRT2
        f = _rational(*_HALF_ERF, y * y)
        f *= y
        np.subtract(0.5, f, out=f)  # erfc(y)/2 = 1/2 - erf(y)/2
        out[near] = f
    if far.size:
        e = _half_erfc(a[far])
        s = x[far]
        np.copysign(e, s, out=e)
        np.subtract(s > 0.0, e, out=e)  # erfc(-a)/2 = 1 - erfc(a)/2
        out[far] = e


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def norm_cdf(x):
    """Standard normal cdf, 1/2 erfc(-x/sqrt 2); norm_cdf(+-inf) is 1 or 0 and
    NaN stays NaN. A scalar or 0-d input gives a numpy scalar."""
    arr = np.asarray(x, dtype=float)
    return _blockwise(_cdf_block, arr)[()]


def _ppf_block(p, out):
    q = p - 0.5
    r = np.multiply(q, q)
    np.subtract(0.180625, r, out=r)
    tail = np.flatnonzero(r < 0.0)  # |q| > 0.425, and every p outside (0, 1)
    if tail.size:
        pt = p[tail]
        s = np.minimum(pt, 1.0 - pt)
        if np.fmin.reduce(s) <= 0.0:  # fmin passes over NaN
            raise ValueError("probabilities must lie strictly inside (0, 1)")
        r[tail] = 0.0  # a finite central value, replaced below
    np.multiply(_rational(*_PPF_CENTRAL, r), q, out=out)
    if tail.size:
        np.log(s, out=s)
        np.negative(s, out=s)
        np.sqrt(s, out=s)
        x = _rational(*_PPF_NEAR, s - 1.6)
        far = np.flatnonzero(s > 5.0)
        if far.size:
            x[far] = _rational(*_PPF_FAR, s[far] - 5.0)
        out[tail] = np.copysign(x, q[tail], out=x)


def norm_ppf(p):
    """Quantile of the standard normal; scalar in, scalar out, arrays pass
    through. A probability outside (0, 1) raises ValueError; NaN stays NaN."""
    arr = np.asarray(p, dtype=float)
    x = _blockwise(_ppf_block, arr)
    return float(x) if arr.ndim == 0 else x
