"""The benchmark's workloads: seeded inputs, operation lists and correctness gates.

Every workload runs as a closed loop with one caller: one operation at a time,
each pass on fresh inputs drawn from ``np.random.default_rng([seed, pass])``.
Only the calls into choquet_dist are timed; input generation and the gates
run between them.  A gate compares an output with values stored from a
reference run (``reference.json``) or with an independent computation kept
in this file; a mismatch or an exception counts as a failed operation.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import choquet_dist as cd

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REF_SEED = 20081104  # seed of the fixed warm-up inputs whose outputs are stored
REF_RTOL = 1e-9
ROUNDING_SLACK = 64.0  # allowed multiple of the floating-point error bound of a sum
SIMPSON_SLACK = 4.0  # allowed multiple of the Simpson step bound (see ``simpson``)
FAILED = object()  # output of an operation that raised, and of those fed by it

LAWS = ("uniform", "exponential", "normal")
GRID_U = np.linspace(0.0, 1.0, 201)  # uniform-law support is [0, 1]
GRID_E = np.linspace(0.0, 10.0, 201)  # every exponential scale is <= 1


class CheckError(Exception):
    """An output disagrees with its reference."""


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def popcount(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)


def generic(n: int, rng: np.random.Generator) -> cd.SetFunction:
    """Random capacity with the law of ``random_capacity``: nu(T) is the largest
    of iid uniform scores over the nonempty subsets of T, normalized."""
    v = rng.random(1 << n)
    v[0] = 0.0
    for i in range(n):
        t = v.reshape(-1, 2, 1 << i)
        np.maximum(t[:, 1], t[:, 0], out=t[:, 1])
    return cd.SetFunction(n, v / v[-1])


def tied(g: cd.SetFunction) -> cd.SetFunction:
    """Generic capacity rounded to quarters: many coincident chain knots."""
    return cd.SetFunction(g.n, np.round(g.values * 4.0) / 4.0)


def write_capacity(g: cd.SetFunction, path: Path) -> None:
    """Capacity JSON as the CLI reads it (float repr round-trips exactly)."""
    values = {",".join(str(i + 1) for i in range(g.n) if m >> i & 1): float(g.values[m])
              for m in range(1, 1 << g.n)}
    path.write_text(json.dumps({"n": g.n, "values": values}))


# ---------------------------------------------------------------------------
# running and gating operations
# ---------------------------------------------------------------------------

class Ops:
    """Runs operations one at a time, times each call and gates its output.

    The speed sampler runs during each call; its handler time is taken out
    of the call's time."""

    def __init__(self, sampler, tracer=None):
        self.sampler = sampler
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.times: list[float] = []  # seconds of each call in the current pass

    def run(self, label, fn, *args, check=None, sampled=True):
        """Run fn(*args) as one timed operation.  ``sampled=False`` is for
        calls whose work runs in a child process that samples itself."""
        self.attempted += 1
        if any(a is FAILED for a in args):
            self.failures.append((label, "skipped: an input came from a failed operation"))
            self.times.append(0.0)
            return FAILED
        if self.tracer is not None:
            self.tracer.active = True
        spent = self.sampler.spent_s
        t0 = time.perf_counter()
        try:
            with self.sampler if sampled else contextlib.nullcontext():
                out = fn(*args)
        except Exception as exc:  # an operation that raises is counted, not fatal
            out = FAILED
            self.failures.append((label, f"raised {type(exc).__name__}: {exc}"))
        finally:
            self.times.append(time.perf_counter() - t0 - (self.sampler.spent_s - spent))
            if self.tracer is not None:
                self.tracer.active = False
        if out is not FAILED and check is not None:
            try:
                check(out)
            except Exception as exc:  # includes CheckError and errors inside the gate
                self.failures.append((label, f"{type(exc).__name__}: {exc}"))
        return out


def close(what, got, want, rtol=REF_RTOL, atol=0.0) -> None:
    """Raise CheckError unless |got - want| <= rtol * max|want| + atol everywhere;
    ``atol`` may hold one bound per point."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    tol = rtol * float(np.max(np.abs(want), initial=0.0)) + np.broadcast_to(atol, err.shape)
    if not np.all(err <= tol):
        i = int(np.argmax(np.where(err <= tol, -np.inf, err - tol)))
        raise CheckError(f"{what}: off by {err.flat[i]:.3g} > {tol.flat[i]:.3g}")


def require(cond, what: str) -> None:
    if not cond:
        raise CheckError(what)


class Reference:
    """Gates against stored outputs; with nothing stored it records them."""

    def __init__(self, stored: dict | None):
        self.stored = stored
        self.recorded: dict[str, list] = {}

    def gate(self, key, extract=lambda out: out):
        def check(out):
            val = np.asarray(extract(out), dtype=float)
            if self.stored is None:
                self.recorded[key] = val.tolist()
            else:
                close(f"stored {key}", val, self.stored[key])
        return check


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def ranked_zeta(f: np.ndarray, n: int) -> np.ndarray:
    """z[k, T] = sum of f[S] over the subsets S of T with |S| = k."""
    z = np.zeros((n + 1, 1 << n))
    z[popcount(n), np.arange(1 << n)] = f
    for i in range(n):
        t = z.reshape(n + 1, -1, 2, 1 << i)
        t[:, :, 1] += t[:, :, 0]
    return z


def nested_pairs(g: cd.SetFunction) -> np.ndarray:
    """P[s, t] = sum of nu(S) nu(T) over S strictly inside T, |S| = s, |T| = t."""
    n = g.n
    sizes = popcount(n)
    by_size = np.zeros((1 << n, n + 1))
    by_size[np.arange(1 << n), sizes] = g.values
    return np.triu(ranked_zeta(g.values, n) @ by_size, k=1)


def uniform_raw_moment(g: cd.SetFunction, r: int) -> float:
    """E[Y^r] under uniform inputs as r chained ranked zeta transforms over
    the chains T_1 <= ... <= T_r <= N (same sum as ``raw_moment``)."""
    n = g.n
    sizes = popcount(n)
    inv_binom = np.array([[1.0 / math.comb(t, k) if k <= t else 0.0 for t in range(n + 1)]
                          for k in range(n + 1)])
    f = g.values.copy()
    for _ in range(r - 1):
        f = g.values * np.sum(ranked_zeta(f, n) * inv_binom[:, sizes], axis=0)
    return float(np.sum(f * inv_binom[sizes, n])) / math.comb(n + r, r)


def spacing_moments(g: cd.SetFunction, provider) -> tuple[float, float]:
    """(E[Y], E[Y^2]) from order-statistic spacings, with the nested-pair sums
    taken from ``nested_pairs`` instead of the library."""
    n = g.n
    sizes = popcount(n)
    mu = np.array([0.0] + [provider.mean(i) for i in range(1, n + 1)])
    m = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            m[i, j] = m[j, i] = provider.product(i, j)
    t = np.arange(1, n + 1)
    hi, lo = n - t + 1, n - t
    d1 = mu[hi] - mu[lo]
    d2 = (m[np.ix_(hi, hi)] - m[np.ix_(hi, lo)] - m[np.ix_(lo, hi)] + m[np.ix_(lo, lo)])
    binom_n = np.array([math.comb(n, k) for k in t])
    lev = np.bincount(sizes, weights=g.values, minlength=n + 1)[1:]
    sq = np.bincount(sizes, weights=g.values ** 2, minlength=n + 1)[1:]
    pairs = nested_pairs(g)[1:, 1:]
    binom_ts = np.array([[math.comb(b, a) or 1 for b in t] for a in t], dtype=float)
    first = float(np.sum(lev / binom_n * d1))
    second = float(np.sum(2.0 * pairs / (binom_ts * binom_n[None, :]) * d2)
                   + np.sum(sq / binom_n * np.diag(d2)))
    return first, second


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def ndtr(x) -> np.ndarray:
    """Standard normal cdf from math.erfc, so that the benchmark itself
    imports nothing the library might load lazily."""
    return 0.5 * _ERFC(-np.asarray(x, dtype=float) / math.sqrt(2.0)).astype(float)


def simpson(f: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative Simpson integral of grid values f (odd length, step h) at the
    even grid points, and its step error bound.

    The bound is the running sum over panels of h/6 |f0 - 2 f1 + f2|, the
    difference between Simpson's and the trapezoid rule on the panel.  A
    panel with a kink inside has a Simpson error of at most that difference;
    one whose end point holds the zero side of a jump (a density evaluated at
    the end of its support) has twice it; on a smooth panel the error is
    O(h^5) against the difference's O(h^3).  Gates allow SIMPSON_SLACK times it."""
    f0, f1, f2 = f[0:-1:2], f[1::2], f[2::2]
    integral = np.concatenate([[0.0], np.cumsum(h / 3.0 * (f0 + 4.0 * f1 + f2))])
    bound = np.concatenate([[0.0], np.cumsum(h / 6.0 * np.abs(f0 - 2.0 * f1 + f2))])
    return integral, bound


def normal_limits(a: float) -> tuple[float, float]:
    """alpha and beta^2 of J(u) = u^a under the standard normal law, in the
    x = G(u) variable on a fine trapezoid grid (G' du = dx there)."""
    x = np.linspace(-9.0, 9.0, 72001)
    F = ndtr(x)
    J = F ** a
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    alpha = np.trapezoid(J * x * phi, x)
    inner_f = J * F
    inner = np.concatenate([[0.0], np.cumsum((inner_f[1:] + inner_f[:-1]) * 0.5 * np.diff(x))])
    beta2 = 2.0 * np.trapezoid(J * (1.0 - F) * inner, x)
    return float(alpha), float(beta2)


def is_capacity(g: cd.SetFunction) -> bool:
    v = g.values
    for i in range(g.n):
        t = v.reshape(-1, 2, 1 << i)
        if np.any(t[:, 1] - t[:, 0] < -1e-12):
            return False
    return abs(v[-1] - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def check_uniform_pdf(g, ys, pdf) -> None:
    """Mass, mean and second moment of the density grid against 1 and the
    closed forms, by Simpson's rule within SIMPSON_SLACK times its step bound."""
    require(np.all(pdf >= -1e-9), "negative density")
    for what, weight, want in (("mass", 1.0, 1.0), ("mean", ys, cd.closed_form_mean(g)),
                               ("second moment", ys * ys, cd.closed_form_second_moment(g))):
        integral, bound = simpson(weight * pdf, ys[1] - ys[0])
        close(f"pdf grid {what}", integral[-1], want, rtol=0.0, atol=SIMPSON_SLACK * bound[-1])


def check_uniform_cdf(g, ys, pdf, cdf) -> None:
    """Grid mean and second moment against the closed forms, and the cdf
    against the running integral of the density grid.  The trapezoid rule
    (step h = 0.005) is off by about h^2/12 times the change of the
    integrand's slope over [0, 1], under 3e-5 for a density below 5; the
    tolerance is 1e-4."""
    close("cdf at the support ends", cdf[[0, -1]], [0.0, 1.0], atol=1e-12)
    close("grid mean from the cdf", np.trapezoid(1.0 - cdf, ys), cd.closed_form_mean(g),
          rtol=0.0, atol=1e-4)
    close("grid second moment from the cdf", 2.0 * np.trapezoid(ys * (1.0 - cdf), ys),
          cd.closed_form_second_moment(g), rtol=0.0, atol=1e-4)
    check_pdf_vs_cdf(ys, pdf, cdf)


def check_pdf_vs_cdf(ys, pdf, cdf, atol=0.0) -> None:
    """The cdf at the even grid points against the running Simpson integral of
    the density grid, within SIMPSON_SLACK times its step bound plus ``atol``.
    Nothing to compare when the pdf operation failed (counted there)."""
    if pdf is FAILED:
        return
    integral, bound = simpson(pdf, ys[1] - ys[0])
    close("running integral of the pdf", integral, cdf[::2], rtol=0.0,
          atol=SIMPSON_SLACK * bound + atol)


def _rounding(x):
    return ROUNDING_SLACK * np.finfo(float).eps * x


def check_exponential_pdf(g, dist, ys, pdf) -> None:
    """Weights and scales against exp_moments, the density grid against the
    mixture sum of weights times exp(-y / scale).

    Near-tied scales give huge weights of both signs, so a sum over the
    mixture is only good to about eps * (the same sum with |weights|); each
    tolerance is that rounding bound times ROUNDING_SLACK.  Along each chain
    the Choquet integral of iid exponentials is a sum of n >= 2 independent
    exponentials with positive scales, so the density is 0 at y = 0."""
    mean, sd = cd.exp_moments(g)
    w, s = dist.weights, dist.scales
    aw = np.abs(w)
    close("mixture mass", w @ s, 1.0, rtol=0.0, atol=_rounding(aw @ s))
    close("mixture mean", w @ s ** 2, mean, rtol=1e-9, atol=_rounding(aw @ s ** 2))
    close("mixture second moment", 2.0 * w @ s ** 3, sd * sd + mean * mean, rtol=1e-9,
          atol=_rounding(2.0 * aw @ s ** 3))
    decay = np.exp(-np.divide.outer(ys, s))
    close("density", pdf, decay @ w, rtol=0.0, atol=_rounding(decay @ aw))
    require(ys[0] == 0.0, "grid does not start at 0")
    close("density at 0", pdf[0], 0.0, rtol=0.0, atol=_rounding(aw.sum()))
    require(np.all(pdf >= -_rounding(decay @ aw)), "negative density beyond rounding")


def check_exponential_cdf(g, dist, ys, pdf, cdf) -> None:
    """The cdf grid against the mixture sum, its grid mean against exp_moments
    (trapezoid, step 0.05, truncated at y = 10: tolerance 2e-3) and against
    the running integral of the density grid."""
    w, s = dist.weights, dist.scales
    aw_s = np.abs(w) @ s
    decay = np.exp(-np.divide.outer(ys, s))
    close("cdf", cdf, (1.0 - decay) @ (w * s), rtol=0.0, atol=_rounding(aw_s))
    require(np.all(np.diff(cdf) >= -2.0 * _rounding(aw_s)), "decreasing cdf beyond rounding")
    close("grid mean", np.trapezoid(1.0 - cdf, ys), cd.exp_moments(g)[0], rtol=0.0, atol=2e-3)
    check_pdf_vs_cdf(ys, pdf, cdf, atol=2.0 * _rounding(aw_s))


def check_uniform_mixture(g, mix) -> None:
    """Equal-weight components reproduce the exact first two moments."""
    require(mix.weights.size == math.factorial(g.n), "component count is not n!")
    close("mixture mean", mix.weights @ mix.means, cd.closed_form_mean(g))
    close("mixture second moment", mix.weights @ (mix.variances + mix.means ** 2),
          cd.closed_form_second_moment(g))


def check_report(g, provider, rep) -> None:
    mean, second = spacing_moments(g, provider)
    scale = abs(mean) + math.sqrt(abs(second))
    close("mean", rep.mean, mean, atol=REF_RTOL * scale)
    close("second moment", rep.variance + rep.mean ** 2, second, atol=REF_RTOL * scale ** 2)
    if provider.law == "uniform":
        close("mean (chain sum)", rep.mean, uniform_raw_moment(g, 1))
        close("second moment (chain sum)", rep.variance + rep.mean ** 2, uniform_raw_moment(g, 2))


def check_mixture_moments(g, provider, mix) -> None:
    """n! components whose first two moments are the spacing-formula moments
    of the same provider (``spacing_moments``), up to rounding."""
    require(mix.weights.size == math.factorial(g.n), "component count is not n!")
    mean, second = spacing_moments(g, provider)
    scale = abs(mean) + math.sqrt(abs(second))
    close("mixture mean", mix.weights @ mix.means, mean, atol=REF_RTOL * scale)
    close("mixture second moment", mix.weights @ (mix.variances + mix.means ** 2), second,
          atol=REF_RTOL * scale ** 2)


def mixture_grid(mix, points: int) -> np.ndarray:
    sd = np.sqrt(mix.variances)
    return np.linspace(np.min(mix.means - 9 * sd), np.max(mix.means + 9 * sd), points)


def check_mixture_pdf(mix, ys, pdf) -> None:
    """The density grid against the sum of the components' normal densities,
    and its mass and mean by the trapezoid rule: the grid spans +-9 sd of
    every component, where the rule is exact to rounding for smooth rapidly
    decaying integrands."""
    sd = np.sqrt(mix.variances)
    z = (ys[:, None] - mix.means) / sd
    close("density", pdf, (np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))) @ mix.weights)
    close("mass", np.trapezoid(pdf, ys), 1.0, rtol=0.0, atol=1e-8)
    close("mean", np.trapezoid(ys * pdf, ys), mix.weights @ mix.means, rtol=0.0, atol=1e-8)


def check_mixture_cdf(mix, ys, cdf) -> None:
    """The cdf grid against the sum of the components' normal cdfs."""
    z = (ys[:, None] - mix.means) / np.sqrt(mix.variances)
    close("cdf", cdf, ndtr(z) @ mix.weights)
    close("cdf ends", cdf[[0, -1]], [0.0, 1.0], rtol=0.0, atol=1e-8)


def check_mc_mean(draws, mean) -> None:
    """Monte Carlo mean within 4 standard errors of the reference mean."""
    require(mean is not FAILED, "reference mean missing")
    se = float(np.std(draws, ddof=1)) / math.sqrt(draws.size)
    z = abs(float(np.mean(draws)) - mean) / se
    require(z <= 4.0, f"Monte Carlo mean {z:.2f} standard errors away")


# ---------------------------------------------------------------------------
# workloads: warmup(ops, ref, ctx) on fixed inputs, one_pass(ops, rng, ref, ctx)
# ---------------------------------------------------------------------------

def _ref_rng():
    return np.random.default_rng(REF_SEED)


def _exact(ops, g, label, ys_u, ys_e, ref=None):
    """Uniform law of g and of its tied copy, exponential law and uniform
    mixture of g.  With ``ref`` the outputs are gated against stored values,
    otherwise against the independent checks."""
    def check(key, independent=None, extract=lambda out: out):
        return ref.gate(f"{label} {key}", extract) if ref else independent

    for kind, cap in (("generic", g), ("tied", tied(g))):
        name = f"{label} {kind}"
        d = ops.run(f"UniformChoquetDist {name}", cd.UniformChoquetDist, cap)
        pdf = ops.run(f"uniform pdf {name}", cd.UniformChoquetDist.pdf, d, ys_u,
                      check=check(f"{kind} pdf",
                                  lambda f, cap=cap: check_uniform_pdf(cap, ys_u, f)))
        ops.run(f"uniform cdf {name}", cd.UniformChoquetDist.cdf, d, ys_u,
                check=check(f"{kind} cdf",
                            lambda F, cap=cap, pdf=pdf: check_uniform_cdf(cap, ys_u, pdf, F)))
    e = ops.run(f"ExponentialChoquetDist {label}", cd.ExponentialChoquetDist, g)
    pdf = ops.run(f"exponential pdf {label}", cd.ExponentialChoquetDist.pdf, e, ys_e,
                  check=check("exp pdf", lambda f: check_exponential_pdf(g, e, ys_e, f)))
    ops.run(f"exponential cdf {label}", cd.ExponentialChoquetDist.cdf, e, ys_e,
            check=check("exp cdf", lambda F: check_exponential_cdf(g, e, ys_e, pdf, F)))
    ops.run(f"mixture_approx uniform {label}",
            lambda: cd.mixture_approx(g, cd.provider_for("uniform", g.n)),
            check=check("mixture", lambda m: check_uniform_mixture(g, m),
                        lambda m: np.concatenate([m.means, m.variances])))


def exact_chains_warmup(ops, ref, ctx):
    _exact(ops, generic(4, _ref_rng()), "n=4", np.linspace(0, 1, 21), np.linspace(0, 10, 21), ref)


def exact_chains_pass(ops, rng, ref, ctx):
    for n in (5, 6, 7):
        _exact(ops, generic(n, rng), f"n={n}", GRID_U, GRID_E)


def _report(ops, g, law, check):
    return ops.run(f"moments_report {law} n={g.n}",
                   lambda: cd.moments_report(g, cd.provider_for(law, g.n, dj_order=3)),
                   check=check)


def lattice_moments_warmup(ops, ref, ctx):
    rng = _ref_rng()
    for law in LAWS:
        _report(ops, generic(6, rng), law, ref.gate(f"report {law}", lambda r: [r.mean, r.variance]))
    d = ops.run("UniformChoquetDist n=5", cd.UniformChoquetDist, generic(5, rng))
    for r in (2, 3, 4):
        ops.run(f"raw_moment r={r}", cd.UniformChoquetDist.raw_moment, d, r,
                check=ref.gate(f"raw_moment {r}"))
    cap = ops.run("random_capacity n=8", cd.random_capacity, 8, np.random.default_rng(REF_SEED),
                  check=ref.gate("random_capacity", lambda g: g.values))
    ops.run("check_capacity n=8", cd.check_capacity, cap,
            check=ref.gate("check_capacity", lambda c: [c.is_monotone, c.is_normalized]))


def lattice_moments_pass(ops, rng, ref, ctx):
    for law in LAWS:
        g = generic(12, rng)
        _report(ops, g, law, lambda rep, g=g, law=law:
                check_report(g, cd.provider_for(law, g.n, dj_order=3), rep))
    g13 = generic(13, rng)
    _report(ops, g13, "uniform", lambda rep: check_report(g13, cd.provider_for("uniform", 13), rep))
    g7 = generic(7, rng)
    d = ops.run("UniformChoquetDist n=7", cd.UniformChoquetDist, g7)
    for r in (2, 3, 4):
        ops.run(f"raw_moment r={r} n=7", cd.UniformChoquetDist.raw_moment, d, r,
                check=lambda v, r=r: close(f"E[Y^{r}]", v, uniform_raw_moment(g7, r)))
    cap = ops.run("random_capacity n=16", cd.random_capacity, 16,
                  np.random.default_rng(rng.integers(2 ** 63)),
                  check=lambda g: require(is_capacity(g), "output is not a capacity"))
    ops.run("check_capacity n=16", cd.check_capacity, cap,
            check=lambda c: require(c.is_monotone and c.is_normalized, "capacity rejected"))


def _series(ops, g, a, draws, seed, points, pw_n, qm, limits=None, ref=None):
    """The normal-law series workflow, every call sharing the capacity g."""
    def check(key, independent=None, extract=lambda out: out):
        return ref.gate(key, extract) if ref else independent

    provider = cd.provider_for("normal", g.n, dj_order=3)
    mix = ops.run(f"mixture_approx normal n={g.n}", cd.mixture_approx, g, provider,
                  check=check("mixture", lambda m: check_mixture_moments(g, provider, m),
                              lambda m: np.concatenate([m.means, m.variances])))
    rep = ops.run(f"moments_report normal n={g.n}", cd.moments_report, g, provider,
                  check=lambda r: check_report(g, provider, r))
    ys = FAILED if mix is FAILED else mixture_grid(mix, points)
    ops.run("mixture_pdf", cd.mixture_pdf, mix, ys,
            check=check("mixture pdf", lambda f: check_mixture_pdf(mix, ys, f)))
    ops.run("mixture_cdf", cd.mixture_cdf, mix, ys,
            check=check("mixture cdf", lambda F: check_mixture_cdf(mix, ys, F)))
    sample = ops.run(f"sample_values normal {draws}", cd.sample_values, g, "normal", draws, seed,
                     check=lambda y: check_mc_mean(y, FAILED if rep is FAILED else rep.mean))
    ops.run("ks_statistic vs mixture_cdf",
            lambda y, m: cd.ks_statistic(y, lambda x: cd.mixture_cdf(m, x)), sample, mix,
            check=check("ks", lambda ks: require(ks <= 0.05, f"KS distance {ks:.3g}")))
    J = cd.WeightFunction.power(a)
    ops.run(f"alpha {qm.name}", cd.alpha, J, qm,
            check=check("alpha", lambda v: close("alpha", v, limits()[0], atol=1e-6)))
    ops.run(f"beta2 {qm.name}", cd.beta2, J, qm,
            check=check("beta2", lambda v: close("beta2", v, limits()[1], atol=1e-5)))
    pw = cd.power_weight_game(pw_n, a)
    ops.run(f"mixture_approx normal power_weight_game({pw_n})",
            lambda: cd.mixture_approx(pw, cd.provider_for("normal", pw_n, dj_order=3)),
            check=lambda m: check_one_component(pw, m))


def check_one_component(g, mix) -> None:
    """A symmetric game takes the one-component shortcut, whose mean is the
    spacing-formula mean."""
    require(mix.weights.tolist() == [1.0], "symmetric game did not collapse to one component")
    close("component mean", mix.means[0],
          cd.choquet_mean(g, cd.provider_for("normal", g.n, dj_order=3)), atol=1e-12)


def series_asymptotic_warmup(ops, ref, ctx):
    # the uniform quantile model keeps the quadrature warm-up cheap
    _series(ops, generic(3, _ref_rng()), 2.0, 1000, REF_SEED, 41, 8,
            cd.uniform_quantile_model(), ref=ref)


def series_asymptotic_pass(ops, rng, ref, ctx):
    # J(u) = u^a with a within 0.01 of 2: drawn per pass so that no quadrature
    # input repeats, and close enough that the adaptive cost hardly moves
    a = 2.0 + 0.02 * (rng.random() - 0.5)
    limits = functools.cache(lambda: normal_limits(a))
    _series(ops, generic(5, rng), a, 200_000, int(rng.integers(2 ** 63)), 401, 20,
            cd.normal_quantile_model(), limits=limits)


# -- cli_cold ----------------------------------------------------------------

EXAMPLE = "docs/example_capacity.json"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def numbers(text: str) -> list[float]:
    return [float(tok) for tok in _NUMBER.findall(text)]


def check_cli(proc, want) -> None:
    """Exit status 0, and stdout numerically equal to the reference at 12
    significant digits (the CLI's own output precision)."""
    require(proc.returncode == 0, f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}")
    got = numbers(proc.stdout)
    require(len(got) == len(want), f"{len(got)} numbers on stdout, expected {len(want)}")
    bad = [(g, w) for g, w in zip(got, want) if f"{g:.12g}" != f"{w:.12g}"]
    require(not bad, f"{len(bad)} numbers differ, first {bad[:1]}")


def _cli(ops, ctx, argv, check):
    law = argv[argv.index("--law") + 1] if "--law" in argv else ""
    proc = ops.run(f"cli {argv[0]} {law}".strip(), ctx.cli, argv, check=check, sampled=False)
    if proc is not FAILED:
        ctx.cli.collect(proc)


def cli_cold_warmup(ops, ref, ctx):
    _cli(ops, ctx, ["validate", "--capacity", EXAMPLE], ref.gate("validate example", _stdout_numbers))


def _stdout_numbers(proc):
    require(proc.returncode == 0, f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return numbers(proc.stdout)


def _grid(g, dist_cls, grid):
    lo, hi, steps = grid.split(":")
    ys = np.linspace(float(lo), float(hi), int(steps))
    d = dist_cls(g)
    return np.column_stack([ys, d.pdf(ys), d.cdf(ys)]).ravel().tolist()


def cli_cold_pass(ops, rng, ref, ctx):
    g = generic(6, rng)
    cap = ctx.workdir / "capacity-n6.json"
    write_capacity(g, cap)
    cap = str(cap)
    mc_seed = int(rng.integers(2 ** 31))
    example = cd.load_capacity(EXAMPLE)

    def expect(fn):
        return lambda proc: check_cli(proc, fn())

    def stored(key):
        if ref.stored is None:
            return ref.gate(key, _stdout_numbers)
        return lambda proc: check_cli(proc, ref.stored[key])

    def moments(law):
        rep = cd.moments_report(g, cd.provider_for(law, g.n))
        return [rep.mean, rep.sd]

    def sample():
        rep = cd.sample(example, "exponential", 10_000, mc_seed)
        check_mc_mean(rep.ecdf, cd.exp_moments(example)[0])
        return [rep.n_samples, rep.mean, rep.sd, rep.standard_error, mc_seed]

    calls = [
        (["validate", "--capacity", cap], expect(lambda: [g.n, 1.0])),
        (["orness", "--capacity", cap], expect(lambda: [cd.orness(g)])),
        *[(["moments", "--capacity", cap, "--law", law], expect(lambda law=law: moments(law)))
          for law in LAWS],
        (["pdf", "--capacity", cap, "--law", "uniform", "--grid", "0:1:101"],
         expect(lambda: _grid(g, cd.UniformChoquetDist, "0:1:101"))),
        (["pdf", "--capacity", cap, "--law", "exponential", "--grid", "0:10:101"],
         expect(lambda: _grid(g, cd.ExponentialChoquetDist, "0:10:101"))),
        (["mixture", "--capacity", EXAMPLE, "--law", "normal", "--grid=-3:3:121"],
         stored("mixture example")),
        (["sample", "--capacity", EXAMPLE, "--law", "exponential", "--n", "10000",
          "--seed", str(mc_seed)], expect(sample)),
        (["stigler", "--law", "uniform", "--a", "2", "--n", "20"], stored("stigler")),
    ]
    for argv, check in calls:
        _cli(ops, ctx, argv, check)


class CliRunner:
    """Runs ``choquet-dist`` subcommands as cold child processes, one at a time.

    Each call goes through ``cli_child.py``, which samples the machine's speed
    inside the child; the samples are merged into ``sampler`` before the call
    returns.  Traced calls run under ``-X importtime`` and write a per-layer
    record that ``collect`` adds into ``totals``.
    """

    def __init__(self, root: Path, env: dict, traced: bool, workdir: Path, sampler):
        self.root, self.env, self.traced, self.workdir = root, env, traced, workdir
        self.sampler = sampler
        self.totals: dict[str, float] = {}
        self.record: dict = {}

    def __call__(self, argv):
        path = self.workdir / "cli-record.json"
        path.unlink(missing_ok=True)
        cmd = [sys.executable, *(["-X", "importtime"] if self.traced else []),
               str(HERE / "cli_child.py"), str(path), "1" if self.traced else "0", *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        self.record = json.loads(path.read_text()) if path.exists() else {}
        self.sampler.add(self.record.pop("samples", []), self.record.pop("spent_s", 0.0))
        return proc

    def collect(self, proc) -> None:
        if not self.traced:
            return
        self.record.update(import_times(proc.stderr))
        for key, val in self.record.items():
            self.totals[key] = self.totals.get(key, 0.0) + val


IMPORTTIME_KEYS = {"scipy.special": "cli.import.scipy_special_s",
                   "scipy.integrate": "cli.import.scipy_integrate_s"}


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing each package of IMPORTTIME_KEYS, from
    ``-X importtime`` output.  scipy loads subpackages lazily, so a package
    shows up as several subtrees of its submodules; the cumulative times of
    the subtree roots (entries whose parent lies outside the package) add up."""
    rows = []  # (depth, cumulative us, module), children listed before parents
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                rows.append((len(name) - len(name.lstrip()), int(cumulative), name.strip()))
    out = dict.fromkeys(IMPORTTIME_KEYS.values(), 0.0)
    for i, (depth, cumulative, name) in enumerate(rows):
        parent = next((r[2] for r in rows[i + 1:] if r[0] < depth), "")
        for package, key in IMPORTTIME_KEYS.items():
            inside = (name + ".").startswith(package + ".")
            if inside and not (parent + ".").startswith(package + "."):
                out[key] += cumulative * 1e-6
    return out


WORKLOADS = {
    "exact_chains": (exact_chains_warmup, exact_chains_pass),
    "lattice_moments": (lattice_moments_warmup, lattice_moments_pass),
    "series_asymptotic": (series_asymptotic_warmup, series_asymptotic_pass),
    "cli_cold": (cli_cold_warmup, cli_cold_pass),
}
