"""Spans and work counts around the public functions of choquet_dist.

The library is not edited: ``install`` replaces each listed function, in its
defining module and wherever another module imported it by name, with a
wrapper that records a span (name, start, end, parent) while the tracer is
active.  Spans stay in compact arrays until ``save`` writes them out; self
time is a span's duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (metric prefix, module, attribute path); a dotted path names a method.
FUNCTIONS = [
    ("capacity.enumerate_chains", "capacity", "enumerate_chains"),
    ("capacity.check_capacity", "capacity", "check_capacity"),
    ("capacity.random_capacity", "capacity", "random_capacity"),
    ("capacity.choquet_values", "capacity", "choquet_values"),
    ("divdiff.tp_plus_dd", "divdiff", "tp_plus_dd"),
    ("divdiff.tp_minus_dd", "divdiff", "tp_minus_dd"),
    ("uniform.UniformChoquetDist.__init__", "uniform", "UniformChoquetDist.__init__"),
    ("uniform.UniformChoquetDist.pdf", "uniform", "UniformChoquetDist.pdf"),
    ("uniform.UniformChoquetDist.cdf", "uniform", "UniformChoquetDist.cdf"),
    ("uniform.UniformChoquetDist.raw_moment", "uniform", "UniformChoquetDist.raw_moment"),
    ("exponential.ExponentialChoquetDist.__init__", "exponential",
     "ExponentialChoquetDist.__init__"),
    ("exponential.chain_coeffs", "exponential", "chain_coeffs"),
    ("exponential.ExponentialChoquetDist.pdf", "exponential", "ExponentialChoquetDist.pdf"),
    ("exponential.ExponentialChoquetDist.cdf", "exponential", "ExponentialChoquetDist.cdf"),
    ("moments.nested_pair_level_sums", "moments", "nested_pair_level_sums"),
    ("moments.moments_report", "moments", "moments_report"),
    ("osmoments.dj_mean", "osmoments", "dj_mean"),
    ("osmoments.dj_product", "osmoments", "dj_product"),
    ("osmoments.provider.mean", "osmoments", "UniformOrderStats.mean"),
    ("osmoments.provider.mean", "osmoments", "ExponentialOrderStats.mean"),
    ("osmoments.provider.mean", "osmoments", "DavidJohnsonOrderStats.mean"),
    ("osmoments.provider.product", "osmoments", "UniformOrderStats.product"),
    ("osmoments.provider.product", "osmoments", "ExponentialOrderStats.product"),
    ("osmoments.provider.product", "osmoments", "DavidJohnsonOrderStats.product"),
    ("normal.norm_ppf", "normal", "norm_ppf"),
    ("normal.norm_cdf", "normal", "norm_cdf"),
    ("asymptotic.alpha", "asymptotic", "alpha"),
    ("asymptotic.beta2", "asymptotic", "beta2"),
    ("asymptotic.mixture_approx", "asymptotic", "mixture_approx"),
    ("asymptotic.mixture_pdf", "asymptotic", "mixture_pdf"),
    ("asymptotic.mixture_cdf", "asymptotic", "mixture_cdf"),
    ("montecarlo.sample_values", "montecarlo", "sample_values"),
    ("montecarlo.ks_statistic", "montecarlo", "ks_statistic"),
]

CLI_SUBCOMMANDS = ("validate", "orness", "moments", "pdf", "mixture", "sample", "stigler")


def _nested_pairs(args, out):
    """Inner-loop iterations of nested_pair_level_sums: proper nonempty
    submasks of every mask whose value is nonzero."""
    g = args[0]
    sizes = np.bitwise_count(np.arange(1 << g.n, dtype=np.uint64)).astype(np.int64)
    live = (g.values != 0.0) & (sizes > 0)
    return float(np.sum(2.0 ** sizes[live] - 2.0))


# work counts recorded at the same boundary as the span: prefix -> (stat, fn)
WORK = {
    "capacity.choquet_values": ("rows", lambda a, out: len(out)),
    "divdiff.tp_plus_dd": ("points", lambda a, out: np.size(a[1])),
    "divdiff.tp_minus_dd": ("points", lambda a, out: np.size(a[1])),
    "uniform.UniformChoquetDist.raw_moment":
        ("terms", lambda a, out: float(a[1] + 1) ** a[0].game.n),
    "exponential.ExponentialChoquetDist.__init__":
        ("scales", lambda a, out: a[0].scales.size),
    "moments.nested_pair_level_sums": ("pairs", _nested_pairs),
    "normal.norm_ppf": ("elements", lambda a, out: np.size(a[0])),
    "normal.norm_cdf": ("elements", lambda a, out: np.size(a[0])),
    "asymptotic.mixture_approx": ("components", lambda a, out: out.weights.size),
    "montecarlo.sample_values": ("draws", lambda a, out: out.size),
    "montecarlo.ks_statistic": ("points", lambda a, out: np.size(a[0])),
}

# integrand evaluations per call of J inside the quadrature (beta2 calls J twice)
EVALS_PER_J_CALL = {"asymptotic.alpha": 1.0, "asymptotic.beta2": 0.5}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for prefix in dict.fromkeys(p for p, _, _ in FUNCTIONS):
        out.append((f"{prefix}.calls", "count", "lower"))
        out.append((f"{prefix}.self_s", "s", "lower"))
        if prefix == "capacity.enumerate_chains":
            out.append((f"{prefix}.chains", "count", "lower"))
        if prefix in WORK:
            out.append((f"{prefix}.{WORK[prefix][0]}", "count", "lower"))
        if prefix in EVALS_PER_J_CALL:
            out.append((f"{prefix}.evals", "count", "lower"))
        if prefix == "osmoments.provider.product":
            out.append(("osmoments.product.distinct_ratio", "ratio", "higher"))
    out.append(("cli.import_s", "s", "lower"))
    out += [(f"cli.{cmd}_s", "s", "lower") for cmd in CLI_SUBCOMMANDS]
    out.append(("cli.import.scipy_special_s", "s", "lower"))
    out.append(("cli.import.scipy_integrate_s", "s", "lower"))
    out.append(("trace.pass_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("wall.pass_s", "s", "lower"))
    out.append(("wall.setup_s", "s", "lower"))
    return out


class _CountingJ:
    """Weight function stand-in that counts integrand evaluations."""

    def __init__(self, J, tracer, key, per_call):
        self._J, self._tracer, self._key, self._per_call = J, tracer, key, per_call

    def __call__(self, u):
        self._tracer.counts[self._key] += self._per_call
        return self._J(u)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._products: dict[object, set] = {}

    # -- spans -------------------------------------------------------------
    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _id(self, prefix: str) -> int:
        if prefix not in self._ids:
            self._ids[prefix] = len(self.names)
            self.names.append(prefix)
        return self._ids[prefix]

    def wrap(self, prefix: str, fn):
        nid = self._id(prefix)
        work = WORK.get(prefix)
        evals = EVALS_PER_J_CALL.get(prefix)
        calls_key = f"{prefix}.calls"
        tracer = self

        if prefix == "capacity.enumerate_chains":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                tracer.counts[calls_key] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counts["capacity.enumerate_chains.chains"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[calls_key] += 1
            if evals is not None:
                args = (_CountingJ(args[0], tracer, f"{prefix}.evals", evals),) + args[1:]
            if prefix == "osmoments.provider.product":
                tracer._products.setdefault(args[0], set()).add(args[1:])
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if work is not None:
                tracer.counts[f"{prefix}.{work[0]}"] += work[1](args, out)
            return out
        return wrapper

    def install(self) -> None:
        """Wrap every function in FUNCTIONS, everywhere it is bound by name."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "choquet_dist" or name.startswith("choquet_dist."))]
        for prefix, modname, path in FUNCTIONS:
            owner = sys.modules[f"choquet_dist.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(prefix, original)
            setattr(owner, attr, wrapped)
            if not cls_path:
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapped)

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        names = np.frombuffer(self.name, dtype=np.int32)
        per_name = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {f"{n}.self_s": float(per_name[i]) for i, n in enumerate(self.names)}

    def totals(self) -> dict[str, float]:
        """Summed calls, self times and work counts; the distinct-pair ratio is
        carried as its numerator (distinct (i, j) per provider object)."""
        out = dict(self.counts)
        out.update(self.self_times())
        out["osmoments.product.distinct"] = float(sum(len(s) for s in self._products.values()))
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                            parent=np.frombuffer(self.parent, np.int32))


def per_pass(totals: dict[str, float], passes: int) -> dict[str, float]:
    """Every per-layer metric of ``metric_names`` as a per-pass value (the
    trace.*, wall.* and cli.import.* entries are filled in by the caller)."""
    out = {}
    for name, _, _ in metric_names():
        if name == "osmoments.product.distinct_ratio":
            calls = totals.get("osmoments.provider.product.calls", 0.0)
            out[name] = totals.get("osmoments.product.distinct", 0.0) / calls if calls else 0.0
        else:
            out[name] = totals.get(name, 0.0) / passes
    return out
