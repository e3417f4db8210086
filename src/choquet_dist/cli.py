"""Command-line interface.

Subcommands: validate, moments, pdf, cdf, mixture, stigler, sample, orness.
Numeric output uses 12 significant digits; tables go to CSV and scalar
summaries to JSON, on stdout unless --out names a file for the table (for
moments and stigler, for the JSON).  Exit status is 0 on success and
2 for input/validation problems (schema violations, non-capacities where one
is required, regularity failures, the n! chain cap, exponential cancellation).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .asymptotic import (WeightFunction, alpha, beta2, mixture_approx,
                         mixture_pdf, power_weight_game)
from .capacity import CapacityFormatError, check_capacity, load_capacity
from .exponential import ExponentialChoquetDist, RegularityError
from .moments import moments_report, orness
from .osmoments import LAWS, law_for, provider_for
from .montecarlo import sample
from .uniform import UniformChoquetDist


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CapacityFormatError(f"grid must look like start:end:steps, got {text!r}")
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CapacityFormatError(f"bad grid specification {text!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise CapacityFormatError(f"grid endpoints must be finite, got {text!r}")
    if steps < 2:
        raise CapacityFormatError("grid needs at least 2 steps")
    if not b > a:
        raise CapacityFormatError("grid end must exceed start")
    return a, b, steps


def _emit(lines, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))


def _emit_json(doc: dict, out_path=None) -> None:
    _emit([json.dumps(doc)], out_path)


def _grid_values(text: str) -> np.ndarray:
    return np.linspace(*parse_grid(text))


def cmd_validate(args: argparse.Namespace) -> int:
    g = load_capacity(args.capacity)
    chk = check_capacity(g)
    if chk.is_monotone and chk.is_normalized:
        print(f"capacity ok: n={g.n}, nu(N)={_fmt(g[g.full_mask])}")
        return 0
    if not chk.is_monotone:
        s, t = chk.violating_pair
        print(f"not monotone: nu{s} > nu{t}", file=sys.stderr)
    if not chk.is_normalized:
        print(f"not normalized: nu(N) = {_fmt(g[g.full_mask])}", file=sys.stderr)
    return 2


def cmd_moments(args: argparse.Namespace) -> int:
    g = load_capacity(args.capacity)
    provider = provider_for(args.law, g.n, args.dj_order)
    rep = moments_report(g, provider)
    _emit_json({"mean": float(_fmt(rep.mean)), "sd": float(_fmt(rep.sd))}, args.out)
    return 0


def cmd_pdf(args: argparse.Namespace) -> int:
    """Exact pdf and cdf on the grid; with --out, also the moment summary and
    the knots (the pdf is only piecewise smooth across them under the uniform
    law)."""
    g = load_capacity(args.capacity)
    ys = _grid_values(args.grid)
    knots: list[float] = []
    if args.law == "uniform":
        dist = UniformChoquetDist(g)
        knots = [float(k) for k in dist.knot_values()]
    elif args.law == "exponential":
        dist = ExponentialChoquetDist(g)
    else:
        raise CapacityFormatError(
            f"exact pdf/cdf is available for uniform and exponential laws, not {args.law!r}; "
            "see the mixture command for the normal approximation")
    pdf, cdf = dist.pdf(ys), dist.cdf(ys)
    rows = ["y,pdf,cdf"]
    rows += [f"{_fmt(y)},{_fmt(p)},{_fmt(c)}" for y, p, c in zip(ys, pdf, cdf)]
    _emit(rows, args.out)
    if args.out:
        rep = moments_report(g, provider_for(args.law, g.n))
        _emit_json({"rows": len(ys), "mean": float(_fmt(rep.mean)),
                    "sd": float(_fmt(rep.sd)),
                    "knots": [float(_fmt(k)) for k in knots]})
    return 0


def cmd_mixture(args: argparse.Namespace) -> int:
    g = load_capacity(args.capacity)
    provider = provider_for(args.law, g.n, args.dj_order)
    mix = mixture_approx(g, provider)
    ys = _grid_values(args.grid)
    pdf = mixture_pdf(mix, ys)
    rows = ["y,mixture_pdf"] + [f"{_fmt(y)},{_fmt(p)}" for y, p in zip(ys, pdf)]
    _emit(rows, args.out)
    if args.out:
        # validity of the normal approximation cannot be checked from data;
        # the orness degree is the customary heuristic, so surface it alongside
        try:
            balance = float(_fmt(orness(g)))
        except ValueError:
            balance = None
        _emit_json({"components": len(mix.weights), "orness": balance,
                    "note": "asymptotic validity is heuristic; orness near 0 "
                            "or 1 warns of min/max-like behavior"})
    return 0


def cmd_stigler(args: argparse.Namespace) -> int:
    provider = provider_for(args.law, args.n, args.dj_order)
    qm = law_for(args.law).quantile_model()
    J = WeightFunction.power(args.a)
    game = power_weight_game(args.n, args.a)
    mix = mixture_approx(game, provider)
    _emit_json({
        "alpha": float(_fmt(alpha(J, qm))),
        "beta2": float(_fmt(beta2(J, qm))),
        "component_mean": float(_fmt(mix.means[0])),
        "n_times_variance": float(_fmt(args.n * mix.variances[0])),
    }, args.out)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    g = load_capacity(args.capacity)
    rep = sample(g, args.law, args.n, args.seed)
    if args.out:
        _emit(["y"] + [_fmt(v) for v in rep.ecdf], args.out)
    print(json.dumps({
        "n_samples": rep.n_samples,
        "mean": float(_fmt(rep.mean)),
        "sd": float(_fmt(rep.sd)),
        "standard_error": float(_fmt(rep.standard_error)),
        "seed": args.seed,
    }))
    return 0


def cmd_orness(args: argparse.Namespace) -> int:
    g = load_capacity(args.capacity)
    _emit_json({"orness": float(_fmt(orness(g)))})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="choquet-dist",
                                description="Distribution and moments of discrete "
                                            "Choquet integrals of i.i.d. samples.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_capacity(sp):
        sp.add_argument("--capacity", required=True, help="capacity JSON file")

    def add_law(sp):
        sp.add_argument("--law", choices=tuple(LAWS), required=True)

    def add_grid(sp):
        sp.add_argument("--grid", required=True, help="start:end:steps")

    def add_out(sp, kind="CSV"):
        sp.add_argument("--out", help=f"write {kind} here instead of stdout")

    def add_dj_order(sp):
        sp.add_argument("--dj-order", type=int, choices=(2, 3), default=2,
                        help="series order for the normal law (default 2)")

    sp = sub.add_parser("validate", help="check game axioms, monotonicity, normalization")
    add_capacity(sp)
    sp.set_defaults(handler=cmd_validate)

    sp = sub.add_parser("moments", help="exact/approximate mean and sd")
    add_capacity(sp); add_law(sp); add_dj_order(sp); add_out(sp, "JSON")
    sp.set_defaults(handler=cmd_moments)

    for name in ("pdf", "cdf"):
        sp = sub.add_parser(name, help="tabulate density and cdf on a grid (CSV y,pdf,cdf)")
        add_capacity(sp); add_law(sp); add_grid(sp); add_out(sp)
        sp.set_defaults(handler=cmd_pdf)

    sp = sub.add_parser("mixture", help="normal-mixture density on a grid (CSV y,mixture_pdf)")
    add_capacity(sp); add_law(sp); add_grid(sp); add_dj_order(sp); add_out(sp)
    sp.set_defaults(handler=cmd_mixture)

    sp = sub.add_parser("stigler", help="limit functionals and component stats "
                                        "for the power-weight family")
    sp.add_argument("--a", type=float, required=True, help="weight exponent, > 0")
    sp.add_argument("--n", type=int, required=True, help="number of inputs")
    sp.add_argument("--law", choices=tuple(LAWS), default="uniform")
    add_dj_order(sp); add_out(sp, "JSON")
    sp.set_defaults(handler=cmd_stigler)

    sp = sub.add_parser("sample", help="Monte Carlo run; JSON summary, optional CSV")
    add_capacity(sp); add_law(sp)
    sp.add_argument("--n", type=int, required=True, help="number of samples")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the sampled values here as CSV")
    sp.set_defaults(handler=cmd_sample)

    sp = sub.add_parser("orness", help="orness diagnostic of a capacity")
    add_capacity(sp)
    sp.set_defaults(handler=cmd_orness)
    return p


def run(args: argparse.Namespace) -> int:
    try:
        return args.handler(args)
    except CapacityFormatError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except RegularityError as exc:
        print(f"regularity violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
