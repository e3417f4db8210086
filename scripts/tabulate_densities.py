#!/usr/bin/env python3
"""Tabulate the exact density/cdf of a capacity's Choquet integral under the
uniform and exponential laws, next to a Monte Carlo histogram, as CSV files
ready for plotting.

    python scripts/tabulate_densities.py --capacity docs/example_capacity.json \
        --out-dir out --samples 10000
"""
import argparse
import csv
from pathlib import Path

import numpy as np

from choquet_dist import (ExponentialChoquetDist, UniformChoquetDist,
                          ks_statistic, load_capacity, sample)


def write_grid(path, ys, pdf, cdf):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "pdf", "cdf"])
        for row in zip(ys, pdf, cdf):
            w.writerow([f"{v:.12g}" for v in row])


def write_hist(path, values, lo, hi, bins=60):
    hist, edges = np.histogram(values, bins=bins, range=(lo, hi), density=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y_mid", "density"])
        for mid, h in zip((edges[:-1] + edges[1:]) / 2, hist):
            w.writerow([f"{mid:.12g}", f"{h:.12g}"])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--capacity", required=True)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g = load_capacity(args.capacity)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    du = UniformChoquetDist(g)
    lo, hi = du.support()
    ys = np.linspace(lo, hi, 401)
    write_grid(out / "uniform_exact.csv", ys, du.pdf(ys), du.cdf(ys))
    rep = sample(g, "uniform", args.samples, args.seed)
    write_hist(out / "uniform_mc_hist.csv", rep.ecdf, lo, hi)
    print(f"uniform: mc mean={rep.mean:.4f} sd={rep.sd:.4f} "
          f"ks={ks_statistic(rep.ecdf, du.cdf):.4f} -> {out}/uniform_*.csv")

    rep = sample(g, "exponential", args.samples, args.seed + 1)
    try:
        de = ExponentialChoquetDist(g)
    except ValueError as exc:  # irregular, or its weights cancel
        print(f"exponential: no exact law ({exc}); only Monte Carlo applies")
        write_hist(out / "exponential_mc_hist.csv", rep.ecdf, 0.0, float(rep.ecdf[-1]))
        return
    hi_e = 6.0 * float(np.max(de.scales)) * g.n
    ys = np.linspace(0.0, hi_e, 401)
    write_grid(out / "exponential_exact.csv", ys, de.pdf(ys), de.cdf(ys))
    write_hist(out / "exponential_mc_hist.csv", rep.ecdf, 0.0, hi_e)
    print(f"exponential: mc mean={rep.mean:.4f} sd={rep.sd:.4f} "
          f"ks={ks_statistic(rep.ecdf, de.cdf):.4f} -> {out}/exponential_*.csv")


if __name__ == "__main__":
    main()
