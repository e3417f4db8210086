"""Check that normalized seconds keep the ratio of two pass times.

    PYTHONPATH=src python3 perfbench/ratio_check.py double 8
    PYTHONPATH=src python3 perfbench/ratio_check.py lattice 16
    PYTHONPATH=src python3 perfbench/ratio_check.py series 10

Runs PAIRS pairs of passes A and B in one process, alternating which goes
first, and prints the B/A ratio of measured and of normalized pass times
(ratio of the medians, and median of the paired ratios):

- ``double``: A is one exact_chains pass, B two (known ratio 2, same mix);
- ``lattice``: a lattice_moments pass, B with ``nested_pair_level_sums``
  replaced by the vectorized ``workloads.nested_pairs`` (an interpreter loop
  turned into a few large numpy calls);
- ``series``: a series_asymptotic pass, B with ``norm_ppf`` replaced by
  ``scipy.special.ndtri`` (interpreter and small-array work turned into one
  C call).

If normalization kept ratios only on average over machine states, the
normalized ratio would still match the measured one; a bias of the speed
sampler toward one kind of work shows as a gap between the two.
"""
from __future__ import annotations

import json
import statistics
import sys

import numpy as np

import speed


def swap(name, old, new):
    """Rebind ``name`` from ``old`` to ``new`` in every choquet_dist module."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("choquet_dist") \
                and getattr(module, name, None) is old:
            setattr(module, name, new)


def main() -> int:
    experiment, pairs = sys.argv[1], int(sys.argv[2])
    sampler = speed.SpeedSampler()
    import workloads as wl

    ops = wl.Ops(sampler)

    if experiment == "double":
        def run_a(rng):
            wl.exact_chains_pass(ops, rng, None, None)

        def run_b(rng):
            wl.exact_chains_pass(ops, rng, None, None)
            wl.exact_chains_pass(ops, rng, None, None)
    else:
        if experiment == "lattice":
            import choquet_dist.moments as module
            name, new = "nested_pair_level_sums", wl.nested_pairs
            one_pass = wl.lattice_moments_pass
        elif experiment == "series":
            import choquet_dist.normal as module
            from scipy import special

            def new(p):
                arr = np.asarray(p, dtype=float)
                return float(special.ndtri(arr)) if arr.ndim == 0 else special.ndtri(arr)
            name, one_pass = "norm_ppf", wl.series_asymptotic_pass
        else:
            sys.exit(f"unknown experiment {experiment!r}")
        old = getattr(module, name)

        def run_a(rng):
            one_pass(ops, rng, None, None)

        def run_b(rng):
            swap(name, old, new)
            try:
                one_pass(ops, rng, None, None)
            finally:
                swap(name, new, old)

    measured = {"A": [], "B": []}
    normalized = {"A": [], "B": []}
    for k in range(pairs):
        order = (("A", run_a), ("B", run_b)) if k % 2 == 0 else (("B", run_b), ("A", run_a))
        for which, fn in order:
            ops.times = []
            first = len(sampler.samples)
            fn(np.random.default_rng([k, 0]))
            work = sum(ops.times)
            measured[which].append(work)
            normalized[which].append(speed.normalized(work, sampler.mean(first)))
        print(f"pair {k}: measured B/A {measured['B'][-1] / measured['A'][-1]:.4f}, "
              f"normalized B/A {normalized['B'][-1] / normalized['A'][-1]:.4f}", flush=True)
    if ops.failures:
        sys.exit(f"failed operations: {ops.failures[:3]}")

    def ratios(times):
        return {"ratio_of_medians": statistics.median(times["B"]) / statistics.median(times["A"]),
                "median_paired_ratio": statistics.median(
                    b / a for a, b in zip(times["A"], times["B"]))}
    print(json.dumps({"experiment": experiment, "pairs": pairs,
                      "measured": ratios(measured), "normalized": ratios(normalized)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
