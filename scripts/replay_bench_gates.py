#!/usr/bin/env python3
"""Replay the benchmark's timed passes in-process and report every failed gate.

    PYTHONPATH=src python scripts/replay_bench_gates.py --workload exact_chains \
        --seeds 1,2,3 --passes 35

The workload's warm-up runs once against ``perfbench/reference.json``.  Then,
for each seed S and k = 0..K-1, the k-th pass of ``perfbench/run.py --seed S``
runs on its own stream, ``np.random.default_rng([S, k])``, through the same
gates.  perfbench's files are imported, never changed, and a stand-in takes
the speed sampler's place.  Each failed operation is printed as seed, pass,
operation and gate message; the exit status is 1 if any failed.  cli_cold is
not offered: its operations start processes.
"""
import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads as wl  # noqa: E402

IN_PROCESS = ("exact_chains", "lattice_moments", "series_asymptotic")


class NoSampler:
    """Stands in for the speed sampler: no handler, so no handler time."""

    spent_s = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


def replay(workload: str, seeds, passes: int):
    """Run the warm-up, then passes 0..passes-1 of each seed.  Returns the
    number of operations attempted and the failures as (seed, pass, operation,
    message); the warm-up's have seed and pass None."""
    warmup, one_pass = wl.WORKLOADS[workload]
    ref = wl.Reference(json.loads(wl.REFERENCE_PATH.read_text())[workload])
    ops = wl.Ops(NoSampler())
    failures = []

    def run(seed, k, fn, *args):
        seen = len(ops.failures)
        fn(ops, *args, ref, None)
        failures.extend((seed, k, label, msg) for label, msg in ops.failures[seen:])

    run(None, None, warmup)
    for seed in seeds:
        for k in range(passes):
            run(seed, k, one_pass, np.random.default_rng([seed, k]))
    return ops.attempted, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=IN_PROCESS)
    ap.add_argument("--seeds", required=True,
                    type=lambda s: [int(v) for v in s.split(",")],
                    help="comma-separated benchmark seeds, e.g. 1,2,3")
    ap.add_argument("--passes", required=True, type=int,
                    help="passes per seed, numbered from 0")
    args = ap.parse_args()
    attempted, failures = replay(args.workload, args.seeds, args.passes)
    for seed, k, label, msg in failures:
        where = "warm-up" if seed is None else f"seed {seed} pass {k}"
        print(f"FAILED {where}: {label}: {msg}")
    print(f"{args.workload}: seeds {','.join(map(str, args.seeds))} x {args.passes} passes, "
          f"{len(failures)} of {attempted} operations failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
