"""One benchmark process: set up a workload, then run timed passes.

    python perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
    python perfbench/worker.py --workload W --seed S --setup-only
    python perfbench/worker.py --write-reference

``run.py`` starts this with the checkout's ``src`` on PYTHONPATH.  Set-up
(importing choquet_dist, then a warm-up on fixed inputs gated against
``reference.json``) ends with the line ``ready <sampler seconds>``, the
speed sampler's handler time inside the warm-up operations; the parent
times the process start up to that line.  The last line is a JSON report of
the passes.  With ``--trace 1`` the first half of the run is untraced and the
second half traced (without the speed sampler, whose handler would land in
the spans), so the tracing overhead is measured in one process.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import speed
import workloads as wl
from tracer import Tracer, per_pass

WORKDIR = Path(".perfbench_out")


def _context(traced: bool, sampler) -> SimpleNamespace:
    WORKDIR.mkdir(exist_ok=True)
    runner = wl.CliRunner(Path.cwd(), dict(os.environ), traced, WORKDIR, sampler)
    return SimpleNamespace(workdir=WORKDIR, cli=runner)


def write_reference(sampler) -> None:
    """Store the outputs of each warm-up, and of the fixed-input calls of one
    pass, as the references later runs are gated against."""
    recorded = {}
    for name, (warmup, one_pass) in wl.WORKLOADS.items():
        ops = wl.Ops(sampler)
        ref = wl.Reference(None)
        ctx = _context(False, sampler)
        warmup(ops, ref, ctx)
        one_pass(ops, np.random.default_rng([wl.REF_SEED, 0]), ref, ctx)
        if ops.failures:
            sys.exit(f"{name}: {ops.failures}")
        recorded[name] = ref.recorded
    wl.REFERENCE_PATH.write_text(json.dumps(recorded, indent=0) + "\n")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()

    sampler = speed.SpeedSampler()
    if args.write_reference:
        write_reference(sampler)
        return 0
    if args.workload not in wl.WORKLOADS:
        p.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    warmup, one_pass = wl.WORKLOADS[args.workload]
    ref = wl.Reference(json.loads(wl.REFERENCE_PATH.read_text())[args.workload])
    ctx = _context(False, sampler)
    ops = wl.Ops(sampler)
    warmup(ops, ref, ctx)
    print(f"ready {sampler.spent_s!r}", flush=True)
    if args.setup_only:
        return 0

    passes = 0

    def run_passes(until: float) -> list[tuple[float, float]]:
        """Passes while the next one is expected to end by ``until`` (at least
        one); each entry is (seconds, normalized seconds) of one pass."""
        nonlocal passes
        done, last = [], 0.0
        while not done or time.perf_counter() + last <= until:
            t0 = time.perf_counter()
            first = len(sampler.samples)
            ops.times = []
            one_pass(ops, np.random.default_rng([args.seed, passes]), ref, ctx)
            passes += 1
            work = sum(ops.times)
            done.append((work, speed.normalized(work, sampler.mean(first))))
            last = time.perf_counter() - t0
        return done

    start = time.perf_counter()
    tracer = None
    if args.trace:
        untraced = run_passes(start + args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        ops.tracer = tracer
        sampler.enabled = False
        ctx = _context(True, sampler)
        traced = run_passes(start + args.seconds)
    else:
        untraced = run_passes(start + args.seconds)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "failures": [f"{label}: {msg}" for label, msg in ops.failures[:20]],
        "pass_wall_s": [w for w, _ in untraced],
        "pass_s": [n for _, n in untraced],
        # the CLI workload's work happens in its children; the others in-process
        "peak_rss_mb": (child_kb if args.workload == "cli_cold" else self_kb) / 1024.0,
    }
    if tracer is not None:
        totals = tracer.totals()
        for key, val in ctx.cli.totals.items():
            totals[key] = totals.get(key, 0.0) + val
        layers = per_pass(totals, len(traced))
        # measured seconds: traced passes run without the speed sampler
        layers["trace.pass_s"] = float(np.median([w for w, _ in traced]))
        layers["trace.overhead_s"] = float(np.median([w for w, _ in traced])
                                           - np.median([w for w, _ in untraced]))
        report["layers"] = layers
        report["traced_passes"] = len(traced)
        tracer.save(WORKDIR / f"spans-{args.workload}.npz")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
