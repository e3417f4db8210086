"""Benchmark of choquet-dist: one workload per call, from the root of a checkout.

    python3 perfbench/run.py --workload exact_chains --seed 1 --seconds 25 --trace 0

Workloads: exact_chains, lattice_moments, series_asymptotic, cli_cold (see
WORKLOADS.md).  The library is imported from ``src/`` of the current
directory.  Set-up is timed from outside: this process starts the worker
SETUP_SAMPLES - 1 times with ``--setup-only`` and once for the real run, and
times each start until the worker reports ``ready``, each against a
reference start just before it.  The worker then runs passes for
``--seconds`` seconds.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed
from tracer import metric_names

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact_chains", "lattice_moments", "series_asymptotic", "cli_cold")
SETUP_SAMPLES = 5
# Set-up is mostly cold imports, whose speed on a shared machine drifts apart
# from the speed kernel's; so each set-up is timed against a cold start doing
# these imports just before it, and reported at the reference's nominal time.
REFERENCE_IMPORTS = "import numpy, scipy.special, scipy.integrate"
REFERENCE_NOMINAL_S = 0.5
WORKER_TIMEOUT_S = 150.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = root / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else text
    return text


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(len(os.sched_getaffinity(0)))  # no more BLAS threads than cores
    env.pop("CHOQUET_NMAX", None)
    return env


def reference_start(env) -> float:
    """Seconds of one cold interpreter start that imports REFERENCE_IMPORTS:
    import work of a fixed size, none of it in the checkout."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], env=env, check=True,
                   timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - t0


def start_worker(args, env, extra):
    """Start the worker; return (process, seconds from the start until it
    printed ``ready``, less the speed sampler's handler time in it)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    if len(line) != 2 or line[0] != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish set-up (printed {' '.join(line)!r})")
    return proc, wall - float(line[1])


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (len(values) - 10) / len(values), ordered[len(values) - 11]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "choquet_dist" / "__init__.py").is_file():
        print("error: run from the root of a choquet-dist checkout (no src/choquet_dist here)",
              file=sys.stderr)
        return 2
    env = worker_env(root)

    setups = []  # (seconds, seconds of the reference start just before)
    for _ in range(SETUP_SAMPLES - 1):
        ref_s = reference_start(env)
        proc, setup_s = start_worker(args, env, ["--setup-only"])
        proc.communicate(timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        setups.append((setup_s, ref_s))
    ref_s = reference_start(env)
    proc, setup_s = start_worker(
        args, env, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append((setup_s, ref_s))
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])

    passes = report["pass_s"]
    walls = report["pass_wall_s"]
    setup_norm = statistics.median(s / r * REFERENCE_NOMINAL_S for s, r in setups)
    setup_wall = statistics.median(s for s, _ in setups)
    fail_frac = report["failed"] / report["attempted"]
    machine = {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(root), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    print(f"# machine {json.dumps(machine)}")
    print(f"# pass times in normalized seconds (speed kernel at {speed.NOMINAL_S * 1e3:g} ms), "
          "set-up times at a reference start of "
          f"{REFERENCE_NOMINAL_S:g} s ({REFERENCE_IMPORTS!r}), measured seconds in brackets")
    print(f"# setup_s = {setup_norm:.4f} s [{setup_wall:.4f}]  (median of {len(setups)} set-ups; "
          f"reference start {statistics.median(r for _, r in setups):.4f} s)")
    print(f"# pass_s = {statistics.median(passes):.4f} s [{statistics.median(walls):.4f}]  "
          f"(median of {len(passes)} untraced passes)")
    t = tail(passes)
    print(f"# pass_s_tail = {t[1]:.4f} s  (p{t[0]:.0f} of {len(passes)} passes)" if t else
          f"# pass_s_tail = undefined  ({len(passes)} passes; needs at least 11)")
    print(f"# passes: {' '.join(f'{x:.3f}' for x in passes)} s "
          f"[{' '.join(f'{x:.3f}' for x in walls)}]")
    print(f"# fail_frac = {fail_frac:.6g}  ({report['failed']} of {report['attempted']} operations)")
    print(f"# peak_rss_mb = {report['peak_rss_mb']:.1f} MB"
          + ("  (largest CLI child)" if args.workload == "cli_cold" else ""))
    for failure in report["failures"]:
        print(f"# FAILED {failure}")

    if args.trace:
        # measured seconds next to the normalized end-to-end figures, so that a
        # claimed speed-up can be checked against raw time
        layers = dict(report["layers"], **{"wall.pass_s": statistics.median(walls),
                                           "wall.setup_s": setup_wall})
        print(f"# traced passes: {report['traced_passes']}; tracing overhead "
              f"{layers['trace.overhead_s']:.4f} s per pass")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in metric_names()}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "setup_s": {"value": setup_norm, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
