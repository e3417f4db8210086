"""Machine-speed sampling, so that times from a shared machine can be compared.

On a VM whose cores are shared with other tenants, each core flips between
a fast state and one about 1.7x slower, for a fraction of a second up to
minutes, in CPU time as much as in wall time.  While an operation runs, a
SIGALRM handler runs a fixed kernel every INTERVAL_S on the same core and
times it.  The operation's time minus the handler's time, scaled by
NOMINAL_S over the mean kernel time, is its time at a nominal speed
("normalized seconds").  On the 2-core VM this was built on, normalization
cut the run-to-run spread of pass times (interquartile range over median,
ten seeds) from 15-27% to 2-7%.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.001  # kernel time that normalized seconds refer to
INTERVAL_S = 0.02
KERNEL_STEPS = 600
SPIKE = 3.0
_A = np.linspace(0.0, 1.0, 16)


def kernel() -> float:
    """Fixed mix of interpreter work and small-array numpy calls, like most
    of choquet_dist's hot loops.  Uses nothing from the library."""
    s = 0.0
    for i in range(KERNEL_STEPS):
        b = _A * 1.5 + 0.25
        s += float(b[3]) * 0.5 + i % 7
    return s


def probe() -> float:
    """Seconds taken by one kernel run now.  The cyclic garbage collector is
    held off meanwhile: a collection of the caller's garbage (heavy during
    imports) is not machine speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Context manager that samples the kernel every INTERVAL_S while active.

    Only one may exist per process (it owns SIGALRM).  It samples the core the
    process runs on, so work in a child process is sampled by the child
    (``cli_child.py``) and merged here with ``add``.  Nested use is allowed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0  # handler time, to subtract from measured times
        self._depth = 0
        self.enabled = True  # off while traced: no handler time inside spans
        kernel()  # the first run pays one-off costs that are not speed
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        dt = probe()
        self.samples.append(dt)
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        if self._depth == 0 and self.enabled:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._depth += 1
        return self

    def __exit__(self, *exc):
        self._depth -= 1
        if self._depth == 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def add(self, samples: list[float], spent_s: float) -> None:
        """Merge the samples a child process took while it ran."""
        self.samples.extend(samples)
        self.spent_s += spent_s

    def mean(self, first: int = 0) -> float:
        """Mean kernel time since sample ``first``; the samples are evenly
        spaced in time, so this is a time average of the speed.  Samples over
        SPIKE x the median are dropped: the slow state is under 2x, while
        samples taken during imports sometimes stall for 5x."""
        samples = self.samples[first:] or [probe()]
        cap = SPIKE * statistics.median(samples)
        return statistics.mean(x for x in samples if x <= cap)


def normalized(seconds: float, mean_kernel_s: float) -> float:
    """``seconds`` of work at the nominal speed."""
    return seconds * NOMINAL_S / mean_kernel_s
