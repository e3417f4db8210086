"""The benchmark's own gates, run in-process: each workload's warm-up against
``perfbench/reference.json`` and one timed pass's stream, the benchmark's
seed 1, pass 0.  The benchmark's files are imported, never changed; the CLI
workload is left out, as its operations start processes."""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads as wl  # noqa: E402


class NoSampler:
    """Stands in for the speed sampler: no handler, so no handler time."""

    spent_s = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


@pytest.mark.parametrize("name", ["exact_chains", "lattice_moments", "series_asymptotic"])
def test_warmup_and_first_pass_pass_every_gate(name):
    warmup, one_pass = wl.WORKLOADS[name]
    ref = wl.Reference(json.loads(wl.REFERENCE_PATH.read_text())[name])
    ops = wl.Ops(NoSampler())
    warmup(ops, ref, None)
    one_pass(ops, np.random.default_rng([1, 0]), ref, None)
    assert ops.attempted > 0
    assert ops.failures == []
