"""The benchmark's own gates, run in-process through the replay script: each
workload's warm-up against ``perfbench/reference.json`` and one timed pass's
stream, the benchmark's seed 1, pass 0.  The benchmark's files are imported,
never changed; the CLI workload is left out, as its operations start
processes."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from replay_bench_gates import replay  # noqa: E402


@pytest.mark.parametrize("name", ["exact_chains", "lattice_moments", "series_asymptotic"])
def test_warmup_and_first_pass_pass_every_gate(name):
    attempted, failures = replay(name, [1], 1)
    assert attempted > 0
    assert failures == []
