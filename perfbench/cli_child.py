"""One ``choquet-dist`` subcommand in a fresh process, for the cli_cold workload.

    python [-X importtime] perfbench/cli_child.py RECORD.json TRACE <subcommand> [args...]

Runs the CLI exactly as ``python -m choquet_dist.cli`` would, with the speed
sampler on from the import of ``choquet_dist.cli`` to the exit.  RECORD.json
receives the speed samples or, with TRACE = 1 (no sampling then), the
per-layer record of the benchmark tracer (spans go next to it, .npz) plus the
import and subcommand times.  The exit status and stdout are those of the CLI.
"""
import time

START = time.perf_counter()  # cli.import_s counts numpy, imported first here

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (the perfbench directory is sys.path[0])

sampler = speed.SpeedSampler()


def main() -> int:
    record_path, traced, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    record = {}
    sampler.enabled = not traced
    with sampler:
        import choquet_dist.cli as cli
        record["cli.import_s"] = time.perf_counter() - START
        if traced:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            tracer.active = True
        t0 = time.perf_counter()
        try:
            return cli.main(argv)
        finally:
            record[f"cli.{argv[0]}_s"] = time.perf_counter() - t0
            if traced:
                tracer.active = False
                record.update(tracer.totals())
                tracer.save(record_path.with_suffix(".npz"))
            record["samples"] = sampler.samples
            record["spent_s"] = sampler.spent_s
            record_path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
