"""Run one workload's experiment in this (fresh) process and report on stdout.

Usage: python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace]

Prints one JSON line: wall_s (time of airsnet.cli.main, i.e. one experiment
to its written outputs), exit_code, peak_rss_mb and, with --trace, the
per-layer metrics; traced runs also write DIR/spans.csv. The caller sets
PYTHONPATH to the checkout's src/ and pins the BLAS threads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import cli_args


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from airsnet import cli

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    report: dict = {}
    start = time.perf_counter()
    try:
        # The CLI's progress lines go to stderr so stdout carries only the report.
        with contextlib.redirect_stdout(sys.stderr):
            report["exit_code"] = cli.main(cli_args(args.workload, args.seed, args.out))
    except Exception:  # reported to the parent, which counts every output as failed
        traceback.print_exc()
        report["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
    report["wall_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from tracer import layer_metrics

        report["layers"] = layer_metrics(tracer, report["wall_s"])
        Path(args.out).mkdir(parents=True, exist_ok=True)
        tracer.write_spans(Path(args.out) / "spans.csv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
