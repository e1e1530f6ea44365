"""Store the reference outputs the benchmark checks against.

Usage, from the root of a checkout: python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each workload once at the benchmark seed and at the holdout seed and
writes perfbench/refs/<workload>/seed<N>.csv (the results.csv) and
seed<N>.verdicts.json. Run it only on the commit whose outputs are the
reference; later commits are checked against these files.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, child_env, run_child
from check import read_verdicts
from workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS


def main(names) -> int:
    env = child_env()
    for name in names or WORKLOADS:
        for seed in (DEFAULT_SEED, HOLDOUT_SEED):
            out_dir = ROOT / ".bench_out" / "refs" / name / str(seed)
            shutil.rmtree(out_dir, ignore_errors=True)
            report = run_child(name, seed, out_dir, env)
            if "error" in report:
                print(f"{name} seed {seed}: {report['error']}", file=sys.stderr)
                return 1
            dest = HERE / "refs" / name
            dest.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out_dir / "results.csv", dest / f"seed{seed}.csv")
            verdicts = read_verdicts(out_dir, report["exit_code"])
            (dest / f"seed{seed}.verdicts.json").write_text(
                json.dumps(verdicts, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: {report['wall_s']:.2f} s, verdicts {verdicts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
