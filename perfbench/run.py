"""airsnet benchmark: run one workload (or all) and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring --seed 12345 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each experiment runs in a fresh child process with PYTHONPATH=src and the
BLAS pinned to one thread, one experiment at a time (a closed loop with one
caller). With --trace 0 the run repeats the experiment until --seconds is
spent and reports medians of the end-to-end metrics: wall_s, setup_s and
peak_rss_mb. With --trace 1 it runs the experiment once untraced and once
under the tracer and reports the per-layer metrics. Every run checks the
outputs against perfbench/refs. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a record with the
environment, every repetition and every failed output goes to
.bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import (SEED_DEPENDENT_VERDICTS, UNDECIDED, compare, mc_rel_se,  # noqa: E402
                   read_rows, read_verdicts)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_REPS = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

SETUP_CODE = """
import sys
import airsnet
from airsnet.config import parse_config
from airsnet.mathkit import gauss_laguerre
cfg = parse_config(None, sys.argv[2:], experiment=sys.argv[1])
gauss_laguerre(cfg.network.glq_order)
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
    }


def setup_sample(workload, env) -> float:
    """Wall time of one fresh interpreter through the first Gauss-Laguerre rule."""
    w = WORKLOADS[workload]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, w["experiment"], *w["overrides"]],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms, which
    # would quantize a 0.2 s measurement, so a timer enforces the time limit.
    guard = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    guard.start()
    try:
        code = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def run_child(workload, seed, out_dir: Path, env, trace=False) -> dict:
    """One experiment in a fresh process; returns its report (or an error)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir)] + (["--trace"] if trace else [])
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "timeout", "wall_s": time.perf_counter() - start}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"error": f"child exited {proc.returncode}", "wall_s": time.perf_counter() - start}
    return json.loads(lines[-1])


def reference(workload, seed):
    """The stored reference at this seed if there is one, else at the benchmark seed.

    A reference from another seed leaves the seed-dependent verdicts undecided.
    """
    ref_seed = seed if (HERE / "refs" / workload / f"seed{seed}.csv").is_file() else DEFAULT_SEED
    base = HERE / "refs" / workload / f"seed{ref_seed}"
    rows = read_rows(base.with_suffix(".csv").read_text(encoding="utf-8"))
    verdicts = json.loads(base.with_suffix(".verdicts.json").read_text(encoding="utf-8"))
    if ref_seed != seed:
        verdicts = {k: UNDECIDED if k in SEED_DEPENDENT_VERDICTS else v for k, v in verdicts.items()}
    return rows, verdicts


def check_outputs(report, out_dir: Path, ref) -> tuple[int, list[str], dict]:
    """Compare one experiment's outputs with the reference; a crash fails every output."""
    ref_rows, ref_verdicts = ref
    if "error" in report or not (out_dir / "results.csv").is_file():
        n = len(ref_rows) + len(ref_verdicts)
        return n, [f"run failed: {report.get('error', 'no results.csv')}"] * n, {}
    rows = read_rows((out_dir / "results.csv").read_text(encoding="utf-8"))
    verdicts = read_verdicts(out_dir, report["exit_code"])
    attempted, failures = compare(rows, verdicts, ref_rows, ref_verdicts)
    return attempted, failures, rows


def run_untraced(workload, seed, seconds, run_dir, env, ref) -> dict:
    """Repeat the experiment until `seconds` is spent (at least MIN_REPS times).

    One set-up sample is taken before each repetition, so both medians cover
    the whole run rather than one stretch of it.
    """
    start = time.perf_counter()
    setup_sample(workload, env)  # warms the file cache; not counted
    setup, reps, attempted, failures = [], [], 0, []
    while True:
        rep_start = time.perf_counter()
        setup.append(setup_sample(workload, env))
        out_dir = run_dir / f"rep{len(reps)}"
        report = run_child(workload, seed, out_dir, env)
        n, fails, rows = check_outputs(report, out_dir, ref)
        attempted += n
        failures += fails
        q = mc_rel_se(rows) if rows else None
        reps.append({**report, "rep_s": time.perf_counter() - rep_start,
                     "mc_time_to_1pct_s": None if q is None else report["wall_s"] * (q / 0.01) ** 2})
        shutil.rmtree(out_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        next_rep = statistics.median(r["rep_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + next_rep > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload, env))
    setup_s = statistics.median(setup)
    mc = [r["mc_time_to_1pct_s"] for r in reps if r["mc_time_to_1pct_s"] is not None]
    return {
        "metrics": {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.get("peak_rss_mb", 0.0) for r in reps),
                            "unit": "MB"},
        },
        "mc_time_to_1pct_s": statistics.median(mc) if mc else None,
        "attempted": attempted,
        "failures": failures,
        "setup_samples": setup,
        "reps": reps,
    }


COUNT_SUFFIXES = ("calls", "points", "draws", "rows", "integration_errors", "mc_draws")


def run_traced(workload, seed, run_dir, env, ref) -> dict:
    """Untraced, traced, traced, untraced: per-layer metrics plus the self-checks.

    Both traced results.csv files must be byte-identical to the untraced ones
    and the two traced runs must give identical counts. Times are the mean of
    the two traced runs; the ABBA order keeps a drift in machine speed out of
    trace.overhead_frac.
    """
    order = [("untraced0", False), ("traced0", True), ("traced1", True), ("untraced1", False)]
    reports = {name: run_child(workload, seed, run_dir / name, env, trace=trace)
               for name, trace in order}
    attempted, failures = 0, []
    for name in reports:
        n, fails, _ = check_outputs(reports[name], run_dir / name, ref)
        attempted += n
        failures += fails
    expected = run_dir / "untraced0" / "results.csv"
    for name in ("untraced1", "traced0", "traced1"):
        attempted += 1
        got = run_dir / name / "results.csv"
        if not (expected.is_file() and got.is_file() and got.read_bytes() == expected.read_bytes()):
            failures.append(f"{name}/results.csv differs from untraced0/results.csv")
    t0, t1 = (reports[name].get("layers", {}) for name in ("traced0", "traced1"))
    counts = [k for k in t0 if k.endswith(COUNT_SUFFIXES)]
    attempted += 1
    if not t0 or any(t0[k] != t1.get(k) for k in counts):
        failures.append("per-layer counts differ between the two traced runs")
    layers = {k: t0[k] if k in counts else 0.5 * (t0[k] + t1.get(k, t0[k])) for k in t0}
    wall = {name: reports[name]["wall_s"] for name in reports}
    layers["trace.overhead_frac"] = ((wall["traced0"] + wall["traced1"])
                                     / (wall["untraced0"] + wall["untraced1"]) - 1.0)
    metrics = {k: {"value": v, "unit": "count" if k in counts else
                   "frac" if k == "trace.overhead_frac" else "s"}
               for k, v in layers.items()}
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "reps": [{k: v for k, v in reports[name].items() if k != "layers"}
                     | {"name": name} for name in reports]}


def run_one(workload, seed, seconds, trace, env_info) -> dict:
    env = child_env()
    run_dir = ROOT / ".bench_out" / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ref = reference(workload, seed)
    if trace:
        result = run_traced(workload, seed, run_dir, env, ref)
    else:
        result = run_untraced(workload, seed, seconds, run_dir, env, ref)
    result["workload"] = workload
    result["environment"] = env_info
    (run_dir / "record.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def summary_line(result) -> str:
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    frac = len(result["failures"]) / result["attempted"]
    parts.append(f"rows_failed_frac={frac:.6g} frac")
    if "mc_time_to_1pct_s" in result:
        mc = result["mc_time_to_1pct_s"]
        parts.append("mc_time_to_1pct_s=" + ("n/a" if mc is None else f"{mc:.6g} s"))
    return f"{result['workload']}: " + ", ".join(parts)


def result_json(results) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "airsnet" / "__init__.py").is_file():
        print(f"error: no airsnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env_info = environment(args.seed)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_info.items()))
    results = []
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace), env_info)
        results.append(result)
        print(summary_line(result))
        for failure in result["failures"][:10]:
            print(f"  FAILED {failure}")
    print(result_json(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
