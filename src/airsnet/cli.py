"""Command-line interface.

Subcommands: validate, mean-snr-vs-pf, density-sweep, association-compare,
ring-sweep (experiments writing results.csv + summary.json + config.echo.json
into the output directory), plus glq-table and dump-dist inspection utilities
printing to stdout. Exit status is nonzero iff a validation tolerance fails
(1), or the configuration is invalid or a point cannot be evaluated (2).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .analytic import cascaded_mixture
from .config import ConfigError, EXPERIMENTS, effective_dict, parse_config
from .experiments import run_experiment
from .mathkit import DomainError, IntegrationError, gauss_laguerre
from .mixgamma import InvalidDistributionError, direct_power_dist

CSV_HEADER = "experiment,swept_name,swept_value,metric,method,value,std_error"
SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _write_outputs(out_dir: Path, cfg, rows, summary: dict, wall_time: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    cfg.experiment,
                    r.swept_name,
                    r.swept_value.replace(",", ";"),
                    r.metric,
                    r.method,
                    _fmt(r.value),
                    _fmt(r.std_error),
                ]
            )
        )
    (out_dir / "results.csv").write_bytes(("\n".join(lines) + "\n").encode("utf-8"))

    echo = effective_dict(cfg)
    (out_dir / "config.echo.json").write_bytes(
        (json.dumps(echo, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    full_summary = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "wall_time_s": wall_time,
        "unit_conversions": list(cfg.conversions),
        **summary,
    }
    (out_dir / "summary.json").write_bytes(
        (json.dumps(full_summary, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="JSON configuration file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key (repeatable)")
    sub.add_argument("--seed", type=int, default=None, help="64-bit run seed")
    sub.add_argument("--out", metavar="DIR", default=None, help="output directory")
    # the benchmark (perfbench/workloads.py) passes --threads 1 to every
    # workload; the flag takes that one value and sets nothing
    sub.add_argument("--threads", type=int, choices=(1,), help=argparse.SUPPRESS)
    sub.add_argument("--tolerance", type=float, default=None,
                     help="closed-form vs quadrature tolerance for validate")


def _cmd_experiment(name: str, args: argparse.Namespace) -> int:
    cfg = parse_config(args.config, args.overrides, experiment=name, seed=args.seed,
                       tolerance=args.tolerance)
    for note in cfg.conversions:
        print(f"note: {note}", file=sys.stderr)
    start = time.monotonic()
    rows, summary, exit_code = run_experiment(cfg)
    wall = time.monotonic() - start
    out_dir = Path(args.out) if args.out else Path("runs") / name
    _write_outputs(out_dir, cfg, rows, summary, wall)
    print(f"{name}: {len(rows)} rows -> {out_dir}/results.csv "
          f"(exit {exit_code}, {wall:.1f}s)")
    if name == "validate":
        for check, info in summary["checks"].items():
            print(f"  {'PASS' if info['passed'] else 'FAIL'} {check}")
    return exit_code


def _cmd_glq_table(args: argparse.Namespace) -> int:
    rule = gauss_laguerre(args.order)
    print("index,node,weight")
    for i, (t, w) in enumerate(zip(rule.nodes, rule.weights), start=1):
        print(f"{i},{format(t, '.18g')},{format(w, '.18g')}")
    return 0


def _cmd_dump_dist(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config, args.overrides)
    net = cfg.network
    if args.kind == "direct":
        dist = direct_power_dist(net.m_bu, net.path_gain(cfg.d_bu))
    else:
        dist = cascaded_mixture(cfg.d_bi, cfg.d_iu, net)
    print(json.dumps(dist.to_json_obj(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airsnet",
        description="Amplifying-reflector network performance: analytics vs Monte Carlo",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sub = subs.add_parser(name, help=f"run the {name} experiment")
        _add_experiment_flags(sub)
    glq = subs.add_parser("glq-table", help="print Gauss-Laguerre nodes/weights as CSV")
    glq.add_argument("--order", type=int, required=True)
    dump = subs.add_parser("dump-dist", help="print a channel-power mixture as JSON")
    dump.add_argument("--kind", choices=("direct", "cascaded"), default="cascaded")
    dump.add_argument("--config", metavar="PATH")
    dump.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="KEY=VALUE")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "glq-table":
            return _cmd_glq_table(args)
        if args.command == "dump-dist":
            return _cmd_dump_dist(args)
        return _cmd_experiment(args.command, args)
    except (ConfigError, DomainError, IntegrationError, InvalidDistributionError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
