"""Check one experiment's outputs against a stored reference.

An output is a results.csv row or a verdict (validate's per-check pass/fail,
density-sweep's interior_max, the CLI exit code). Analytic rows must agree
within ANALYTIC_REL_TOL relative; rows that are themselves error diagnostics
(metric ending in `_err`) within ANALYTIC_REL_TOL absolute; Monte-Carlo rows
within MC_Z combined standard errors, which also holds between independent
seeds, so one reference checks every seed. Verdicts must be equal; the two
documented reds (validate's passive_baseline and density-sweep's
interior_max=false) are stored as they are and so must stay red. An
interior_max verdict whose sweep has no clear winner (the best M leads some
other M by less than ARGMAX_Z combined standard errors, as on the flat passive
sweep) is stored as "undecided" and matches either outcome: its argmax is
noise and flips between seeds. validate's model_mc_agreement is a
significance test on Monte-Carlo output: correct code fails it at a few
percent of seeds. So its reference verdict binds only at the reference's own
seed, and at every seed the verdict must follow from the run's own rows.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

ANALYTIC_REL_TOL = 1e-8
MC_Z = 5.0
ARGMAX_Z = 3.0
UNDECIDED = "undecided"
MODEL_MC_Z = 3.0  # model_mc_agreement: every model-MC mean_snr within this many SE of closed form
SEED_DEPENDENT_VERDICTS = ("check.model_mc_agreement",)


def read_rows(text: str) -> dict[tuple, tuple[float, float]]:
    """results.csv text -> {(experiment, swept_name, swept_value, metric, method): (value, se)}."""
    lines = text.strip().splitlines()
    rows = {}
    for line in lines[1:]:
        experiment, swept_name, swept_value, metric, method, value, se = line.split(",")
        key = (experiment, swept_name, swept_value, metric, method)
        while key in rows:  # a repeated row is kept apart, so it fails as unexpected
            key = (*key, "repeated")
        rows[key] = (float(value), float(se))
    return rows


def read_verdicts(out_dir: Path, exit_code) -> dict[str, object]:
    verdicts: dict[str, object] = {"exit_code": exit_code}
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if "checks" in summary:
        for name, info in summary["checks"].items():
            verdicts[f"check.{name}"] = info["passed"]
    for mode in ("active", "passive"):
        if isinstance(summary.get(mode), dict) and "interior_max" in summary[mode]:
            sweep = summary[mode]
            decided = _argmax_decided(sweep["throughput"], sweep["std_error"])
            verdicts[f"{mode}.interior_max"] = sweep["interior_max"] if decided else UNDECIDED
    return verdicts


def _argmax_decided(means, ses) -> bool:
    """True if the best value leads every other by ARGMAX_Z combined standard errors."""
    best = max(range(len(means)), key=means.__getitem__)
    return all(means[best] - means[i] >= ARGMAX_Z * math.hypot(ses[best], ses[i])
               for i in range(len(means)) if i != best)


def model_mc_verdict(rows) -> bool:
    """validate's model_mc_agreement recomputed from its results.csv rows."""
    missing = (math.nan, math.nan)  # a missing closed-form row makes the verdict False
    for key, (mc, se) in rows.items():
        if key[1] == "point" and key[3:] == ("mean_snr", "monte_carlo"):
            closed, _ = rows.get((*key[:3], "mean_snr", "closed_form"), missing)
            if not (se > 0 and abs(mc - closed) <= MODEL_MC_Z * se):
                return False
    return True


def _mc_se(key, rows) -> float:
    """Standard error of a MC row; relative_gap rows carry none of their own.

    relative_gap = |physical - closed| / closed, so its error is the physical
    estimate's standard error divided by the closed-form value.
    """
    if key[3] != "relative_gap":
        return rows[key][1]
    base = key[:3]
    missing = (math.nan, math.nan)  # a missing companion row makes the check fail
    _, se_phys = rows.get((*base, "mean_snr_physical", "monte_carlo"), missing)
    closed, _ = rows.get((*base, "mean_snr", "closed_form"), missing)
    return se_phys / abs(closed)


def row_matches(key, got_rows, ref_rows) -> bool:
    got, _ = got_rows[key]
    ref, _ = ref_rows[key]
    if not math.isfinite(got):
        return False
    if key[4] == "monte_carlo":
        return abs(got - ref) <= MC_Z * math.hypot(_mc_se(key, got_rows), _mc_se(key, ref_rows))
    if key[3].endswith("_err"):
        return abs(got - ref) <= ANALYTIC_REL_TOL
    return abs(got - ref) <= ANALYTIC_REL_TOL * abs(ref)


def compare(got_rows, got_verdicts, ref_rows, ref_verdicts) -> tuple[int, list[str]]:
    """Returns (outputs checked, descriptions of the outputs that failed)."""
    failures = []
    for key in ref_rows:
        if key not in got_rows:
            failures.append(f"missing row {key}")
        elif not row_matches(key, got_rows, ref_rows):
            failures.append(f"row {key}: got {got_rows[key]}, reference {ref_rows[key]}")
    for name, ref in ref_verdicts.items():
        if ref != UNDECIDED and got_verdicts.get(name) != ref:
            failures.append(f"verdict {name}: got {got_verdicts.get(name)}, reference {ref}")
    derived = 0
    if "check.model_mc_agreement" in got_verdicts:
        derived = 1
        got, want = got_verdicts["check.model_mc_agreement"], model_mc_verdict(got_rows)
        if got != want:
            failures.append(f"verdict check.model_mc_agreement: got {got}, its rows give {want}")
    unexpected = [f"row {key}" for key in got_rows if key not in ref_rows]
    unexpected += [f"verdict {name}" for name in got_verdicts if name not in ref_verdicts]
    failures += [f"unexpected {what}" for what in unexpected]
    return len(ref_rows) + len(ref_verdicts) + len(unexpected) + derived, failures


def mc_rel_se(rows) -> float | None:
    """Median relative standard error over MC rows with a positive one."""
    rel = [se / abs(v) for (*_, method), (v, se) in rows.items()
           if method == "monte_carlo" and se > 0 and v != 0]
    return statistics.median(rel) if rel else None
