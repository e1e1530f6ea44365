"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import UNDECIDED, compare, read_rows  # noqa: E402
from run import child_env, reference, run_traced  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def _validate_ref():
    return reference("validate", DEFAULT_SEED)


def test_reference_matches_itself():
    rows, verdicts = _validate_ref()
    attempted, failures = compare(rows, verdicts, rows, verdicts)
    assert attempted == len(rows) + len(verdicts) + 1  # +1: model_mc_agreement against its rows
    assert failures == []


def test_perturbed_analytic_row_is_flagged():
    rows, verdicts = _validate_ref()
    key = next(k for k in rows if k[4] == "quadrature" and k[3] == "mean_snr")
    value, se = rows[key]
    got = {**rows, key: (value * (1 + 1e-6), se)}
    _, failures = compare(got, verdicts, rows, verdicts)
    assert len(failures) == 1 and str(key) in failures[0]


def test_perturbed_mc_row_is_flagged_only_beyond_its_error():
    rows, verdicts = _validate_ref()
    key = next(k for k in rows if k[3] == "mean_snr_physical" and rows[k][1] > 0)
    value, se = rows[key]
    near = {**rows, key: (value + 2 * se, se)}
    assert compare(near, verdicts, rows, verdicts)[1] == []
    far = {**rows, key: (value + 10 * se, se)}
    assert len(compare(far, verdicts, rows, verdicts)[1]) == 1


def test_flipped_or_missing_outputs_are_flagged():
    rows, verdicts = _validate_ref()
    assert verdicts["check.passive_baseline"] is False  # criterion 06 stays red
    flipped = {**verdicts, "check.passive_baseline": True}
    assert len(compare(rows, flipped, rows, verdicts)[1]) == 1
    missing = dict(list(rows.items())[1:])
    assert len(compare(missing, verdicts, rows, verdicts)[1]) == 1


def test_model_mc_verdict_follows_the_rows_at_any_seed():
    """model_mc_agreement is a 3-SE test on MC output, so at a seed without a
    stored reference it may fail on correct code; it must agree with the rows."""
    rows, verdicts = _validate_ref()
    key = next(k for k in rows if k[1] == "point" and k[4] == "monte_carlo")
    closed, _ = rows[(*key[:3], "mean_snr", "closed_form")]
    se = rows[key][1]
    outlier = {**rows, key: (closed + 3.5 * se, se)}  # a 3.5 SE draw, within 5 SE of the reference
    red = {**verdicts, "check.model_mc_agreement": False}
    other_rows, other_seed = reference("validate", DEFAULT_SEED + 1)
    assert other_seed["check.model_mc_agreement"] == UNDECIDED
    assert compare(outlier, red, other_rows, other_seed)[1] == []
    assert len(compare(outlier, verdicts, other_rows, other_seed)[1]) == 1  # green, rows say red
    assert len(compare(rows, red, other_rows, other_seed)[1]) == 1  # red, rows say green
    assert len(compare(outlier, red, rows, verdicts)[1]) == 1  # the reference's own seed binds


def test_repeated_row_is_flagged():
    text = (HERE / "refs" / "ring" / f"seed{DEFAULT_SEED}.csv").read_text(encoding="utf-8")
    rows = read_rows(text)
    repeated = read_rows(text + text.strip().splitlines()[-1] + "\n")
    extra = [key for key in repeated if key not in rows]
    assert len(extra) == 1
    assert compare(repeated, {}, rows, {}) == (len(rows) + 1, [f"unexpected row {extra[0]}"])


def test_undecided_interior_max_matches_either_outcome():
    rows, verdicts = reference("cell", DEFAULT_SEED)
    assert verdicts["active.interior_max"] is False  # criterion 08a stays red
    assert verdicts["passive.interior_max"] == UNDECIDED
    for outcome in (True, False):
        got = {**verdicts, "passive.interior_max": outcome}
        assert compare(rows, got, rows, verdicts)[1] == []
    got = {**verdicts, "active.interior_max": True}
    assert len(compare(rows, got, rows, verdicts)[1]) == 1


def test_traced_run_passes_its_self_checks(tmp_path):
    """Traced results.csv files are byte-identical to untraced ones and the
    counts of two traced runs are equal. Uses `cell`, whose drop count is
    exact: 2 modes x 6 values of M x 200 drops.
    """
    result = run_traced("cell", DEFAULT_SEED, tmp_path, child_env(),
                        reference("cell", DEFAULT_SEED))
    assert result["failures"] == []
    assert result["metrics"]["simulate.drop.calls"] == {"value": 2400, "unit": "count"}
    assert result["metrics"]["channel.batch.rows"]["value"] > 0
