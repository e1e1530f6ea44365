"""Every benchmark workload still reproduces its stored reference.

perfbench/run.py checks each run's outputs against perfbench/refs, and a run
whose outputs fail counts as failed operations. Running each workload once
in process at the benchmark seed keeps that check in the tier-1 suite, so a
change that moves a reference row fails here rather than only in
`perfbench/run.py`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from check import compare, read_rows, read_verdicts  # noqa: E402
from run import reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, cli_args  # noqa: E402

from airsnet import cli  # noqa: E402


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_matches_its_reference(workload, tmp_path):
    code = cli.main(cli_args(workload, DEFAULT_SEED, str(tmp_path)))
    rows = read_rows((tmp_path / "results.csv").read_text(encoding="utf-8"))
    ref_rows, ref_verdicts = reference(workload, DEFAULT_SEED)
    _, failures = compare(rows, read_verdicts(tmp_path, code), ref_rows, ref_verdicts)
    assert failures == []
