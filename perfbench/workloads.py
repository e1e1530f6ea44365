"""The benchmark's workloads: one airsnet CLI experiment each.

Each workload is sized so that one experiment takes a few seconds on a
2-core machine and a run can take the median of several; the sizing keeps the
per-call shapes of the default config (draws per MC call, rows per channel
call, quadratures per drop), so the layer that dominates the default
experiment also dominates here. BENCHMARK.json gives each workload's reason
and README.md the prediction table.

Every experiment runs on one thread. On a 2-vCPU virtual machine the host
takes back much of the second vCPU once both are busy (steal time 4-33% of
CPU time with density-sweep --threads 2, against about 2% with one thread),
so a 2-thread run times the host's scheduler rather than airsnet.
"""

from __future__ import annotations

DEFAULT_SEED = 12345
HOLDOUT_SEED = 777

WORKLOADS = {
    "ring": {
        "experiment": "ring-sweep",
        "overrides": ["ring_l_in_grid_m=[90]", "ring_l_out_grid_m=[130]"],
    },
    "validate": {
        "experiment": "validate",
        "overrides": ["validate_n_list=[64]", "validate_d_bi_m=[100]",
                      "validate_d_iu_m=[10,60]", "validate_p_f_w=[0.001,0.1]",
                      "n_mc_physical=50000"],
    },
    "cell": {
        "experiment": "density-sweep",
        "overrides": ["sweep_n_drops=200"],
    },
    "assoc-nakagami": {
        "experiment": "association-compare",
        "overrides": ["m_iu=2", "assoc_n_list=[16]", "assoc_n_drops=1", "k_ues=25"],
    },
}


def cli_args(name: str, seed: int, out_dir: str) -> list[str]:
    """The airsnet CLI arguments that run workload `name`."""
    w = WORKLOADS[name]
    args = [w["experiment"], "--seed", str(seed), "--threads", "1", "--out", out_dir]
    for item in w["overrides"]:
        args += ["--set", item]
    return args
