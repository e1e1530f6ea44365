import csv
import json
import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from airsnet import analytic, simulate
from airsnet.cli import main
from airsnet.config import (ConfigError, ExperimentConfig, NetworkConfig, effective_dict,
                            parse_config)
from airsnet.experiments import run_experiment
from airsnet.mathkit import IntegrationError, gauss_laguerre
from airsnet.mixgamma import MixtureGamma


FAST_VALIDATE = [
    "--set", "validate_m_iu_list=[1,2]",
    "--set", "validate_n_list=[16]",
    "--set", "validate_d_bi_m=[100]",
    "--set", "validate_d_iu_m=[30]",
    "--set", "validate_p_f_w=[0.01]",
    "--set", "n_mc_model=20000",
    "--set", "n_mc_physical=20000",
    "--set", "pf_grid_w=[0.001,0.01,0.1,1.0]",
]


class TestParseConfig:
    def test_empty_file_gives_paper_baseline(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = parse_config(str(path))
        net = cfg.network
        assert net.alpha == 3.0
        assert net.p_t == 1.0
        assert net.l == 200.0
        assert net.sigma2 == pytest.approx(1e-11)
        assert net.sigma_f2 == pytest.approx(1e-10)

    def test_geometry_invariant_violation(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"l_in_m": 150, "l_out_m": 100}))
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"banana": 1}))
        with pytest.raises(ConfigError, match="banana"):
            parse_config(str(path))

    @pytest.mark.parametrize("item", [
        "sigma2_dbm=-80", "sigma_f2_dbm=-70", "tolerance=1e-6", "assoc_threshold=0.9",
    ])
    def test_retired_keys_are_unknown(self, tmp_path, capsys, item):
        # noise powers are given in watts only, and the validate and
        # association-compare bounds are constants of their checks
        key = item.split("=")[0]
        with pytest.raises(ConfigError, match=f"^unknown config keys: {key}$"):
            parse_config(None, [item])
        out = tmp_path / "x"
        assert main(["validate", "--out", str(out), "--set", item]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("item, shown", [
        ("assoc_n_list=[16,16]", "[16, 16]"),
        ("ring_l_in_grid_m=[60,90,60]", "[60.0, 90.0, 60.0]"),
        ("validate_n_list=[64,16,64]", "[64, 16, 64]"),
        ("mc_m_iu_list=[1,1]", "[1.0, 1.0]"),
    ])
    def test_list_keys_reject_a_repeated_value(self, item, shown):
        # each value of a list is one row of its sweep; a repeat wrote its rows twice
        key = item.split("=")[0]
        with pytest.raises(ConfigError,
                           match=re.escape(f"{key} must not repeat a value, got {shown}")):
            parse_config(None, [item])

    def test_repeated_assoc_size_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["association-compare", "--out", str(out), "--set", "assoc_n_list=[16,16]",
                     "--set", "assoc_n_drops=2", "--set", "k_ues=10"]) == 2
        assert "assoc_n_list must not repeat a value" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, ["p_t_w=-1"])

    def test_overrides_apply(self):
        cfg = parse_config(None, ["n_elements=32", "m_iu=2.0"])
        assert cfg.network.n_elements == 32
        assert cfg.network.m_iu == 2.0

    def test_bad_override_syntax(self):
        with pytest.raises(ConfigError):
            parse_config(None, ["n_elements"])

    @pytest.mark.parametrize("item", [
        "validate_n_list=[16.7]",
        "mc_m_iu_list=[true]",
        "density_m_list=[4, true]",
        "assoc_n_list=[16.0]",
        "pf_grid_w=[true]",
    ])
    def test_list_elements_are_strictly_typed(self, item):
        with pytest.raises(ConfigError, match="must be an integer|must be a number"):
            parse_config(None, [item])

    @pytest.mark.parametrize("item", [
        "p_f_w=Infinity",
        "alpha=Infinity",
        "d_bu_m=Infinity",
        "validate_d_iu_m=[30, Infinity]",
        "p_t_w=1" + "0" * 400,  # a JSON integer beyond any float
    ])
    def test_non_finite_rejected(self, item):
        with pytest.raises(ConfigError):
            parse_config(None, [item])

    def test_every_key_round_trips_a_non_default_value(self, tmp_path):
        others = {"experiment": "ring-sweep", "density_power_budget": "fixed-per-irs"}
        defaults = effective_dict(parse_config())
        changed = {}
        for key, value in defaults.items():
            if isinstance(value, str):
                changed[key] = others[key]
            elif isinstance(value, list):
                changed[key] = [x * (2 if isinstance(x, int) else 1.5) for x in value]
            else:
                # scaling every length by 1.5 keeps 0 < l_in < l_out < l
                changed[key] = value * (2 if isinstance(value, int) else 1.5)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(changed))
        echo = effective_dict(parse_config(str(path)))
        assert echo == changed
        assert all(changed[k] != v for k, v in defaults.items())

    def test_density_divisor_check_at_dispatch(self):
        cfg = parse_config(None, ["density_m_list=[5]", "n_total_elements=12"],
                           experiment="density-sweep")
        with pytest.raises(ConfigError, match="valid divisors"):
            run_experiment(cfg)


class TestOneSchema:
    """The key validators run at parse time, at construction and on replace."""

    @pytest.mark.parametrize("build, key", [
        (lambda: NetworkConfig(p_t=0.0), "p_t_w"),
        (lambda: NetworkConfig(m_irs=0), "m_irs"),
        (lambda: NetworkConfig(m_iu=0.3), "m_iu"),
        (lambda: NetworkConfig(glq_order=65), "glq_order"),
        (lambda: NetworkConfig(glq_order=3), "glq_order"),
        (lambda: replace(NetworkConfig(), m_bi=0.2), "m_bi"),
        (lambda: ExperimentConfig(network=NetworkConfig(), n_mc_model=1), "n_mc_model"),
        (lambda: ExperimentConfig(network=NetworkConfig(), experiment="bogus"), "experiment"),
        # the shape lists are real-valued, in the m_iu key's own range
        (lambda: ExperimentConfig(network=NetworkConfig(), validate_m_iu_list=(1, 0.4)),
         "validate_m_iu_list must be >= 0.5, got 0.4"),
        (lambda: ExperimentConfig(network=NetworkConfig(), mc_m_iu_list=(1000.5,)),
         "mc_m_iu_list must be <= 1000, got 1000.5"),
    ], ids=["p_t", "m_irs", "m_iu", "glq_order", "glq_order-coarse", "replace-m_bi",
            "n_mc_model", "experiment", "validate_m_iu_list", "mc_m_iu_list"])
    def test_construction_runs_the_key_validators(self, build, key):
        with pytest.raises(ConfigError, match=key):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: NetworkConfig(p_f=math.inf), "p_f_w must be finite, got inf"),
        (lambda: NetworkConfig(m_iu=True), "m_iu must be a number, got True"),
        (lambda: NetworkConfig(m_iu="2"), "m_iu must be a number, got '2'"),
        (lambda: NetworkConfig(m_irs=2.0), "m_irs must be an integer, got 2.0"),
        (lambda: replace(NetworkConfig(), alpha=math.nan), "alpha must be finite, got nan"),
        (lambda: ExperimentConfig(network=NetworkConfig(), pf_grid=(0.01, "0.1")),
         "pf_grid_w must be a number, got '0.1'"),
        (lambda: ExperimentConfig(network=NetworkConfig(), pf_grid=[0.01]),
         "pf_grid_w must be a tuple, got [0.01]"),
        (lambda: ExperimentConfig(network=NetworkConfig(), pf_grid=[]),
         "pf_grid_w must be a tuple, got []"),
    ], ids=["inf-p_f", "bool-m_iu", "str-m_iu", "float-m_irs", "replace-nan", "str-in-list",
            "list", "empty-list"])
    def test_construction_runs_the_type_checks(self, build, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()

    def test_replace_changes_fields_and_runs_the_checks(self):
        net = replace(NetworkConfig(), m_irs=4, p_f=0.5, m_iu=2.0)
        assert net == NetworkConfig(m_irs=4, p_f=0.5, m_iu=2.0)
        with pytest.raises(ConfigError, match="ring radii"):
            replace(net, l_in=150.0)
        with pytest.raises(ConfigError, match="p_f_w must be positive"):
            replace(net, p_f=0.0)

    def test_construction_keeps_the_values_it_is_given(self):
        # the type check runs for its errors only; an int for a float key is stored as is
        net = NetworkConfig(m_iu=2, l=200)
        assert type(net.m_iu) is int and type(net.l) is int
        assert net == NetworkConfig(m_iu=2.0, l=200.0)

    def test_experiment_config_is_frozen(self):
        cfg = parse_config()
        with pytest.raises(FrozenInstanceError):
            cfg.n_mc_model = 1
        assert cfg.n_mc_model == 1_000_000

    def test_library_config_with_one_draw_never_runs(self, monkeypatch):
        # built in code, a one-draw model MC used to run and report std_error 0
        monkeypatch.setattr(simulate, "model_snr_moment_mc", no_work)
        with pytest.raises(ConfigError, match="n_mc_model"):
            run_experiment(ExperimentConfig(network=NetworkConfig(), experiment="mean-snr-vs-pf",
                                            n_mc_model=1, pf_grid=(0.01,)))

    @pytest.mark.parametrize("experiment, item, key", [
        ("validate", "pf_grid_w=[0.01,0.01]", "pf_grid_w"),
        ("validate", "pf_grid_w=[0.1,0.01,0.001]", "pf_grid_w"),
        ("density-sweep", "density_m_list=[32,1,16]", "density_m_list"),
    ], ids=["repeated-pf", "decreasing-pf", "unsorted-m"])
    def test_grids_read_by_position_must_increase(self, tmp_path, capsys, experiment, item, key):
        # the budget-shape and interior-maximum summaries read list positions:
        # a repeated P_F divided by zero, and an unsorted M list reported its
        # smallest M as an interior maximum
        out = tmp_path / "x"
        assert main([experiment, "--out", str(out), "--set", item,
                     "--set", "sweep_n_drops=30"]) == 2
        err = capsys.readouterr().err
        assert key in err and "strictly increasing" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed, valid", [(-1, False), (2**64, False),
                                             (0, True), (2**64 - 1, True)])
    def test_seed_is_64_bit(self, seed, valid):
        # the streams mask the seed to 64 bits, so a wider seed aliased another
        if valid:
            assert parse_config(seed=seed).seed == seed
        else:
            with pytest.raises(ConfigError, match="seed"):
                parse_config(seed=seed)


class TestGlqTable:
    def test_order_one(self, capsys):
        assert main(["glq-table", "--order", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,node,weight"
        idx, node, weight = lines[1].split(",")
        assert (idx, float(node), float(weight)) == ("1", 1.0, 1.0)

    def test_order_two_nodes(self, capsys):
        assert main(["glq-table", "--order", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        nodes = [float(line.split(",")[1]) for line in lines[1:]]
        assert nodes[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
        assert nodes[1] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)

    def test_order_twenty_weights_sum(self, capsys):
        assert main(["glq-table", "--order", "20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert abs(total - 1.0) <= 1e-12

    def test_out_of_range(self, capsys):
        assert main(["glq-table", "--order", "65"]) == 2


class TestDumpDist:
    def test_direct(self, capsys):
        assert main(["dump-dist", "--kind", "direct", "--set", "d_bu_m=100"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj) == 1
        assert obj[0]["beta"] == 1.0
        assert obj[0]["xi"] == pytest.approx(1e9, rel=1e-9)

    def test_cascaded(self, capsys):
        assert main(["dump-dist", "--kind", "cascaded"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj) == 20
        assert all(set(c) == {"epsilon", "beta", "xi"} for c in obj)

    @pytest.mark.parametrize("epsilon_ref, v", [("1e200", "0.0"), ("1e-300", "inf")])
    def test_cascade_scale_out_of_float_range(self, capsys, epsilon_ref, v):
        # the path-gain product overflows (v = 0) or underflows (v = inf; this
        # used to end in a ZeroDivisionError traceback, exit 1)
        args = ["dump-dist", "--kind", "cascaded", "--set", f"epsilon_ref={epsilon_ref}"]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: the cascade scale v must be positive and finite, got {v}\n"

    @pytest.mark.parametrize("overrides", [[], ["m_bi=2", "m_iu=2.5", "n_elements=16",
                                                "d_bi_m=70", "d_iu_m=12"]])
    def test_cascaded_matches_the_papers_raw_coefficients(self, capsys, overrides):
        # the paper's raw mixture pdf = sum_i eps_i x^(beta_i-1) e^(-xi_i x), with
        #   beta_i = m_BI,  xi_i = m_BI m_IU v / t_i,
        #   eps_i  = (m_BI m_IU v)^m_BI w_i t_i^-m_BI / Gamma(m_BI),
        #   v = W/(amp_sq N^2), W = 1/(zeta_BI zeta_IU), amp_sq = eta/N,
        # where (t_i, w_i) is the Gauss rule for the Gamma(m_IU) weight, the
        # paper's w_i t_i^(m_IU-1)/Gamma(m_IU) on the plain Laguerre rule
        args = ["dump-dist", "--kind", "cascaded"]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 0
        obj = json.loads(capsys.readouterr().out)
        cfg = parse_config(None, overrides)
        net = cfg.network
        rule = gauss_laguerre(net.glq_order, net.m_iu - 1.0)
        n = net.n_elements
        amp_sq = analytic.averaged_amp_gain(cfg.d_bi, net) / n
        v = (1.0 / (net.path_gain(cfg.d_bi) * net.path_gain(cfg.d_iu))) / (amp_sq * float(n) ** 2)
        m_bi, m_iu = net.m_bi, net.m_iu
        log_eps = (m_bi * math.log(m_bi * m_iu * v) + np.log(rule.weights)
                   - m_bi * np.log(rule.nodes) - math.lgamma(m_bi))
        assert all(set(c) == {"epsilon", "beta", "xi"} for c in obj)
        assert [c["beta"] for c in obj] == [m_bi] * rule.order
        assert [c["xi"] for c in obj] == (m_bi * m_iu * v / rule.nodes).tolist()
        eps = np.array([c["epsilon"] for c in obj])
        assert np.max(np.abs(eps / np.exp(log_eps) - 1.0)) < 1e-13


def no_work(*args, **kwargs):
    pytest.fail("a rejected configuration ran experiment work")


class TestCliRuns:
    def test_validate_outputs_and_exit(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["validate", "--out", str(out), "--seed", "5"] + FAST_VALIDATE)
        # the passive-baseline gap check is a known-red finding, so the
        # validation gate reports failure overall
        assert code == 1
        assert (out / "results.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "config.echo.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        checks = summary["checks"]
        assert checks["glq_exactness"]["passed"]
        assert checks["closed_vs_quadrature"]["passed"]
        assert checks["model_mc_agreement"]["passed"]
        assert checks["physical_gap_shrinks"]["passed"]
        assert checks["budget_shape"]["passed"]
        assert not checks["passive_baseline"]["gap_shrinks"]
        assert checks["passive_baseline"]["quadrupling_exact"]

    def test_direct_link_check_holds_below_the_floor(self, tmp_path):
        # d_BU = 0.5 m is clamped to the 1 m reference distance, so the
        # check's written-out reference must clamp too
        out = tmp_path / "x"
        main(["validate", "--out", str(out), "--set", "d_bu_m=0.5"] + FAST_VALIDATE)
        check = json.loads((out / "summary.json").read_text())["checks"]["direct_link_reductions"]
        assert check["passed"], check
        assert check["moment_max_rel_err"] <= 1e-13

    def test_byte_identical_rerun(self, tmp_path):
        args = ["mean-snr-vs-pf", "--seed", "9", "--set", "n_mc_model=5000",
                "--set", "pf_grid_w=[0.001,0.01,0.1]"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "config.echo.json").read_bytes() == (out2 / "config.echo.json").read_bytes()

    def test_echo_round_trip(self, tmp_path):
        out1 = tmp_path / "r1"
        assert main(["mean-snr-vs-pf", "--seed", "21", "--out", str(out1),
                     "--set", "n_mc_model=5000",
                     "--set", "pf_grid_w=[0.01,0.1]"]) == 0
        out2 = tmp_path / "r2"
        assert main(["mean-snr-vs-pf", "--config", str(out1 / "config.echo.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "r"
        assert main(["mean-snr-vs-pf", "--out", str(out), "--set", "n_mc_model=2000",
                     "--set", "pf_grid_w=[0.01,0.1]"]) == 0
        text = (out / "results.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "experiment,swept_name,swept_value,metric,method,value,std_error"
        assert all(len(line.split(",")) == 7 for line in lines[1:])
        assert "\r" not in text

    def test_association_compare_smoke(self, tmp_path):
        out = tmp_path / "assoc"
        code = main(["association-compare", "--out", str(out), "--seed", "2",
                     "--set", "assoc_n_list=[16]", "--set", "assoc_n_drops=30",
                     "--set", "k_ues=10"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "n16" in summary
        assert summary["n16"]["ratio_nearest_over_best"] > 0.5

    def test_association_ratio_se_is_paired(self, tmp_path, monkeypatch):
        # both policies score the same drops, users and fading, so ratio_se is
        # the delta-method error of the paired samples, recomputed here from
        # their covariance. Both come from one simulate_cell call.
        seen, calls = {}, []
        simulate_cell = simulate.simulate_cell

        def recorded(cases, **kw):
            results = simulate_cell(cases, **kw)
            calls.append([(net.n_elements, policy) for net, policy in cases])
            for (_, policy), est in zip(cases, results):
                seen[policy] = est["active"]["spatial_throughput"]
            return results

        monkeypatch.setattr(simulate, "simulate_cell", recorded)
        out = tmp_path / "assoc"
        assert main(["association-compare", "--out", str(out), "--seed", "2",
                     "--set", "assoc_n_list=[16]", "--set", "assoc_n_drops=30",
                     "--set", "k_ues=10"]) == 0
        assert calls == [[(16, "best_irs"), (16, "nearest")]]
        got = json.loads((out / "summary.json").read_text())["n16"]
        a, b = seen["nearest"], seen["best_irs"]
        ratio = a.mean / b.mean
        (var_a, cov), (_, var_b) = np.cov(a.samples, b.samples)
        rel_var = var_a / a.mean**2 + var_b / b.mean**2 - 2.0 * cov / (a.mean * b.mean)
        assert got["ratio_nearest_over_best"] == ratio
        assert got["ratio_se"] == pytest.approx(ratio * math.sqrt(rel_var / a.samples.size),
                                                rel=1e-9)
        # the independent-errors figure it replaces is larger
        assert got["ratio_se"] < ratio * math.hypot(a.std_error / a.mean, b.std_error / b.mean)

    def test_ring_sweep_smoke(self, tmp_path, capsys):
        out = tmp_path / "ring"
        args = ["ring-sweep", "--out", str(out),
                "--set", "ring_l_in_grid_m=[100]", "--set", "ring_l_out_grid_m=[130]"]
        assert main(args) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["best_l_in"] == 100.0
        assert summary["metric"] == "spatial_throughput"
        # spatial throughput is the only positional metric
        assert main(args + ["--set", "ring_metric=achievable_rate"]) == 2
        assert "ring_metric" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--set", "p_f_w=-1"], ["--seed", "-1"]])
    def test_flags_pass_the_config_validators(self, tmp_path, flag):
        assert main(["validate", "--out", str(tmp_path / "x")] + flag + FAST_VALIDATE) == 2

    def test_threads_flag_takes_one_value_and_is_no_key(self, tmp_path, capsys):
        # --threads 1 is accepted and sets nothing; every run is single-threaded
        sweep = ["density-sweep", "--set", "n_total_elements=8", "--set", "density_m_list=[1,2]",
                 "--set", "sweep_n_drops=2", "--set", "k_ues=4"]
        assert main(sweep + ["--threads", "1", "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(sweep + ["--threads", "2", "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        assert main(sweep + ["--set", "threads=1", "--out", str(tmp_path / "c")]) == 2
        assert "unknown config keys: threads" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"l_in_m": -5}))
        assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
    @pytest.mark.parametrize("command", [["validate"], ["dump-dist"]],
                             ids=["validate", "dump-dist"])
    def test_unreadable_config_exits_2_with_an_error_line(self, tmp_path, capsys, unreadable,
                                                          command):
        path = tmp_path / "cfg.json"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes('{"k_ues": 5, "note": "é"}'.encode("latin-1"))
        out = ["--out", str(tmp_path / "x")] if command == ["validate"] else []
        assert main(command + ["--config", str(path)] + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("shapes, stray", [("[7]", "[7]"), ("[2,7,9]", "[7, 9]")])
    def test_model_mc_shapes_outside_the_validate_grid_rejected(
            self, tmp_path, capsys, monkeypatch, shapes, stray):
        # model_mc_agreement runs only on validate_m_iu_list; a stray shape
        # used to be dropped, and with no shape left the check passed vacuously
        monkeypatch.setattr("airsnet.simulate.model_snr_moment_mc", no_work)
        out = tmp_path / "x"
        code = main(["validate", "--out", str(out), "--set", f"mc_m_iu_list={shapes}"]
                    + FAST_VALIDATE)
        assert code == 2
        err = capsys.readouterr().err
        for part in ("mc_m_iu_list", "validate_m_iu_list", stray):
            assert part in err
        assert not out.exists()

    def test_validate_runs_real_shapes_below_one(self, tmp_path):
        # shapes below 1 are where the rate is worst; both lists reach them
        out = tmp_path / "x"
        assert main(["validate", "--out", str(out)] + FAST_VALIDATE
                    + ["--set", "validate_m_iu_list=[0.5,1.5]",
                       "--set", "mc_m_iu_list=[0.5,1.5]"]) == 1
        summary = json.loads((out / "summary.json").read_text())
        red = [name for name, check in summary["checks"].items() if not check["passed"]]
        assert red == ["passive_baseline"]
        assert summary["checks"]["model_mc_agreement"]["draw_sets"] == 2
        with open(out / "results.csv", encoding="utf-8") as fh:
            labels = {row["swept_value"] for row in csv.DictReader(fh)
                      if row["method"] == "monte_carlo" and row["swept_name"] == "point"}
        assert {label.split("|")[0] for label in labels} == {"m_iu=0.5", "m_iu=1.5"}

    @pytest.mark.parametrize("experiment, drops_key, extra", [
        ("density-sweep", "sweep_n_drops", []),
        ("association-compare", "assoc_n_drops", ["--set", "assoc_n_list=[16]"]),
    ], ids=["density-sweep", "association-compare"])
    def test_density_sweep_needs_two_samples(self, tmp_path, capsys, monkeypatch,
                                             experiment, drops_key, extra):
        # one drop of one user leaves every standard error at 0
        monkeypatch.setattr("airsnet.simulate.drop", no_work)
        code = main([experiment, "--out", str(tmp_path / "x"),
                     "--set", f"{drops_key}=1", "--set", "k_ues=1", *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert drops_key in err and "k_ues" in err

    def test_validate_draws_the_physical_channel_once(self, tmp_path, monkeypatch):
        # the amplified and passive physical checks at N = 16 and 64 share one
        # draw, made for N = 64
        calls = []
        physical = simulate.physical_snr_mc

        def counted(layouts, *args, **kwargs):
            calls.append(kwargs["n"])
            assert [net.n_elements for net in layouts] == [16, 64]
            return physical(layouts, *args, **kwargs)

        monkeypatch.setattr(simulate, "physical_snr_mc", counted)
        assert main(["validate", "--out", str(tmp_path / "x")] + FAST_VALIDATE) in (0, 1)
        assert calls == [20000]

    def test_validate_draws_the_model_mc_once_per_d_iu_row(self, tmp_path, monkeypatch):
        # the d_IU points of one (m_IU, N, d_BI, P_F) group rescale one estimate,
        # every group goes to one model-MC call, and each mean-SNR route takes
        # the group's whole d_IU list in one call
        calls = []
        model = simulate.model_snr_moment_mc

        def counted(groups, d_iu, **kwargs):
            groups = list(groups)
            calls.append(([(net.m_iu, net.n_elements, d_bi, net.p_f)
                           for net, d_bi in groups], tuple(d_iu), kwargs["n"]))
            return model(groups, d_iu, **kwargs)

        monkeypatch.setattr(simulate, "model_snr_moment_mc", counted)
        routes = {name: [] for name in ("mean_snr_integral", "mean_snr_closed",
                                        "snr_moment_active")}
        for name, seen in routes.items():
            def route(d_bi, d_iu, net, fn=getattr(analytic, name), seen=seen):
                seen.append((d_bi, tuple(d_iu) if np.ndim(d_iu) else d_iu))
                return fn(d_bi, d_iu, net)

            monkeypatch.setattr(analytic, name, route)
        out = tmp_path / "x"
        assert main(["validate", "--out", str(out)] + FAST_VALIDATE
                    + ["--set", "validate_d_iu_m=[10,30,60]",
                       "--set", "validate_p_f_w=[0.001,0.1]"]) in (0, 1)
        groups = [(m_iu, 16, 100.0, p_f) for m_iu in (1.0, 2.0) for p_f in (0.001, 0.1)]
        assert calls == [(groups, (10.0, 30.0, 60.0), 20000)]
        grid = [(100.0, (10.0, 30.0, 60.0))] * 4
        assert routes["mean_snr_integral"] == routes["snr_moment_active"] == grid
        # the physical and budget checks then call the closed form at scalar points
        closed = routes["mean_snr_closed"]
        assert closed[:4] == grid
        assert all(np.ndim(d_iu) == 0 for _, d_iu in closed[4:])
        check = json.loads((out / "summary.json").read_text())["checks"]["model_mc_agreement"]
        # one draw per m_IU, one estimate per (m_IU, P_F)
        assert (check["points"], check["draw_sets"], check["estimates"]) == (12, 2, 4)
        assert check["worst_point"].startswith("m_iu=")

    def test_validate_samples_each_mixture_once_per_block(self, tmp_path, monkeypatch):
        # every group of one m_IU reads the same draws: the mixture is sampled
        # ceil(n / block) times per m_IU, not once per group
        calls = {}
        sample = MixtureGamma.sample

        def counted(mix, rng, size=1):
            calls[id(mix)] = calls.get(id(mix), 0) + 1
            return sample(mix, rng, size)

        monkeypatch.setattr(MixtureGamma, "sample", counted)
        n = 2 * simulate._MODEL_BLOCK + 1
        assert main(["validate", "--out", str(tmp_path / "x")] + FAST_VALIDATE
                    + ["--set", "validate_n_list=[16,64]", "--set", "validate_d_bi_m=[80,100]",
                       "--set", "validate_p_f_w=[0.001,0.1]",
                       "--set", f"n_mc_model={n}"]) in (0, 1)
        assert sorted(calls.values()) == [3, 3]

    def test_validate_point_rows_keep_their_order(self, tmp_path):
        # quadrature/closed-form pairs in (m_IU, N, d_BI, d_IU, P_F) order, the
        # grid's worst errors, then the model-MC rows (m_IU in mc_m_iu_list only)
        out = tmp_path / "x"
        assert main(["validate", "--out", str(out)] + FAST_VALIDATE
                    + ["--set", "validate_d_iu_m=[10,60]", "--set", "validate_p_f_w=[0.001,0.1]",
                       "--set", "mc_m_iu_list=[2]"]) in (0, 1)
        with open(out / "results.csv", newline="") as fh:
            got = [(row["swept_name"], row["swept_value"], row["method"])
                   for row in csv.DictReader(fh) if row["swept_name"] in ("point", "equivalence")]
        labels = {m: [f"m_iu={m}|n=16|d_bi=100|d_iu={d}|p_f={p}"
                      for d in (10, 60) for p in (0.001, 0.1)] for m in (1, 2)}
        pairs = [("point", label, method) for m in (1, 2) for label in labels[m]
                 for method in ("quadrature", "closed_form")]
        worst = [("equivalence", "grid", method)
                 for method in ("closed_form", "closed_form", "quadrature")]
        mc = [("point", label, "monte_carlo") for label in labels[2]]
        assert got == pairs + worst + mc

    def test_density_sweep_draws_each_drop_once_for_both_modes(self, tmp_path, monkeypatch):
        # the amplified and the passive rows are scored on the same drops,
        # and each M draws all its drops in one call
        calls = []
        all_drops = simulate.drop

        def counted(*args, **kwargs):
            calls.append(args[2])
            return all_drops(*args, **kwargs)

        monkeypatch.setattr(simulate, "drop", counted)
        out = tmp_path / "x"
        assert main(["density-sweep", "--out", str(out), "--set", "sweep_n_drops=3",
                     "--set", "density_m_list=[1,2,4]", "--set", "k_ues=4"]) == 0
        assert calls == [3] * 3
        with open(out / "results.csv", newline="") as fh:
            labels = [row["swept_value"] for row in csv.DictReader(fh)]
        assert [label.split("|")[0] for label in labels] == ["mode=active"] * 9 + [
            "mode=passive"] * 9

    def test_density_sweep_associates_in_bounded_chunks(self, tmp_path, monkeypatch):
        # no association call holds more user-reflector pairs than one drop or
        # _DROP_BLOCK, whichever is larger: all drops of a sweep point at once
        # would hold 30 * 50 * 512 pairs at M = 512
        pairs = []
        chunk = simulate.associate

        def measured(irs, ue, policy, cfg):
            per_drop = cfg.k_ues * cfg.m_irs
            pairs.append((ue[..., 0].size * irs.shape[-2], per_drop))
            return chunk(irs, ue, policy, cfg)

        monkeypatch.setattr(simulate, "associate", measured)
        assert main(["density-sweep", "--out", str(tmp_path / "x"), "--set", "sweep_n_drops=30",
                     "--set", "density_m_list=[1,8,64,512]"]) == 0
        assert sum(n for n, _ in pairs) == 30 * 50 * (1 + 8 + 64 + 512)
        assert all(n <= max(simulate._DROP_BLOCK, per_drop) for n, per_drop in pairs), pairs
        assert len(pairs) > 4  # M = 64 and M = 512 take several chunks

    def test_density_z_scores_are_paired(self, tmp_path):
        # every M sees the same users, so the passive M = 1 lead over M = 32
        # is separated by the paired differences where the unpaired errors
        # cannot separate it
        out = tmp_path / "x"
        assert main(["density-sweep", "--seed", "12345", "--out", str(out),
                     "--set", "sweep_n_drops=200"]) == 0
        passive = json.loads((out / "summary.json").read_text())["passive"]
        assert passive["best_m"] == 1 and passive["z_vs_first"] == 0.0
        tp, se = passive["throughput"], passive["std_error"]
        unpaired = (tp[0] - tp[-1]) / math.hypot(se[0], se[-1])
        assert unpaired < 3.0 <= passive["z_vs_last"]

    @pytest.mark.parametrize("experiment, key", [
        ("validate", "n_mc_model"),
        ("mean-snr-vs-pf", "n_mc_model"),
        ("validate", "n_mc_physical"),
    ])
    def test_one_mc_draw_rejected(self, tmp_path, capsys, monkeypatch, experiment, key):
        # one draw has no standard error: it used to give SE 0, an infinite
        # z-score in validate and a passing physical check on one-draw noise
        for name in ("model_snr_moment_mc", "physical_snr_mc"):
            monkeypatch.setattr(simulate, name, no_work)
        out = tmp_path / "x"
        assert main([experiment, "--out", str(out), "--set", f"{key}=1"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_shape_past_the_old_laguerre_bound_runs_at_order_20(self, tmp_path):
        # the plain order-20 rule was exact only up to m_iu = 39, so m_iu = 100
        # exited 2; the Gamma(m_iu) rule keeps the mixture mean at any order
        ring = ["ring-sweep", "--set", "m_iu=100", "--set", "ring_l_in_grid_m=[90]",
                "--set", "ring_l_out_grid_m=[130]"]
        values = []
        for order in (20, 64):
            out = tmp_path / str(order)
            assert main(ring + ["--set", f"glq_order={order}", "--out", str(out)]) == 0
            with open(out / "results.csv", encoding="utf-8") as fh:
                values.append(float(next(csv.DictReader(fh))["value"]))
        assert abs(values[0] / values[1] - 1.0) < 1e-8

    @pytest.mark.parametrize("experiment", ["ring-sweep", "density-sweep"])
    def test_shape_above_the_ceiling_exits_2(self, tmp_path, capsys, experiment):
        out = tmp_path / "x"
        assert main([experiment, "--set", "m_iu=1000.5", "--out", str(out)]) == 2
        assert "m_iu must be <= 1000, got 1000.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m_iu", [101, 113, 127])
    def test_underflowed_laguerre_mass_runs_the_model_mc(self, tmp_path, m_iu):
        # on the plain order-64 rule the first mass w_1 t_1^(m_iu-1)/Gamma(m_iu)
        # underflowed from m_iu = 101 on; the model MC must still match the
        # closed form there
        out = tmp_path / "x"
        assert main(["mean-snr-vs-pf", "--set", f"m_iu={m_iu}", "--set", "glq_order=64",
                     "--set", "pf_grid_w=[0.01]", "--out", str(out)]) == 0
        with open(out / "results.csv", encoding="utf-8") as fh:
            rows = {row["method"]: row for row in csv.DictReader(fh)}
        mc, closed = rows["monte_carlo"], rows["closed_form"]
        z = (float(mc["value"]) - float(closed["value"])) / float(mc["std_error"])
        assert abs(z) < 3.0

    def test_exhausted_quadrature_names_the_point(self, tmp_path, capsys, monkeypatch):
        def exhausted(f, *args, **kwargs):
            raise IntegrationError("integration budget exceeded (16385 panels)",
                                   math.nan, math.inf)

        monkeypatch.setattr(analytic, "integrate_semi_infinite_with_error", exhausted)
        code = main(["mean-snr-vs-pf", "--set", "m_iu=0.5", "--set", "glq_order=64",
                     "--set", "d_iu_m=0.5", "--set", "pf_grid_w=[10]",
                     "--set", "n_mc_model=1000", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mean_snr_integral at ")
        for part in ("m_iu=0.5", "glq_order=64", "p_f=10 W", "d_bi=100 m", "d_iu=0.5 m",
                     "integration budget exceeded"):
            assert part in err

    @pytest.mark.parametrize("extra", [
        ["m_iu=0.5"],
        ["m_iu=0.5", "glq_order=64", "d_iu_m=0.5", "pf_grid_w=[10]"],
        ["m_iu=1.5"],
    ], ids=["m_iu=0.5", "m_iu=0.5-order64-short-hop", "m_iu=1.5"])
    def test_previously_refused_shapes_run_the_model_mc(self, tmp_path, extra):
        # the plain-rule masses missed 1 by 6-24% at m_iu = 1/2 and by 1.3e-3
        # at 1.5, so the model MC refused both (exit 2, "normalization
        # defect"); on the Gamma(m_iu) rule it runs and matches the closed form
        out = tmp_path / "x"
        args = ["mean-snr-vs-pf", "--out", str(out), "--set", "pf_grid_w=[0.01]",
                "--set", "n_mc_model=200000"]
        for item in extra:
            args += ["--set", item]
        assert main(args) == 0
        with open(out / "results.csv", encoding="utf-8") as fh:
            rows = {row["method"]: row for row in csv.DictReader(fh)}
        mc, closed = rows["monte_carlo"], rows["closed_form"]
        z = (float(mc["value"]) - float(closed["value"])) / float(mc["std_error"])
        assert abs(z) < 3.0

    @pytest.mark.parametrize("item, reason", [
        ("p_t_w=1e300", "the estimate is not finite"),
    ])
    def test_model_mc_out_of_float_range_names_the_point(self, tmp_path, capsys, item, reason):
        # overflowed importance weights used to give a nan,nan row (exit 0)
        out = tmp_path / "x"
        assert main(["mean-snr-vs-pf", "--out", str(out), "--set", item,
                     "--set", "pf_grid_w=[0.01]", "--set", "n_mc_model=20000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model_snr_moment_mc at m_bi=1, m_iu=1, glq_order=20, "
                              "p_f=0.01 W, d_bi=100 m, d_iu=30 m: ")
        assert reason in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cell_mc_out_of_float_range_names_the_point(self, tmp_path, capsys):
        # the per-user SNR means stay finite but their variance overflows; this
        # used to write snr_mean 9.1e205 with std_error inf (exit 0)
        out = tmp_path / "x"
        assert main(["density-sweep", "--out", str(out), "--set", "epsilon_ref=1e200",
                     "--set", "sweep_n_drops=4", "--set", "density_m_list=[1,4]"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulate_cell at m_bi=1, m_iu=1, glq_order=20, "
                              "p_f=0.01 W, m_irs=1, n_elements=512, policy=nearest: ")
        assert "estimate is not finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("item", ["sigma2_w=1e-300", "sigma_f2_w=1e-300"])
    def test_extreme_noise_power_matches_closed_form(self, tmp_path, item):
        # sigma2 = 1e-300 puts the v-kernel's mass at kappa ~ 1e-289, which
        # bisection from a 1e-14 mesh floor could not reach in 200 passes
        # (exit 2); sigma_f2 = 1e-300 sends kappa to ~1e290, where the model
        # MC's proposal squared g + kappa to inf and its estimate overflowed
        out = tmp_path / "x"
        assert main(["mean-snr-vs-pf", "--out", str(out), "--set", item,
                     "--set", "pf_grid_w=[0.01]", "--set", "n_mc_model=20000"]) == 0
        with open(out / "results.csv", encoding="utf-8") as fh:
            rows = {row["method"]: row for row in csv.DictReader(fh)}
        closed = float(rows["closed_form"]["value"])
        assert abs(float(rows["quadrature"]["value"]) / closed - 1.0) <= 1e-10
        mc = rows["monte_carlo"]
        assert abs(float(mc["value"]) - closed) < 3.0 * float(mc["std_error"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("item", ["sigma2_w=1e-300", "sigma_f2_w=1e-300", "p_t_w=1e300"])
    def test_ring_sweep_at_extreme_powers_runs_quietly(self, tmp_path, item):
        # y/s or kappa y/t_i pass the float range in the rate kernels, whose
        # limits there are exact: 1 - (1 + inf)^-m = 1 and e^-inf = 0
        def ring_value(setting):
            out = tmp_path / setting
            assert main(["ring-sweep", "--out", str(out), "--set", "ring_l_in_grid_m=[90]",
                         "--set", "ring_l_out_grid_m=[130]", "--set", setting]) == 0
            with open(out / "results.csv", encoding="utf-8") as fh:
                (row,) = csv.DictReader(fh)
            return float(row["value"])

        value = ring_value(item)
        assert math.isfinite(value) and value > 0
        if item.startswith("sigma_f2_w"):
            assert abs(value / ring_value("sigma_f2_w=1e-100") - 1.0) <= 1e-10

    @pytest.mark.parametrize("epsilon_ref", ["1e200", "1e-300"])
    def test_validate_out_of_float_range_names_the_point(self, tmp_path, capsys, epsilon_ref):
        # the path-gain product overflows (mean SNR inf) or underflows (0);
        # both used to end in a ZeroDivisionError traceback (exit 1)
        out = tmp_path / "x"
        assert main(["validate", "--out", str(out), "--set", f"epsilon_ref={epsilon_ref}"]
                    + FAST_VALIDATE) == 2
        assert capsys.readouterr().err == (
            "error: mean_snr_integral at m_bi=1, m_iu=1, glq_order=20, p_f=0.01 W, "
            "d_bi=100 m, d_iu=30 m: the mean SNR is not a positive finite value\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_physical_mc_out_of_float_range_names_the_point(self, tmp_path, capsys):
        # the mean SNR routes stay finite, the physical MC's squared deviations
        # do not; this used to print RuntimeWarnings and write inf and nan
        # std_error rows (exit 1)
        out = tmp_path / "x"
        assert main(["validate", "--out", str(out), "--set", "epsilon_ref=1e148"]
                    + FAST_VALIDATE) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: physical_snr_mc at m_bi=1, m_iu=1, glq_order=20, "
                              "p_f=0.01 W, d_bi=100 m, d_iu=30 m, n_elements=16: the active "
                              "estimate is not finite (mean ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("epsilon_ref", ["1e200", "1e-300"])
    @pytest.mark.parametrize("experiment, route, extra", [
        ("association-compare", "mean_snr_closed",
         ["assoc_n_list=[16]", "assoc_n_drops=2", "k_ues=10"]),
        ("mean-snr-vs-pf", "mean_snr_integral", ["pf_grid_w=[0.01]"]),
    ], ids=["association-compare", "mean-snr-vs-pf"])
    def test_mean_snr_out_of_float_range_names_the_point(self, tmp_path, capsys, experiment,
                                                         route, extra, epsilon_ref):
        # best_irs used to rank reflectors by all-inf scores at 1e200 (exit 0)
        # and divide by a zero throughput at 1e-300 (ZeroDivisionError, exit 1);
        # mean-snr-vs-pf used to reach the model MC with an inf or 0 row
        out = tmp_path / "x"
        args = [experiment, "--out", str(out), "--seed", "1", "--set",
                f"epsilon_ref={epsilon_ref}"]
        for item in extra:
            args += ["--set", item]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {route} at m_bi=1, m_iu=1, glq_order=20, p_f=0.01 W, "
                              "d_bi=")
        assert re.search(r"d_bi=[0-9.e+-]+ m, d_iu=[0-9.e+-]+ m: the mean SNR is not a "
                         r"positive finite value\n$", err)
        assert not out.exists()


class TestMeanSnrVsPfShape:
    def test_increasing_with_decreasing_slopes(self, tmp_path):
        cfg = parse_config(None, ["n_mc_model=2000"], experiment="mean-snr-vs-pf")
        rows, summary, code = run_experiment(cfg)
        assert code == 0
        assert summary["strictly_increasing"]
        assert summary["slopes_strictly_decreasing"]

    def test_effective_dict_round_trips_through_json(self):
        d = effective_dict(parse_config())
        blob = json.dumps(d)
        assert json.loads(blob) == d
