"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 6 and 8 check the two claims of the abstract against exact
references: the passive N^2 baseline against the exact finite-N second moment
of the phase-aligned cascade (criterion 6), and the reflector-density optimum
at a fixed total element count under a per-reflector amplification budget,
with the split total budget's monotone sweep asserted as its own finding
(criterion 8). The README's "Install and test" section derives both.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from airsnet import analytic as an
from airsnet.cli import main
from airsnet.config import NetworkConfig
from airsnet.mathkit import gauss_laguerre
from airsnet.mixgamma import direct_power_dist
from airsnet.simulate import model_snr_moment_mc, physical_snr_mc, simulate_cell
from conftest import passive_cascade_k, passive_moment_ratio, rayleigh_mean_snr

SEED = 20260808

M_IU_GRID = (1, 2, 3, 4)
N_GRID = (16, 64, 256)
D_BI_GRID = (80.0, 100.0, 130.0)
D_IU_GRID = (10.0, 30.0, 60.0)
P_F_GRID = (0.001, 0.01, 0.1)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


def grid_cfg(m_iu, n, p_f):
    return NetworkConfig(n_elements=int(n), p_t=1.0, p_f=float(p_f), sigma2=1e-11,
                         sigma_f2=1e-10, m_iu=float(m_iu))


def test_criterion_01_closed_form_quadrature_equivalence():
    worst_cq = 0.0
    worst_ray = 0.0
    for m_iu in M_IU_GRID:
        for n in N_GRID:
            for d_bi in D_BI_GRID:
                for d_iu in D_IU_GRID:
                    for p_f in P_F_GRID:
                        cfg = grid_cfg(m_iu, n, p_f)
                        quad = an.mean_snr_integral(d_bi, d_iu, cfg)
                        closed = an.mean_snr_closed(d_bi, d_iu, cfg)
                        worst_cq = max(worst_cq, abs(closed - quad) / quad)
                        if m_iu == 1:
                            ray = rayleigh_mean_snr(d_bi, d_iu, cfg)
                            worst_ray = max(
                                worst_ray,
                                abs(ray - quad) / quad,
                                abs(ray - closed) / closed,
                            )
    passed = worst_cq <= 1e-6 and worst_ray <= 1e-6
    report("01 closed-form vs quadrature", passed,
           f"324-point grid, max rel err closed-vs-quad {worst_cq:.2e}, "
           f"Rayleigh-vs-both {worst_ray:.2e} (tol 1e-6)")
    assert passed


def test_criterion_02_direct_link_reductions():
    worst_pdf = 0.0
    worst_moment = 0.0
    for m in (0.5, 1.0, 2.0, 4.0):
        for d in (50.0, 100.0, 150.0):
            dist = direct_power_dist(m, 1e-3 * d**-3.0)
            mean = dist.moment(1)
            xi = m * d**3 / 1e-3
            for x in (0.1 * mean, mean, 10.0 * mean):
                ref = math.exp(
                    m * math.log(xi) + (m - 1.0) * math.log(x) - xi * x - math.lgamma(m)
                )
                worst_pdf = max(worst_pdf, abs(dist.pdf(x) - ref) / ref)
        got = 1.0 * direct_power_dist(m, 1e-3 * 100.0**-3.0).moment(1) / 1e-11
        expected = 1.0 * 1e-3 * 100.0**-3 / 1e-11
        worst_moment = max(worst_moment, abs(got - expected) / expected)
    passed = worst_pdf <= 1e-12 and worst_moment <= 1e-13
    report("02 direct-link Gamma reductions", passed,
           f"density max rel err {worst_pdf:.2e} (tol 1e-12), "
           f"first-moment max rel err {worst_moment:.2e} (tol 1e-13)")
    assert passed


def test_criterion_03_gauss_laguerre_exactness():
    worst = 0.0
    for order in (1, 2, 5, 10, 20, 32):
        rule = gauss_laguerre(order)
        for k in range(2 * order):
            approx = float(rule.weights @ rule.nodes**k)
            worst = max(worst, abs(approx - math.factorial(k)) / math.factorial(k))
    rule2 = gauss_laguerre(2)
    node_err = max(
        abs(rule2.nodes[0] - (2.0 - math.sqrt(2.0))),
        abs(rule2.nodes[1] - (2.0 + math.sqrt(2.0))),
    )
    passed = worst <= 1e-9 and node_err <= 1e-12
    report("03 Gauss-Laguerre exactness", passed,
           f"moment max rel err {worst:.2e} (tol 1e-9), "
           f"order-2 node err {node_err:.2e} (tol 1e-12)")
    assert passed


def test_criterion_04_model_consistent_mc():
    # one 1e6-draw set per m_iu, scored once per (d_BI, P_F) and rescaled to
    # each N and d_IU
    points = [(m_iu, n, d_bi, p_f) for m_iu in (1, 2) for n in N_GRID
              for d_bi in D_BI_GRID for p_f in P_F_GRID]
    groups = [(grid_cfg(m_iu, n, p_f), d_bi) for m_iu, n, d_bi, p_f in points]
    estimates = model_snr_moment_mc(groups, np.array(D_IU_GRID), n=1_000_000, seed=SEED)
    worst_z = 0.0
    worst_pt = None
    for (m_iu, n, d_bi, p_f), (cfg, _), (mc, se) in zip(points, groups, estimates):
        closed = an.mean_snr_closed(d_bi, np.array(D_IU_GRID), cfg)
        for d_iu, z in zip(D_IU_GRID, np.abs(mc - closed) / se):
            if z > worst_z:
                worst_z, worst_pt = z, (m_iu, n, d_bi, d_iu, p_f)
    passed = worst_z <= 3.0
    report("04 model-consistent MC agreement", passed,
           f"162 points x 1e6 draws, worst |z| = {worst_z:.2f} at {worst_pt} (tol 3)")
    assert passed


def physical_draws(*sizes):
    """{N: its physical MC estimates}, every N read off one 1e6-draw channel draw."""
    cfgs = [grid_cfg(1, n, 0.01) for n in sizes]
    return dict(zip(sizes, physical_snr_mc(cfgs, 100.0, 30.0, n=1_000_000, seed=SEED)))


def test_criterion_05_physical_gap_monotone():
    gaps = {}
    for n, draw in physical_draws(16, 64).items():
        cfg = grid_cfg(1, n, 0.01)
        phys, se = draw["active"]
        eq17 = an.mean_snr_closed(100.0, 30.0, cfg)
        gaps[n] = abs(phys - eq17) / eq17
        print(f"  physical N={n}: MC {phys:.4f} +- {se:.4f}, analytic {eq17:.4e}, "
              f"relative gap {gaps[n]:.4e}")
    passed = gaps[64] < gaps[16]
    report("05 physical-vs-analytic gap shrinks with N", passed,
           f"gap(N=16) = {gaps[16]:.4e}, gap(N=64) = {gaps[64]:.4e}")
    assert passed


def test_criterion_06_passive_baseline():
    # The N^2 form counts all N^2 element pairs at unit gain, but with
    # phase-aligned unit-power amplitudes E[(sum a_i b_i)^2] = N + N(N-1) k,
    # k = (E a E b)^2 = pi^2/16 for Rayleigh links, so MC / N^2 form =
    # 1/N + (1 - 1/N) k. Its raw relative gap (1 - k)(1 - 1/N) grows with N;
    # what converges is the ratio, to k at rate (1 - k)/N. See the README
    # section "Install and test".
    cfg16 = grid_cfg(1, 16, 0.01)
    cfg32 = grid_cfg(1, 32, 0.01)
    v16 = an.mean_snr_passive(100.0, 30.0, cfg16)
    v32 = an.mean_snr_passive(100.0, 30.0, cfg32)
    quadruple_ok = v32 == 4.0 * v16

    k = passive_cascade_k(1.0, 1.0)
    gaps = {}
    means = {}
    z_exact = {}
    dev_k = {}
    for n, draw in physical_draws(16, 64).items():
        cfg = grid_cfg(1, n, 0.01)
        phys, se = draw["passive"]
        eq18 = an.mean_snr_passive(100.0, 30.0, cfg)
        exact = passive_moment_ratio(n, cfg.m_bi, cfg.m_iu) * eq18
        gaps[n] = abs(phys - eq18) / eq18
        means[n] = phys
        z_exact[n] = (phys - exact) / se
        dev_k[n] = abs(phys / eq18 - k)
        print(f"  passive N={n}: MC {phys:.5e} +- {se:.2e}, N^2 form {eq18:.5e}, "
              f"relative gap {gaps[n]:.4f}; exact moment {exact:.5e} "
              f"(z = {z_exact[n]:+.2f}), |MC/N^2 form - k| = {dev_k[n]:.4f} "
              f"+- {se / eq18:.4f}")
    exponent = math.log(means[64] / means[16]) / math.log(4.0)
    print(f"  scaling diagnostics: MC(64)/MC(16) = {means[64] / means[16]:.3f} "
          f"(16 for exact N^2), fitted exponent {exponent:.4f}")
    matches_exact = all(abs(z) <= 3.0 for z in z_exact.values())
    converges = dev_k[64] < dev_k[16]
    passed = quadruple_ok and matches_exact and converges
    report("06 passive baseline", passed,
           f"quadrupling exact: {quadruple_ok}; MC vs exact finite-N moment "
           f"z(16) = {z_exact[16]:+.2f}, z(64) = {z_exact[64]:+.2f} (tol 3); "
           f"|MC/N^2 form - pi^2/16|: {dev_k[16]:.4f} -> {dev_k[64]:.4f}")
    assert quadruple_ok
    assert matches_exact, (
        f"physical MC is not within 3 SE of N^2 form x (1/N + (1 - 1/N) k): "
        f"z = {z_exact}; see the README section 'Install and test'"
    )
    assert converges, (
        f"MC / N^2 form does not approach k = {k:.4f} from N=16 to N=64: "
        f"{dev_k}; see the README section 'Install and test'"
    )


def test_criterion_07_budget_shape():
    grid = [float(x) for x in np.logspace(-4, 1, 12)]
    values = []
    for p_f in grid:
        values.append(an.mean_snr_closed(100.0, 30.0, grid_cfg(1, 64, p_f)))
    increasing = all(a < b for a, b in zip(values, values[1:]))
    slopes = [
        (values[i + 1] - values[i]) / (grid[i + 1] - grid[i])
        for i in range(len(grid) - 1)
    ]
    slopes_decreasing = all(a > b for a, b in zip(slopes, slopes[1:]))
    passed = increasing and slopes_decreasing
    report("07 mean SNR vs amplification budget shape", passed,
           f"12-point log grid: strictly increasing {increasing}, "
           f"per-watt increments strictly decreasing {slopes_decreasing}")
    assert passed


def test_criterion_08_density_sweep_findings():
    # Desk scale per the criterion: N_total = 512, 1e-5 W of amplification
    # budget, ~2e5 samples/point. The abstract fixes the total element count
    # only. With each reflector keeping its own budget ("fixed-per-irs"),
    # spreading the elements pays off until per-reflector aperture starves,
    # so the active sweep (08a) has an interior maximizer; the grid must reach
    # M = N_total, as at M = 32 it is still rising. With the total budget
    # split across reflectors (the sweep default), each has p_F/M and N/M
    # elements, and at alpha = 3 the SNR scales as M^(-1/2) when receiver
    # noise dominates and 1/M when amplification noise does, so that sweep
    # is maximized at M=1 (08a, split). The passive sweep (08b) is maximized
    # at M=1. See the README section "Install and test".
    net = NetworkConfig(l=200.0, l_in=30.0, l_out=150.0,
                        p_t=1.0, p_f=1e-5, sigma2=1e-11, sigma_f2=1e-10)

    def sweep(m_values, budget):
        # the density-sweep experiment's cases: M reflectors of 512 / M elements
        cases = [(replace(net, m_irs=m, n_elements=512 // m,
                          p_f=1e-5 / m if budget == "split-total" else 1e-5), "nearest")
                 for m in m_values]
        results = simulate_cell(cases, n_drops=2000, n_fading=2, seed=SEED)
        out = {}
        for mode in ("active", "passive"):
            out[mode] = [r[mode]["spatial_throughput"] for r in results]
            for m, tp in zip(m_values, out[mode]):
                print(f"  {mode} {budget} M={m:3d}: {tp.mean:.5e} +- {tp.std_error:.2e}")
        return out

    def argmax(tps):
        return max(range(len(tps)), key=lambda i: tps[i].mean)

    def z_sep(tps, i, j):
        return (tps[i].mean - tps[j].mean) / math.hypot(
            tps[i].std_error, tps[j].std_error
        )

    split_grid = [1, 2, 4, 8, 16, 32]
    split_sweep = sweep(split_grid, "split-total")
    def paired_z(tps, i, j):
        # every M sees the same users and fading, so the error is that of the
        # per-user differences
        diff = tps[i].samples - tps[j].samples
        return (tps[i].mean - tps[j].mean) / (diff.std(ddof=1) / math.sqrt(diff.size))

    passive = split_sweep["passive"]
    lead = min(paired_z(passive, 0, j) for j in range(1, len(split_grid)))
    passive_ok = split_grid[argmax(passive)] == 1 and lead >= 3.0
    report("08b passive sweep maximized at M=1", passive_ok,
           f"argmax M = {split_grid[argmax(passive)]}, smallest paired z of M=1 over the "
           f"other M {lead:.1f} (tol 3)")

    split = split_sweep["active"]
    split_best = argmax(split)
    split_ok = split_best == 0 and z_sep(split, 0, 1) >= 3.0
    report("08a active sweep, split total budget, maximized at M=1", split_ok,
           f"argmax M = {split_grid[split_best]}, z vs M=2 {z_sep(split, 0, 1):.1f} "
           f"(tol 3)")

    fixed_grid = [1, 4, 16, 64, 256, 512]
    fixed = sweep(fixed_grid, "fixed-per-irs")["active"]
    best = argmax(fixed)
    interior = 0 < best < len(fixed_grid) - 1
    separated = interior and z_sep(fixed, best, 0) >= 3.0 and z_sep(fixed, best, -1) >= 3.0
    report("08a active sweep, per-reflector budget, interior maximizer", separated,
           f"argmax M = {fixed_grid[best]}; interior: {interior}; z vs endpoints "
           f"({z_sep(fixed, best, 0):.1f}, {z_sep(fixed, best, -1):.1f}) (tol 3)")
    assert passive_ok
    assert split_ok, (
        "under the split total budget concentration should win at alpha = 3; "
        "see the README section 'Install and test'"
    )
    assert separated, (
        "no interior maximizer separated by 3 SE from both endpoints under "
        "the per-reflector budget; see the README section 'Install and test'"
    )


def test_criterion_09_association_policies():
    worst_ratio = math.inf
    # one call scores both N and both policies on the same drops and fading
    cases = [(NetworkConfig(l=200.0, l_in=100.0, l_out=130.0, m_irs=16, n_elements=n,
                            p_t=1.0, p_f=0.01, sigma2=1e-11, sigma_f2=1e-10), policy) for n in (16, 32) for policy in ("best_irs", "nearest")]
    results = iter(simulate_cell(cases, n_drops=600, n_fading=2, seed=SEED))
    for n in (16, 32):
        est = {policy: next(results)["active"]["spatial_throughput"]
               for policy in ("best_irs", "nearest")}
        near, best = est["nearest"], est["best_irs"]
        ratio = near.mean / best.mean
        # both policies see the same drops: the delta-method error of the pairs
        rel = near.samples / near.mean - best.samples / best.mean
        ratio_se = ratio * rel.std(ddof=1) / math.sqrt(rel.size)
        print(f"  N={n}: nearest/best = {ratio:.4f} +- {ratio_se:.4f}")
        worst_ratio = min(worst_ratio, ratio)
    passed = worst_ratio >= 0.9
    report("09 nearest association within 90% of best", passed,
           f"worst ratio {worst_ratio:.4f} (threshold 0.90)")
    assert passed


def test_criterion_10_deterministic_outputs(tmp_path):
    fast = ["--set", "n_mc_model=5000", "--set", "pf_grid_w=[0.001,0.01,0.1]"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["mean-snr-vs-pf", "--seed", "77", "--out", str(out_a)] + fast) == 0
    assert main(["mean-snr-vs-pf", "--seed", "77", "--out", str(out_b)] + fast) == 0
    same_rerun = (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    sweep = ["density-sweep", "--seed", "77", "--set", "n_total_elements=64",
             "--set", "density_m_list=[1,2,4]", "--set", "sweep_n_drops=8",
             "--set", "sweep_n_fading=2", "--set", "k_ues=10"]
    out_s1, out_s2 = tmp_path / "s1", tmp_path / "s2"
    assert main(sweep + ["--out", str(out_s1)]) == 0
    assert main(sweep + ["--out", str(out_s2)]) == 0
    same_sweep = (out_s1 / "results.csv").read_bytes() == (out_s2 / "results.csv").read_bytes()

    passed = same_rerun and same_sweep
    report("10 byte-identical CSV determinism", passed,
           f"mean-snr-vs-pf rerun identical: {same_rerun}, "
           f"density-sweep rerun identical: {same_sweep}")
    assert passed
