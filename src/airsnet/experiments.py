"""Experiment dispatch: named sweeps, the validation gate, result rows.

Every experiment returns deterministic ResultRow lists (no timing data in
rows; wall time lives in the summary) plus a JSON-ready summary. `validate`
is the machine-checkable gate: its exit status is 0 iff every tolerance
check passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, simulate
from .config import ConfigError, ExperimentConfig
from .mathkit import gauss_laguerre
from .mixgamma import direct_power_dist

__all__ = ["ResultRow", "run_experiment"]


@dataclass(frozen=True)
class ResultRow:
    swept_name: str
    swept_value: str
    metric: str
    method: str
    value: float
    std_error: float = 0.0


def _point_label(**kv) -> str:
    return "|".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in kv.items())


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _check_glq(cfg: ExperimentConfig, rows, checks):
    worst_overall = 0.0
    for order in (1, 2, 5, 10, 20, 32):
        rule = gauss_laguerre(order)
        worst = 0.0
        for k in range(2 * order):
            approx = float(rule.weights @ rule.nodes**k)
            worst = max(worst, abs(approx - math.factorial(k)) / math.factorial(k))
        rows.append(ResultRow("glq_order", str(order), "glq_exactness_max_rel_err", "quadrature",
                              worst))
        worst_overall = max(worst_overall, worst)
    node_err = max(
        abs(gauss_laguerre(2).nodes[0] - (2.0 - math.sqrt(2.0))),
        abs(gauss_laguerre(2).nodes[1] - (2.0 + math.sqrt(2.0))),
    )
    checks["glq_exactness"] = {
        "passed": bool(worst_overall <= 1e-9 and node_err <= 1e-12),
        "max_rel_err": worst_overall,
        "order2_node_err": node_err,
    }


def _check_direct_link_reductions(cfg: ExperimentConfig, rows, checks):
    net = cfg.network
    p = net.power
    d = max(cfg.d_bu, net.distance_floor)  # the reference law, written out independently
    worst_pdf = 0.0
    worst_moment = 0.0
    for m in (0.5, 1.0, 2.0, 4.0):
        dist = direct_power_dist(m, net.path_gain(cfg.d_bu))
        mean = dist.moment(1)
        xi = m * d**net.alpha / net.epsilon_ref
        for x in (0.1 * mean, mean, 10.0 * mean):
            ref = math.exp(m * math.log(xi) + (m - 1.0) * math.log(x) - xi * x - math.lgamma(m))
            worst_pdf = max(worst_pdf, abs(dist.pdf(x) - ref) / ref)
        got = p.p_t * mean / p.sigma2
        expected = p.p_t * net.epsilon_ref * d**-net.alpha / p.sigma2
        worst_moment = max(worst_moment, abs(got - expected) / expected)
    rows.append(ResultRow("direct_gamma", "m_grid", "pdf_pointwise_max_rel_err", "closed_form",
                          worst_pdf))
    rows.append(ResultRow("eq12_ell1", "m_grid", "first_moment_max_rel_err", "closed_form",
                          worst_moment))
    checks["direct_link_reductions"] = {
        "passed": bool(worst_pdf <= 1e-12 and worst_moment <= 1e-13),
        "pdf_max_rel_err": worst_pdf,
        "moment_max_rel_err": worst_moment,
    }


def _check_mean_snr_grid(cfg: ExperimentConfig, rows, checks):
    """Quadrature, closed form, moment route and model MC over the validate grid.

    Each (m_IU, N, d_BI, P_F) group calls each route once on the whole d_IU
    list; the model MC runs once, on the groups whose m_IU is in mc_m_iu_list,
    drawing once per m_IU (simulate.model_snr_moment_mc). Rows list the
    quadrature/closed-form pairs in (m_IU, N, d_BI, d_IU, P_F) order, then the
    grid's worst errors, then the MC rows in the same order.
    """
    d_iu_list = cfg.validate_d_iu_list
    routes, mc_groups = {}, {}
    for group in itertools.product(cfg.validate_m_iu_list, cfg.validate_n_list,
                                   cfg.validate_d_bi_list, cfg.validate_p_f_list):
        m_iu, n, d_bi, p_f = group
        net = cfg.network.at(m_iu=m_iu, n_elements=n, p_f=p_f)
        routes[group] = [route(d_bi, d_iu_list, net) for route in (
            analytic.mean_snr_integral, analytic.mean_snr_closed, analytic.snr_moment_active)]
        if m_iu in cfg.mc_m_iu_list:
            mc_groups[group] = (net, d_bi)
    model_mc = dict(zip(mc_groups, simulate.model_snr_moment_mc(
        mc_groups.values(), d_iu_list, n=cfg.n_mc_model, seed=cfg.seed)))
    estimates = {simulate._model_mc_key(*at) for at in mc_groups.values()}
    worst_cq = worst_ray = worst_l1 = 0.0
    mc_rows, z = [], {}
    for m_iu, n, d_bi, (j, d_iu), p_f in itertools.product(
            cfg.validate_m_iu_list, cfg.validate_n_list, cfg.validate_d_bi_list,
            enumerate(d_iu_list), cfg.validate_p_f_list):
        group = (m_iu, n, d_bi, p_f)
        quad, closed, route13 = (float(values[j]) for values in routes[group])
        label = _point_label(m_iu=m_iu, n=n, d_bi=d_bi, d_iu=d_iu, p_f=p_f)
        rel = abs(closed - quad) / quad
        worst_cq = max(worst_cq, rel)
        if m_iu == 1:
            worst_ray = max(worst_ray, rel)
        worst_l1 = max(worst_l1, abs(route13 - quad) / quad)
        rows.append(ResultRow("point", label, "mean_snr", "quadrature", quad))
        rows.append(ResultRow("point", label, "mean_snr", "closed_form", closed))
        if group in model_mc:
            mc, se = (float(x[j]) for x in model_mc[group])
            z[label] = abs(mc - closed) / se if se > 0 else math.inf
            mc_rows.append(ResultRow("point", label, "mean_snr", "monte_carlo", mc, se))
    rows.append(ResultRow("equivalence", "grid",
                          "closed_vs_quadrature_max_rel_err", "closed_form", worst_cq))
    rows.append(ResultRow("equivalence", "grid",
                          "rayleigh_vs_quadrature_max_rel_err", "closed_form", worst_ray))
    rows.append(ResultRow("equivalence", "grid",
                          "moment_route_max_rel_err", "quadrature", worst_l1))
    rows += mc_rows
    checks["closed_vs_quadrature"] = {
        "passed": bool(worst_cq <= cfg.tolerance and worst_ray <= cfg.tolerance),
        "max_rel_err": worst_cq,
        "rayleigh_max_rel_err": worst_ray,
    }
    checks["moment_route_consistency"] = {
        "passed": bool(worst_l1 <= 1e-7),
        "max_rel_err": worst_l1,
    }
    worst = max(z, key=z.get)
    checks["model_mc_agreement"] = {"passed": bool(z[worst] <= 3.0), "max_abs_z": z[worst],
                                    "points": len(z),
                                    "draw_sets": len({mixture for mixture, _ in estimates}),
                                    "estimates": len(estimates), "worst_point": worst}


def _check_physical(cfg: ExperimentConfig, rows, checks):
    """Physical MC vs the closed forms at m_IU=1, N=16 and 64.

    One channel draw, made for N=64 (N=16 reads its first 16 element planes),
    feeds both sizes of the amplified section (physical_gap, against
    mean_snr_closed) and of the passive one (passive_gap, against
    mean_snr_passive); the passive_scaling row sits between the two.
    """
    sizes = (16, 64)
    nets = {n: cfg.network.at(m_iu=1.0, n_elements=n) for n in (16, 32, 64)}
    draws = dict(zip(sizes, simulate.physical_snr_mc(
        [nets[n] for n in sizes], cfg.d_bi, cfg.d_iu, n=cfg.n_mc_physical, seed=cfg.seed)))

    def section(mode, name, closed_form):
        """The section's three rows per N; returns its relative gap per N."""
        gaps = {}
        for n, phys in draws.items():
            mean, se = phys[mode]
            closed = closed_form(cfg.d_bi, cfg.d_iu, nets[n])
            gaps[n] = abs(mean - closed) / closed
            label = _point_label(m_iu=1, n=n, d_bi=cfg.d_bi, d_iu=cfg.d_iu)
            rows.extend([
                ResultRow(name, label, "mean_snr_physical", "monte_carlo", mean, se),
                ResultRow(name, label, "mean_snr", "closed_form", closed),
                ResultRow(name, label, "relative_gap", "monte_carlo", gaps[n]),
            ])
        return gaps

    active = section("active", "physical_gap", analytic.mean_snr_closed)
    checks["physical_gap_shrinks"] = {
        "passed": bool(active[64] < active[16]),
        "gap_n16": active[16],
        "gap_n64": active[64],
    }

    v16, v32 = (analytic.mean_snr_passive(cfg.d_bi, cfg.d_iu, nets[n]) for n in (16, 32))
    quadruple_exact = (v32 == 4.0 * v16)
    rows.append(ResultRow("passive_scaling", "n16_to_n32", "quadrupling_ratio", "closed_form",
                          v32 / v16))
    passive = section("passive", "passive_gap", analytic.mean_snr_passive)
    # scaling diagnostics: the measured growth exponent between the two sizes
    ratio = draws[64]["passive"][0] / draws[16]["passive"][0]
    checks["passive_baseline"] = {
        "passed": bool(quadruple_exact and passive[64] < passive[16]),
        "quadrupling_exact": bool(quadruple_exact),
        "gap_n16": passive[16],
        "gap_n64": passive[64],
        "gap_shrinks": bool(passive[64] < passive[16]),
        "mc_growth_exponent": math.log(ratio) / math.log(4.0),
        "mc_ratio_64_over_16": ratio,
    }


def _budget_shape(grid, values) -> dict:
    """Whether values rise strictly over grid with strictly falling slopes (concave)."""
    slopes = [(values[i + 1] - values[i]) / (grid[i + 1] - grid[i]) for i in range(len(grid) - 1)]
    return {
        "strictly_increasing": bool(all(a < b for a, b in zip(values, values[1:]))),
        "slopes_strictly_decreasing": bool(all(a > b for a, b in zip(slopes, slopes[1:]))),
    }


def _check_budget_shape(cfg: ExperimentConfig, rows, checks):
    grid = list(cfg.pf_grid)
    values = [analytic.mean_snr_closed(cfg.d_bi, cfg.d_iu, cfg.network.at(m_iu=1.0, p_f=p))
              for p in grid]
    for p, v in zip(grid, values):
        rows.append(ResultRow("p_f_w", f"{p:g}", "mean_snr", "closed_form", v))
    shape = _budget_shape(grid, values)
    checks["budget_shape"] = {"passed": all(shape.values()), **shape}


def _run_validate(cfg: ExperimentConfig):
    stray = sorted(set(cfg.mc_m_iu_list) - set(cfg.validate_m_iu_list))
    if stray:
        listed = ", ".join(f"{m:g}" for m in stray)
        raise ConfigError(f"mc_m_iu_list values [{listed}] are not in validate_m_iu_list, "
                          "the only grid the model MC runs on")
    rows: list[ResultRow] = []
    checks: dict = {}
    _check_glq(cfg, rows, checks)
    _check_direct_link_reductions(cfg, rows, checks)
    _check_mean_snr_grid(cfg, rows, checks)
    _check_physical(cfg, rows, checks)
    _check_budget_shape(cfg, rows, checks)
    summary = {
        "checks": checks,
        "all_passed": bool(all(c["passed"] for c in checks.values())),
        "region2_nearest_pdf_mass": analytic.region2_nearest_pdf_mass(cfg.network),
    }
    exit_code = 0 if summary["all_passed"] else 1
    return rows, summary, exit_code


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _run_mean_snr_vs_pf(cfg: ExperimentConfig):
    nets = [cfg.network.at(p_f=p_f) for p_f in cfg.pf_grid]
    routes = [(analytic.mean_snr_integral(cfg.d_bi, cfg.d_iu, net),
               analytic.mean_snr_closed(cfg.d_bi, cfg.d_iu, net)) for net in nets]
    model_mc = simulate.model_snr_moment_mc([(net, cfg.d_bi) for net in nets], cfg.d_iu,
                                            n=cfg.n_mc_model, seed=cfg.seed)
    rows: list[ResultRow] = []
    for p_f, (quad, closed), (mc, se) in zip(cfg.pf_grid, routes, model_mc):
        label = f"{p_f:g}"
        rows.append(ResultRow("p_f_w", label, "mean_snr", "quadrature", quad))
        rows.append(ResultRow("p_f_w", label, "mean_snr", "closed_form", closed))
        rows.append(ResultRow("p_f_w", label, "mean_snr", "monte_carlo", mc, se))
    return rows, _budget_shape(list(cfg.pf_grid), [quad for quad, _ in routes]), 0


def _require_two_samples(cfg: ExperimentConfig, drops_key: str):
    """Reject a cell MC whose standard errors would rest on one per-user sample."""
    n_drops = getattr(cfg, drops_key)
    if n_drops * cfg.network.k_ues < 2:
        raise ConfigError(f"standard errors need {drops_key} * k_ues >= 2 per-user samples, "
                          f"got {n_drops} * {cfg.network.k_ues}")


def _run_density_sweep(cfg: ExperimentConfig):
    """Spatial throughput versus reflector count M at a fixed element budget.

    M reflectors of n_total_elements / M elements serve users by nearest, all
    M in one simulate_cell call: the same users and the same fading on the
    first N elements, so two M's throughput samples pair up user by user.
    split-total gives each reflector p_f_total / M, holding the network's
    amplification power fixed; fixed-per-irs gives each p_f_total (total power
    grows with M), the reading under which decentralizing pays off until
    per-reflector aperture starves it.
    """
    _require_two_samples(cfg, "sweep_n_drops")
    n_total, m_list = cfg.n_total_elements, list(cfg.density_m_list)
    bad = [m for m in m_list if n_total % m != 0]
    if bad:
        small = [d for d in range(1, math.isqrt(n_total) + 1) if n_total % d == 0]
        divisors = small + [n_total // d for d in reversed(small) if d * d != n_total]
        raise ConfigError(f"density_m_list {bad} do not divide n_total_elements={n_total}; "
                          f"valid divisors: {divisors}")
    split = cfg.density_power_budget == "split-total"
    cases = [(cfg.network.at(m_irs=m, n_elements=n_total // m,
                             p_f=cfg.p_f_total / m if split else cfg.p_f_total), "nearest")
             for m in m_list]
    results = simulate.simulate_cell(cases, n_drops=cfg.sweep_n_drops,
                                     n_fading=cfg.sweep_n_fading, seed=cfg.seed)
    rows: list[ResultRow] = []
    summary: dict = {}
    for mode in ("active", "passive"):
        for m, estimates in zip(m_list, results):
            label = _point_label(mode=mode, m_irs=m, n=n_total // m)
            for metric in ("spatial_throughput", "achievable_rate", "snr_mean"):
                est = estimates[mode][metric]
                rows.append(ResultRow("m_irs", label, metric, "monte_carlo", est.mean,
                                      est.std_error))
        tp = [est[mode]["spatial_throughput"] for est in results]
        best = int(np.argmax([e.mean for e in tp]))

        def z_sep(i, j):
            # every M sees the same users: the error is that of the paired differences
            gap = tp[i].mean - tp[j].mean
            if gap == 0.0:  # the same M, or every user BS-served
                return 0.0
            return float(gap / simulate.sample_se(tp[i].samples - tp[j].samples))

        summary[mode] = {
            "power_budget": cfg.density_power_budget,
            "m_values": m_list,
            "throughput": [e.mean for e in tp],
            "std_error": [e.std_error for e in tp],
            "best_m": m_list[best],
            "z_vs_first": z_sep(best, 0),
            "z_vs_last": z_sep(best, len(m_list) - 1),
            "interior_max": bool(0 < best < len(m_list) - 1),
        }
    return rows, summary, 0


def _run_association_compare(cfg: ExperimentConfig):
    _require_two_samples(cfg, "assoc_n_drops")
    rows: list[ResultRow] = []
    summary: dict = {}
    # best_irs first: off the float range its analytic scores name the point
    policies = ("best_irs", "nearest")
    results = iter(simulate.simulate_cell(
        [(cfg.network.at(n_elements=n), policy) for n in cfg.assoc_n_list for policy in policies],
        n_drops=cfg.assoc_n_drops, n_fading=cfg.sweep_n_fading, seed=cfg.seed))
    for n in cfg.assoc_n_list:
        estimates = {policy: next(results)["active"]["spatial_throughput"]
                     for policy in policies}
        for policy in ("nearest", "best_irs"):
            est = estimates[policy]
            rows.append(ResultRow("n_elements", _point_label(n=n, policy=policy),
                                  "spatial_throughput", "monte_carlo", est.mean, est.std_error))
        near, best = estimates["nearest"], estimates["best_irs"]
        ratio = near.mean / best.mean
        # both policies see the same drops, users and fading: the delta-method
        # error of the paired samples
        rel = near.samples / near.mean - best.samples / best.mean
        summary[f"n{n}"] = {
            "ratio_nearest_over_best": ratio,
            "ratio_se": simulate.sample_se(rel, abs(ratio)),
            "threshold": cfg.assoc_threshold,
            "meets_threshold": bool(ratio >= cfg.assoc_threshold),
        }
    return rows, summary, 0


def _run_ring_sweep(cfg: ExperimentConfig):
    rows: list[ResultRow] = []
    metric = "spatial_throughput"
    best = None
    for l_in in cfg.ring_l_in_grid:
        for l_out in cfg.ring_l_out_grid:
            if not (0.0 < l_in < l_out < cfg.network.geometry.l):
                continue
            value, err = analytic.average_metric(cfg.network.at(l_in=l_in, l_out=l_out))
            label = _point_label(l_in=l_in, l_out=l_out)
            rows.append(ResultRow("ring", label, metric, "quadrature", value, err))
            if best is None or value > best[2]:
                best = (l_in, l_out, value)
    if not rows:
        raise ConfigError("ring grids produced no valid (l_in < l_out < l) pairs")
    summary = {"best_l_in": best[0], "best_l_out": best[1], "best_value": best[2],
               "metric": metric}
    return rows, summary, 0


def run_experiment(cfg: ExperimentConfig):
    """Dispatch one experiment; returns (rows, summary, exit_code)."""
    dispatch = {
        "validate": _run_validate,
        "mean-snr-vs-pf": _run_mean_snr_vs_pf,
        "density-sweep": _run_density_sweep,
        "association-compare": _run_association_compare,
        "ring-sweep": _run_ring_sweep,
    }
    return dispatch[cfg.experiment](cfg)
