"""Closed-form and quadrature performance expressions.

Amplified-link mean SNR (a scale times psi_m(kappa), psi in closed form or
by its v-integral, and by the y-integral of the factorized kernel), the
passive baseline, achievable rates, and the spatial-throughput average.

Conventions baked in here (see README for the full discussion):

* the averaged amplification gain eta/N replaces the per-draw gain in all
  analytic expressions, with eta = P_F / (P_t zeta_BI + sigma_F^2)
  (averaged_amp_gain, the only copy of eta);
* the component rate xi_i multiplies BOTH the moment-kernel exponential and
  the noise-Laplace argument (the reading that reproduces the Rayleigh
  closed form exactly and matches the model-consistent Monte-Carlo oracle);
* the amplified-noise law is path-loss-free on the reflector->user hop, i.e.
  noise = (eta/N) * N * sigma_F^2 * G with G a unit-mean Gamma(m_IU) power;
  the physical simulator keeps the path loss, and `validate` reports the
  resulting measured gap;
* every distance becomes a channel gain zeta = eps * max(d, 1 m)^-alpha
  through NetworkConfig.path_gain; 1 m is the reference distance of eps.

The amplified-link kernels rest on one factorization. The mixture component
masses, the weights w_i of the Gauss rule for the Gamma(m_IU) weight
(NetworkConfig.rule, mixgamma.cascaded_power_dist), are distance-free and
have mean sum_i w_i t_i = m_IU; component i's noise rate is S/t_i and its decay
kappa*S/t_i, with S = sigma_F^2 m_BI W/(N P_t) (W = 1/(zeta_BI zeta_IU)) and
kappa = m_IU sigma^2/(eta sigma_F^2) (_kappa), which depends on d_BI alone.
After y = S z every d_IU at one d_BI shares
F_b(y) = sum_i mass_i e^(-kappa y/t_i) (1 + y/t_i)^-m_IU, so
rate_active = log2(e) * integral F_b(y) (1 - (1 + y/S)^-m_BI)/y dy is one
quadrature over a whole d_IU array on a shared y-mesh (_rate, which
rate_direct calls under the noise factor e^-y; every semi-infinite
quadrature runs through _quad). The mean SNR is m_BI m_IU/S times
psi_m(kappa) = e^kappa E_m(kappa), and m_BI/S times one integral of F_b per d_BI.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import NetworkConfig
from .mathkit import (
    IntegrationError,
    exp_en_scaled,
    gauss_laguerre,
    integrate_interval_with_error,
    integrate_semi_infinite_with_error,
)
from .mixgamma import InvalidDistributionError, MixtureGamma, cascaded_power_dist

__all__ = [
    "averaged_amp_gain",
    "cascade_scale",
    "cascaded_mixture",
    "snr_moment_active",
    "mean_snr_integral",
    "mean_snr_closed",
    "mean_snr_passive",
    "rate_direct",
    "rate_active",
    "average_metric",
    "region2_nearest_pdf_mass",
]

LOG2E = math.log2(math.e)
QUAD_TOL = 1e-8
QUAD_PANELS = 16384  # panel budget of every semi-infinite kernel quadrature
REGION_TOL = 1e-6


def averaged_amp_gain(d_bi, cfg: NetworkConfig):
    """eta = P_F / (P_t zeta_BI + sigma_F^2), elementwise; avg amp gain is eta/N."""
    return cfg.p_f / (cfg.p_t * cfg.path_gain(d_bi) + cfg.sigma_f2)


def _point(cfg: NetworkConfig) -> str:
    """The model parameters an error message names beside its distances."""
    return (f"m_bi={cfg.m_bi:g}, m_iu={cfg.m_iu:g}, glq_order={cfg.glq_order}, "
            f"p_f={cfg.p_f:g} W")


def _named(exc: IntegrationError, where: str) -> IntegrationError:
    """exc re-raised with the parameter point that produced it."""
    return IntegrationError(f"{where}: {exc}", exc.estimate, exc.achieved_rel_error)


def _quad(kernel, label: str, d):
    """integral_0^inf kernel to QUAD_TOL, per column for an (n, K) kernel.

    An exhausted budget re-raises as "{label}={d:g} m: ...", d the distance
    of the column that fell furthest short.
    """
    try:
        return integrate_semi_infinite_with_error(kernel, QUAD_TOL, max_panels=QUAD_PANELS)[0]
    except IntegrationError as exc:
        worst = np.ravel(d)[int(np.argmax(exc.achieved_rel_error))]
        raise _named(exc, f"{label}={worst:g} m") from exc


def _checked(where: str, mean, d_bi, d_iu, cfg: NetworkConfig):
    """mean (a float if 0-d); InvalidDistributionError names its first non-positive-finite point."""
    ok = np.ravel((mean > 0) & np.isfinite(mean))
    if not ok.all():
        first = np.argmin(ok)
        d_bi, d_iu = (np.ravel(np.broadcast_to(d, np.shape(mean)))[first] for d in (d_bi, d_iu))
        raise InvalidDistributionError(
            f"{where} at {_point(cfg)}, d_bi={d_bi:g} m, d_iu={d_iu:g} m: "
            "the mean SNR is not a positive finite value")
    return float(mean) if np.ndim(mean) == 0 else mean


def cascade_scale(d_bi, d_iu, cfg: NetworkConfig):
    """The cascade mixture's scale v = W/(amp_sq N^2), W = 1/(zeta_BI zeta_IU), elementwise."""
    n = cfg.n_elements
    amp_sq = averaged_amp_gain(d_bi, cfg) / n
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # v = 0 or inf off range
        gain = np.float64(cfg.path_gain(d_bi)) * cfg.path_gain(d_iu)
        v = (1.0 / gain) / (amp_sq * float(n) ** 2)
    return float(v) if np.ndim(v) == 0 else v


def cascaded_mixture(d_bi: float, d_iu: float, cfg: NetworkConfig) -> MixtureGamma:
    """The cascaded-power mixture at the links' path gains with the averaged gain."""
    return cascaded_power_dist(cfg.m_bi, cfg.m_iu, cascade_scale(d_bi, d_iu, cfg), cfg.rule())


def _s_scale(d_bi, d_iu, cfg: NetworkConfig):
    """S = sigma_F^2 m_BI W / (N P_t): component i's noise rate is S/t_i."""
    n = cfg.n_elements
    with np.errstate(divide="ignore", over="ignore"):  # S = 0 or inf off the float range
        return cfg.sigma_f2 * cfg.m_bi / (n * cfg.p_t * np.float64(cfg.path_gain(d_bi))
                                          * cfg.path_gain(d_iu))


def _kappa(d_bi, cfg: NetworkConfig):
    """kappa = m_IU sigma^2/(eta sigma_F^2), elementwise; it depends on d_BI alone."""
    return cfg.m_iu * cfg.sigma2 / (averaged_amp_gain(d_bi, cfg) * cfg.sigma_f2)


@lru_cache(maxsize=64)
def _unit_cascade(m_bi: float, m_iu: float, glq_order: int) -> MixtureGamma:
    """The cascade mixture at scale v = 1, built once per (m_BI, m_IU, glq_order)."""
    return cascaded_power_dist(m_bi, m_iu, 1.0, gauss_laguerre(glq_order, m_iu - 1.0))


def _noise_mixture(d_bi: float, cfg: NetworkConfig):
    """F_b(y) = sum_i mass_i e^(-kappa y/t_i) (1 + y/t_i)^-m_IU at one d_BI.

    mass_i is the cascade mixture's, at nodes t_i; F_b is the same for every d_IU.
    """
    rule = cfg.rule()
    m = cfg.m_iu
    masses = _unit_cascade(cfg.m_bi, cfg.m_iu, cfg.glq_order).mass
    kappa = _kappa(d_bi, cfg)
    inv_t = 1.0 / rule.nodes

    def f_b(y: np.ndarray) -> np.ndarray:
        yt = np.multiply.outer(y, inv_t)
        with np.errstate(over="ignore"):  # kappa y/t_i past the float range: e^-inf = 0
            return np.exp(-kappa * yt - m * np.log1p(yt)) @ masses

    return f_b


def snr_moment_active(d_bi: float, d_iu, cfg: NetworkConfig):
    """Mean amplified-link SNR by one semi-infinite quadrature of the factorized kernel.

    m_BI/S * integral F_b(y) dy (y = S z), run in v = kappa y, where F_b's
    decay no longer depends on kappa. It depends on d_BI alone, so a d_IU
    array costs one quadrature; returns a float for a scalar d_IU. This is
    the route `validate` checks the other mean-SNR routes against. A mean
    outside the float range raises InvalidDistributionError naming the point.
    """
    f_b = _noise_mixture(d_bi, cfg)
    kappa = _kappa(d_bi, cfg)
    value = _quad(lambda v: f_b(v / kappa), f"snr_moment_active at {_point(cfg)}, "
                  f"d_bi={d_bi:g} m, d_iu", d_iu)
    with np.errstate(divide="ignore", over="ignore"):
        mean = cfg.m_bi * (value / kappa) / _s_scale(d_bi, d_iu, cfg)
    return _checked("snr_moment_active", mean, d_bi, d_iu, cfg)


def mean_snr_integral(d_bi: float, d_iu, cfg: NetworkConfig):
    """Mean amplified-link SNR: the scale times psi_m(kappa) by quadrature.

    psi_m(kappa) = integral e^(-kappa u) (1 + u)^-m du, integrated in
    v = kappa u. kappa depends on d_BI alone, so a d_IU array costs one
    quadrature; a scalar d_IU gives a float. An exhausted budget or an
    out-of-range mean raises naming the point.
    """
    kappa = _kappa(d_bi, cfg)
    with np.errstate(over="ignore"):  # v/kappa past the float range gives a 0 kernel
        psi = _quad(lambda v: np.exp(-v - cfg.m_iu * np.log1p(v / kappa)),
                    f"mean_snr_integral at {_point(cfg)}, d_bi={d_bi:g} m, d_iu", d_iu)
    with np.errstate(divide="ignore"):
        mean = cfg.m_bi * cfg.m_iu / _s_scale(d_bi, d_iu, cfg) * (psi / kappa)
    return _checked("mean_snr_integral", mean, d_bi, d_iu, cfg)


def mean_snr_closed(d_bi, d_iu, cfg: NetworkConfig):
    """Closed-form mean amplified-link SNR for any real m_IU >= 1/2.

    The scale times psi_m(kappa) = e^kappa E_m(kappa) (DLMF 8.19), to which
    each integral of the paper's per-node sum reduces (kappa = a_i D_i at
    every node). Broadcasts d_bi against d_iu; a float for scalar distances.
    An out-of-range mean raises naming the first such point.
    """
    with np.errstate(divide="ignore"):
        mean = (cfg.m_bi * cfg.m_iu / _s_scale(d_bi, d_iu, cfg)
                * exp_en_scaled(cfg.m_iu, _kappa(d_bi, cfg)))
    return _checked("mean_snr_closed", mean, d_bi, d_iu, cfg)


def mean_snr_passive(d_bi: float, d_iu: float, cfg: NetworkConfig) -> float:
    """Mean phase-only reflection SNR N^2 P_t zeta_BI zeta_IU/sigma^2 (the m_IU cancels)."""
    n = cfg.n_elements
    zeta = cfg.path_gain(d_bi) * cfg.path_gain(d_iu)
    return _checked("mean_snr_passive", n**2 * cfg.p_t * zeta / cfg.sigma2,
                    d_bi, d_iu, cfg)


def _rate(m: float, s, laplace, label: str, d):
    """log2(e) * integral (1 - (1 + y/s)^-m) laplace(y)/y dy, one column per s.

    The MGF lemma E ln(1 + X/N) = integral (1 - M_X(y)) M_N(y)/y dy for a
    Gamma(m, rate s) signal X over a noise N of Laplace transform `laplace`,
    every s on one y-mesh. A float for a scalar `d` (the columns' distances).
    """
    s = np.ravel(s)

    def kernel(y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # y/s past the float range: 1 - (1+inf)^-m = 1
            q = np.divide.outer(y, s)  # then in place: one (n, K) array per call
        np.log1p(q, out=q)
        q *= -m
        np.expm1(q, out=q)
        q *= (-laplace(y) / y)[:, None]
        return q

    value = LOG2E * _quad(kernel, label, d)
    return float(value[0]) if np.ndim(d) == 0 else value.reshape(np.shape(d))


def rate_direct(d_bu, cfg: NetworkConfig):
    """Direct-link conditional achievable rate in bits/s/Hz.

    _rate at s = m_BU sigma^2/(P_t zeta_BU) under the unit noise e^-y: the
    integral (1/z)(1 - (1+z)^-m_BU) e^(-s z) dz after y = s z, whose decay
    then sits at y = 1 for every distance. A distance array is integrated on
    one shared y-mesh; returns a float for a scalar distance.
    """
    m = cfg.m_bu
    with np.errstate(divide="ignore", over="ignore"):  # s = inf off range: _rate's kernel is 0
        s = m * cfg.sigma2 / (cfg.p_t * cfg.path_gain(d_bu))
    return _rate(m, s, lambda y: np.exp(-y), f"rate_direct at m_bu={m:g}, d_bu", d_bu)


def rate_active(d_bi: float, d_iu, cfg: NetworkConfig):
    """Amplified-link conditional achievable rate in bits/s/Hz.

    _rate at s = S under F_b: the mixture sum sum_i mass_i integral
    (1/z)(1-(1+z)^-m_BI) e^(-z kappa S/t_i) (1 + z S/t_i)^-m_IU dz after
    y = S z. A d_IU array at one d_BI is integrated on one shared y-mesh.
    Returns a float for a scalar d_IU.
    """
    return _rate(cfg.m_bi, _s_scale(d_bi, d_iu, cfg), _noise_mixture(d_bi, cfg),
                 f"rate_active at {_point(cfg)}, d_bi={d_bi:g} m, d_iu", d_iu)


def region2_nearest_pdf_mass(cfg: NetworkConfig) -> float:
    """Mass of the nearest-reflector distance PDF over (0, L).

    The density 2 pi lambda r e^(-lambda pi r^2) is used exactly as printed
    (not renormalized over the ring), so this diagnostic reports how far its
    truncation to the cell falls short of 1.
    """
    lam = cfg.lambda_irs
    return 1.0 - math.exp(-lam * math.pi * (cfg.l * cfg.l))


def average_metric(cfg: NetworkConfig) -> tuple[float, float]:
    """Spatial throughput and its quadrature error estimate.

    The conditional rate averaged over the three-region decomposition, then
    divided by the cell area. Region 1 (disc of radius L_in): rate_direct
    against the radial density 2 pi d / S_t. Region 2 (the ring): rate_active
    with d_BI ~= d_BU and the nearest-reflector distance density over (0, L).
    Region 3 (beyond the ring): d_BI ~= L_out and d_IU ~= d_BU - L_out.
    Each region integrates from its own lower edge. A rate depends on a
    distance d through d^-alpha, so on log d, and has a kink at the distance
    floor. Every integral over a distance measured from 0 (d_BU in region 1,
    d_IU in region 2's inner integral and in region 3) gets the breakpoints
    floor * 4^k, k >= 0: at the default network each then meets REGION_TOL
    in its first adaptive pass. Region 2's outer d_BI integral, away from 0,
    keeps the floor kink alone.
    """
    floor = cfg.distance_floor
    lam = cfg.lambda_irs

    # floor * 4^k up to the cell radius; the quadrature ignores those past an interval
    graded = floor * 4.0 ** np.arange(max(1, math.ceil(math.log(cfg.l / floor, 4))))

    def void(r: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # lam pi r^2 past the float range: e^-inf = 0
            return np.exp(-lam * math.pi * r * r)

    def inner_r(b: float) -> float:
        return integrate_interval_with_error(
            lambda r: rate_active(b, r, cfg) * 2.0 * math.pi * lam * r * void(r),
            0.0, cfg.l, REGION_TOL, points=graded)[0]

    # Per region: the rate in d_BU, its d_BU interval and its breakpoints in d_BU.
    regions = (
        # 1: BS-served disc, radial density 2 pi d / S_t.
        (lambda ds: rate_direct(ds, cfg), 0.0, cfg.l_in, graded),
        # 2: the ring, d_BI ~= d_BU, nearest-reflector distance density in r.
        (lambda bs: np.array([inner_r(b) for b in bs]), cfg.l_in, cfg.l_out, (floor,)),
        # 3: beyond the ring, d_BI ~= L_out and d_IU = d_BU - L_out.
        (lambda bs: rate_active(cfg.l_out, bs - cfg.l_out, cfg), cfg.l_out, cfg.l,
         cfg.l_out + graded),
    )
    value = err_total = 0.0
    for k, (rate, lo, hi, points) in enumerate(regions, start=1):
        try:
            val, err = integrate_interval_with_error(
                lambda x: rate(x) * x, lo, hi, REGION_TOL, points=points)
        except IntegrationError as exc:
            raise _named(exc, f"average_metric region {k} at {_point(cfg)}, "
                              f"l_in={cfg.l_in:g} m, l_out={cfg.l_out:g} m") from exc
        value, err_total = value + val, err_total + err
    scale = 2.0 * math.pi / (cfg.s_total * cfg.s_total)
    return value * scale, err_total * scale
