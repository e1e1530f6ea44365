"""Network-scale Monte Carlo: random drops, association, cell simulation.

Randomness is counter-keyed: every (seed, drop, purpose) tuple maps to its
own Philox stream, and within a drop the draw order is fixed, so results are
bit-identical no matter how drops are scheduled across threads. Per-drop
partials are merged in drop order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .channel import (
    sample_nakagami_amplitude,
    snr_active_batch,
    snr_direct_batch,
    snr_passive_batch,
)
from .config import ConfigError, NetworkConfig

__all__ = [
    "NetworkRealization",
    "SimEstimate",
    "drop",
    "associate",
    "simulate_cell",
    "sweep_density",
    "model_snr_moment_mc",
    "physical_snr_mc",
]

_MASK64 = (1 << 64) - 1
_TAG_GEOMETRY = 1
_TAG_FADING = 2


@dataclass
class NetworkRealization:
    """One random drop: reflector/user positions and the association map.

    association[k] is -1 for BS-served users and otherwise the index of the
    serving reflector.
    """

    irs_positions: np.ndarray
    ue_positions: np.ndarray
    association: np.ndarray


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    n_drops: int
    n_fading_per_drop: int
    seed: int


def _stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator keyed by (seed, mixed path); schedule-independent."""
    acc = 0xCBF29CE484222325
    for p in path:
        acc ^= (int(p) + 0x9E3779B97F4A7C15) & _MASK64
        acc = (acc * 0x100000001B3) & _MASK64
    key = np.array([int(seed) & _MASK64, acc], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def drop(cfg: NetworkConfig, seed: int, drop_index: int) -> NetworkRealization:
    """Draw one realization: reflectors area-uniform in the ring, users in the disc."""
    geo = cfg.geometry
    rng = _stream(seed, drop_index, _TAG_GEOMETRY)
    u = rng.uniform(size=geo.m_irs)
    irs_r = np.sqrt(geo.l_in**2 + u * (geo.l_out**2 - geo.l_in**2))
    irs_th = rng.uniform(0.0, 2.0 * math.pi, size=geo.m_irs)
    ue_r = geo.l * np.sqrt(rng.uniform(size=cfg.k_ues))
    ue_th = rng.uniform(0.0, 2.0 * math.pi, size=cfg.k_ues)
    irs = np.column_stack([irs_r * np.cos(irs_th), irs_r * np.sin(irs_th)])
    ue = np.column_stack([ue_r * np.cos(ue_th), ue_r * np.sin(ue_th)])
    return NetworkRealization(
        irs_positions=irs,
        ue_positions=ue,
        association=np.full(cfg.k_ues, -1, dtype=np.int64),
    )


def associate(real: NetworkRealization, policy: str,
              cfg: NetworkConfig) -> NetworkRealization:
    """Tag each user: BS if inside the coverage radius, else per policy.

    nearest: the geometrically closest reflector. best_irs: the reflector
    maximizing the analytic mean SNR at the user's (d_BI, d_IU) pair. Ties
    break to the lowest index.
    """
    if policy not in ("nearest", "best_irs"):
        raise ConfigError(f"unknown association policy {policy!r}")
    geo = cfg.geometry
    ue_radius = np.linalg.norm(real.ue_positions, axis=1)
    deltas = real.ue_positions[:, None, :] - real.irs_positions[None, :, :]
    d_iu = np.linalg.norm(deltas, axis=2)
    if policy == "nearest":
        choice = np.argmin(d_iu, axis=1)
    else:
        d_bi = np.linalg.norm(real.irs_positions, axis=1)
        score = analytic.mean_snr_closed(d_bi, d_iu, cfg)  # (users, reflectors)
        choice = np.argmax(score, axis=1)
    association = np.where(ue_radius < geo.l_in, -1, choice)
    return NetworkRealization(real.irs_positions, real.ue_positions, association)


def _drop_worker(cfg: NetworkConfig, policy: str, irs_mode: str, n_fading: int,
                 seed: int, drop_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-user fading-averaged SNR and rate for one drop, in user order."""
    real = associate(drop(cfg, seed, drop_index), policy, cfg)
    rng = _stream(seed, drop_index, _TAG_FADING)
    geo = cfg.geometry
    p = cfg.power
    k = cfg.k_ues
    snr_mean = np.empty(k)
    rate_mean = np.empty(k)

    ue_radius = np.linalg.norm(real.ue_positions, axis=1)
    direct = real.association < 0
    # Draw order is fixed (direct block, then reflector block) so results do
    # not depend on how drops are scheduled.
    if direct.any():
        idx = np.flatnonzero(direct)
        amps = sample_nakagami_amplitude(cfg.m_bu, rng, (idx.size, n_fading))
        zeta = cfg.epsilon_ref * np.maximum(ue_radius[idx], cfg.distance_floor) ** (
            -cfg.alpha
        )
        snr = snr_direct_batch(amps, zeta[:, None], p)
        snr_mean[idx] = snr.mean(axis=1)
        rate_mean[idx] = np.log2(1.0 + snr).mean(axis=1)
    if (~direct).any():
        idx = np.flatnonzero(~direct)
        n = geo.n_elements
        serving = real.irs_positions[real.association[idx]]
        d_bi = np.maximum(np.linalg.norm(serving, axis=1), cfg.distance_floor)
        d_iu = np.maximum(
            np.linalg.norm(real.ue_positions[idx] - serving, axis=1),
            cfg.distance_floor,
        )
        zeta_bi = cfg.epsilon_ref * d_bi ** (-cfg.alpha)
        zeta_iu = cfg.epsilon_ref * d_iu ** (-cfg.alpha)
        amps_bi = sample_nakagami_amplitude(cfg.m_bi, rng, (idx.size, n_fading, n))
        amps_iu = sample_nakagami_amplitude(cfg.m_iu, rng, (idx.size, n_fading, n))
        flat_bi = amps_bi.reshape(idx.size * n_fading, n)
        flat_iu = amps_iu.reshape(idx.size * n_fading, n)
        zb = np.repeat(zeta_bi, n_fading)
        zi = np.repeat(zeta_iu, n_fading)
        if irs_mode == "active":
            snr = snr_active_batch(flat_bi, flat_iu, zb, zi, p)
        elif irs_mode == "passive":
            snr = snr_passive_batch(flat_bi, flat_iu, zb, zi, p)
        else:
            raise ConfigError(f"unknown irs_mode {irs_mode!r}")
        snr = snr.reshape(idx.size, n_fading)
        snr_mean[idx] = snr.mean(axis=1)
        rate_mean[idx] = np.log2(1.0 + snr).mean(axis=1)
    return snr_mean, rate_mean


def simulate_cell(cfg: NetworkConfig, policy: str = "nearest",
                  n_drops: int | None = None, n_fading: int | None = None,
                  seed: int = 0, irs_mode: str = "active",
                  threads: int = 1) -> dict[str, SimEstimate]:
    """Monte-Carlo estimates of mean SNR, achievable rate and spatial throughput.

    Each (drop, user) contributes its fading-averaged value; the returned
    standard errors treat those per-user means as the independent samples
    (fading draws at a fixed position are not independent positional
    samples). spatial throughput = positional rate average / cell area.
    """
    n_drops = cfg.n_drops if n_drops is None else n_drops
    n_fading = cfg.n_fading if n_fading is None else n_fading
    if n_drops < 1 or n_fading < 1:
        raise ConfigError("n_drops and n_fading must be >= 1")

    results: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n_drops
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, res in enumerate(
                pool.map(
                    lambda d: _drop_worker(cfg, policy, irs_mode, n_fading, seed, d),
                    range(n_drops),
                )
            ):
                results[i] = res
    else:
        for i in range(n_drops):
            results[i] = _drop_worker(cfg, policy, irs_mode, n_fading, seed, i)

    snr_ue = np.concatenate([r[0] for r in results])
    rate_ue = np.concatenate([r[1] for r in results])

    def estimate(values: np.ndarray, scale: float = 1.0) -> SimEstimate:
        n = values.size
        se = values.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
        return SimEstimate(
            mean=float(values.mean() * scale),
            std_error=float(se * scale),
            n_drops=n_drops,
            n_fading_per_drop=n_fading,
            seed=seed,
        )

    area = cfg.geometry.s_total
    return {
        "snr_mean": estimate(snr_ue),
        "achievable_rate": estimate(rate_ue),
        "spatial_throughput": estimate(rate_ue, scale=1.0 / area),
    }


def sweep_density(cfg: NetworkConfig, n_total_elements: int, m_values,
                  policy: str = "nearest", seed: int = 0,
                  irs_mode: str = "active", p_f_total: float | None = None,
                  n_drops: int = 2000, n_fading: int = 2,
                  threads: int = 1, power_budget: str = "split-total") -> list[dict]:
    """Spatial throughput versus reflector count at a fixed element budget.

    Each entry runs simulate_cell with M reflectors of N = n_total/M elements.
    power_budget="split-total" (default) gives each reflector p_f_total / M so
    the network-wide amplification power stays constant across the sweep;
    "fixed-per-irs" gives every reflector p_f_total regardless of M (total
    power then grows with M), which is the reading under which decentralizing
    eventually pays off before per-reflector aperture starves it.
    """
    m_values = [int(m) for m in m_values]
    bad = [m for m in m_values if n_total_elements % m != 0]
    if bad:
        divisors = [d for d in range(1, n_total_elements + 1) if n_total_elements % d == 0]
        raise ConfigError(
            f"m_values {bad} do not divide n_total_elements={n_total_elements}; "
            f"valid divisors: {divisors}"
        )
    if power_budget not in ("split-total", "fixed-per-irs"):
        raise ConfigError(f"unknown power_budget {power_budget!r}")
    p_f_total = cfg.power.p_f if p_f_total is None else p_f_total
    rows = []
    for m in m_values:
        n_per = n_total_elements // m
        p_f_each = p_f_total / m if power_budget == "split-total" else p_f_total
        swept = replace(
            cfg,
            geometry=replace(cfg.geometry, m_irs=m, n_elements=n_per),
            power=replace(cfg.power, p_f=p_f_each),
        )
        est = simulate_cell(
            swept, policy=policy, n_drops=n_drops, n_fading=n_fading,
            seed=seed, irs_mode=irs_mode, threads=threads,
        )
        rows.append(
            {
                "m_irs": m,
                "n_elements": n_per,
                "spatial_throughput": est["spatial_throughput"],
                "achievable_rate": est["achievable_rate"],
                "snr_mean": est["snr_mean"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Validation estimators (model-consistent and physical)
# ---------------------------------------------------------------------------


def model_snr_moment_mc(cfg: NetworkConfig, d_bi: float, d_iu: float,
                        ell: float = 1.0, n: int = 1_000_000,
                        seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo E[SNR^ell] under the analytic model itself.

    Samples the cascaded power from its Laguerre mixture and the amplified
    noise from the unit-mean Gamma(m_IU) law of the noise Laplace transform.
    The noise coordinate is importance-sampled from a three-part mixture:
    the nominal Gamma (bulk), the inverse-quadratic density kappa/(g+kappa)^2
    pinned at the receiver-noise floor scale kappa = sigma^2/(eta sigma_F^2)
    (deep fades), and a log-uniform bridge across the decades in between.
    Near that floor the plain estimator's variance is carried by
    ~1e-8-probability deep fades, which makes 1e6-draw sample means land far
    below the true value with misleadingly small sample errors; the mixture
    proposal bounds the weight everywhere and keeps the (g+kappa)^-ell
    integrand's variance finite, so the estimator is unbiased with honest
    standard errors.

    Returns (mean, standard error).
    """
    rng = _stream(seed, 999, 3)
    mix = analytic.cascaded_mixture(d_bi, d_iu, cfg)
    eta = analytic.averaged_amp_gain(d_bi, cfg)
    p = cfg.power
    m = cfg.m_iu
    noise_scale = eta * p.sigma_f2

    x1 = mix.sample(rng, n)

    kappa = p.sigma2 / noise_scale
    lo = min(kappa, 0.1)
    hi = 10.0 * max(1.0, m)
    log_range = math.log(hi / lo)

    pick = rng.uniform(size=n)
    g = np.empty(n)
    bulk = pick < 0.5
    fade = (pick >= 0.5) & (pick < 0.75)
    bridge = pick >= 0.75
    g[bulk] = rng.standard_gamma(m, int(bulk.sum())) / m
    u = rng.uniform(size=int(fade.sum()))
    g[fade] = kappa * u / (1.0 - u)
    g[bridge] = lo * np.exp(rng.uniform(0.0, log_range, int(bridge.sum())))

    log_pdf = m * math.log(m) + (m - 1.0) * np.log(g) - m * g - math.lgamma(m)
    pdf = np.exp(log_pdf)
    tilt = kappa / (g + kappa) ** 2
    in_band = (g >= lo) & (g <= hi)
    log_unif = np.where(in_band, 1.0 / (g * log_range), 0.0)
    weight = pdf / (0.5 * pdf + 0.25 * tilt + 0.25 * log_unif)

    snr = p.p_t * x1 / (noise_scale * g + p.sigma2)
    values = snr**ell * weight
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n))
    return mean, se


def physical_snr_mc(cfg: NetworkConfig, d_bi: float, d_iu: float,
                    n: int = 1_000_000, seed: int = 0,
                    irs_mode: str = "active",
                    chunk: int = 50_000) -> tuple[float, float]:
    """Monte-Carlo mean SNR of the physical per-element channel at fixed
    distances, with the budget-exhausting gain recomputed per draw.

    Returns (mean, standard error).
    """
    rng = _stream(seed, 998, 4)
    n_el = cfg.geometry.n_elements
    zeta_bi = cfg.epsilon_ref * cfg.floored(d_bi) ** (-cfg.alpha)
    zeta_iu = cfg.epsilon_ref * cfg.floored(d_iu) ** (-cfg.alpha)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        b = min(chunk, n - done)
        amps_bi = sample_nakagami_amplitude(cfg.m_bi, rng, (b, n_el))
        amps_iu = sample_nakagami_amplitude(cfg.m_iu, rng, (b, n_el))
        if irs_mode == "active":
            snr = snr_active_batch(amps_bi, amps_iu, zeta_bi, zeta_iu, cfg.power)
        else:
            snr = snr_passive_batch(amps_bi, amps_iu, zeta_bi, zeta_iu, cfg.power)
        total += float(snr.sum())
        total_sq += float((snr * snr).sum())
        done += b
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    se = math.sqrt(var / n)
    return mean, se
