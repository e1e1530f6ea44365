"""Network-scale Monte Carlo: random drops, association, cell simulation.

Randomness is counter-keyed: every (seed, drop, purpose) tuple maps to its
own SFC64 stream, and within a drop the draw order is fixed, so results are
bit-identical no matter how drops are scheduled across threads. Per-drop
partials are merged in drop order. The validation estimators draw in
cache-sized blocks and merge block means and variances.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .channel import (
    sample_nakagami_power,
    snr_active_batch,
    snr_direct_batch,
    snr_passive_batch,
)
from .config import ConfigError, NetworkConfig
from .mixgamma import InvalidDistributionError

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
_MODEL_BLOCK = 1 << 16  # model-MC draws per block: its temporaries stay in cache
_PHYSICAL_BLOCK = 4096  # physical-MC channel rows per block


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


class _Moments:
    """Streaming count, mean and sum of squared deviations over blocks.

    Blocks are merged by the Chan-Golub-LeVeque pairwise update, on values
    shifted by the first block's mean so that a large common offset costs no
    digits.
    """

    def __init__(self) -> None:
        self.count = 0
        self.shift = 0.0
        self.mean = 0.0  # of the shifted values
        self.m2 = 0.0

    def add(self, block: np.ndarray) -> None:
        """Merge one non-empty block of values."""
        if self.count == 0:
            self.shift = float(block.mean())
        dev = block - self.shift
        n_b = block.size
        mean_b = float(dev.mean())
        dev -= mean_b
        m2_b = float(np.dot(dev, dev))
        total = self.count + n_b
        delta = mean_b - self.mean
        self.mean += delta * n_b / total
        self.m2 += m2_b + delta * delta * self.count * n_b / total
        self.count = total

    def mean_se(self) -> tuple[float, float]:
        """(mean, standard error of the mean); the error is 0 below two values."""
        if self.count < 2:
            return self.shift + self.mean, 0.0
        var = self.m2 / (self.count - 1)
        return self.shift + self.mean, math.sqrt(var / self.count)


def _stream(seed: int, *path: int) -> np.random.Generator:
    """SFC64 generator keyed by SeedSequence([seed, *path]); schedule-independent."""
    key = np.random.SeedSequence([int(seed) & _MASK64, *(int(p) for p in path)])
    return np.random.Generator(np.random.SFC64(key))


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


def _drop_worker(cfg: NetworkConfig, policy: str, kernel, n_fading: int,
                 seed: int, drop_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-user fading-averaged SNR and rate for one drop, in user order."""
    real = associate(drop(cfg, seed, drop_index), policy, cfg)
    rng = _stream(seed, drop_index, _TAG_FADING)
    p = cfg.power
    k = cfg.k_ues
    snr_mean = np.empty(k)
    rate_mean = np.empty(k)

    direct = real.association < 0
    # Draw order is fixed (direct block, then reflector block) so results do
    # not depend on how drops are scheduled.
    if direct.any():
        idx = np.flatnonzero(direct)
        pows = sample_nakagami_power(cfg.m_bu, rng, (idx.size, n_fading))
        zeta = cfg.path_gain(np.linalg.norm(real.ue_positions[idx], axis=1))
        snr = snr_direct_batch(pows, zeta[:, None], p)
        snr_mean[idx] = snr.mean(axis=1)
        rate_mean[idx] = np.log2(1.0 + snr).mean(axis=1)
    if (~direct).any():
        idx = np.flatnonzero(~direct)
        n = cfg.geometry.n_elements
        serving = real.irs_positions[real.association[idx]]
        zeta_bi = cfg.path_gain(np.linalg.norm(serving, axis=1))
        zeta_iu = cfg.path_gain(np.linalg.norm(real.ue_positions[idx] - serving, axis=1))
        flat_bi = sample_nakagami_power(cfg.m_bi, rng, (idx.size * n_fading, n))
        flat_iu = sample_nakagami_power(cfg.m_iu, rng, (idx.size * n_fading, n))
        zb = np.repeat(zeta_bi, n_fading)
        zi = np.repeat(zeta_iu, n_fading)
        snr = kernel(flat_bi, flat_iu, zb, zi, p).reshape(idx.size, n_fading)
        snr_mean[idx] = snr.mean(axis=1)
        rate_mean[idx] = np.log2(1.0 + snr).mean(axis=1)
    return snr_mean, rate_mean


def simulate_cell(cfg: NetworkConfig, policy: str = "nearest", *,
                  n_drops: int, n_fading: int,
                  seed: int = 0, irs_mode: str = "active",
                  threads: int = 1) -> dict[str, SimEstimate]:
    """Monte-Carlo estimates of mean SNR, achievable rate and spatial throughput.

    Each (drop, user) contributes its fading-averaged value; the returned
    standard errors treat those per-user means as the independent samples
    (fading draws at a fixed position are not independent positional
    samples). spatial throughput = positional rate average / cell area.
    """
    if n_drops < 1 or n_fading < 1:
        raise ConfigError("n_drops and n_fading must be >= 1")
    if irs_mode not in ("active", "passive"):
        raise ConfigError(f"unknown irs_mode {irs_mode!r}")
    kernel = snr_active_batch if irs_mode == "active" else snr_passive_batch

    results: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n_drops
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, res in enumerate(
                pool.map(
                    lambda d: _drop_worker(cfg, policy, kernel, n_fading, seed, d),
                    range(n_drops),
                )
            ):
                results[i] = res
    else:
        for i in range(n_drops):
            results[i] = _drop_worker(cfg, policy, kernel, n_fading, seed, i)

    snr_ue = np.concatenate([r[0] for r in results])
    rate_ue = np.concatenate([r[1] for r in results])

    def estimate(values: np.ndarray, scale: float = 1.0) -> SimEstimate:
        n = values.size
        se = values.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
        return SimEstimate(mean=float(values.mean() * scale), std_error=float(se * scale))

    area = cfg.geometry.s_total
    return {
        "snr_mean": estimate(snr_ue),
        "achievable_rate": estimate(rate_ue),
        "spatial_throughput": estimate(rate_ue, scale=1.0 / area),
    }


def sweep_density(cfg: NetworkConfig, n_total_elements: int, m_values,
                  seed: int = 0, irs_mode: str = "active", *, p_f_total: float,
                  n_drops: int, n_fading: int,
                  threads: int = 1, power_budget: str = "split-total") -> list[dict]:
    """Spatial throughput versus reflector count at a fixed element budget.

    Each entry runs simulate_cell with M reflectors of N = n_total/M elements,
    users served by the nearest reflector.
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
            swept, n_drops=n_drops, n_fading=n_fading,
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
                        n: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo mean SNR under the analytic model itself.

    Samples the cascaded power from its Laguerre mixture and the amplified
    noise from the unit-mean Gamma(m_IU) law of the noise Laplace transform.
    The noise coordinate is importance-sampled from a three-part mixture:
    the nominal Gamma (bulk), the inverse-quadratic density kappa/(g+kappa)^2
    pinned at the receiver-noise floor scale kappa = sigma^2/(eta sigma_F^2)
    (deep fades), and a log-uniform bridge across the decades in between.
    Near that floor the plain estimator's variance is carried by
    ~1e-8-probability deep fades, which makes 1e6-draw sample means land far
    below the true value with misleadingly small sample errors; the mixture
    proposal bounds the weight everywhere and keeps the (g+kappa)^-1
    integrand's variance finite, so the estimator is unbiased with honest
    standard errors.

    The draws run in blocks of _MODEL_BLOCK whose means and variances are
    merged, so no full-length temporary is ever built. Returns (mean,
    standard error).
    """
    rng = _stream(seed, 999, 3)
    mix = analytic.cascaded_mixture(d_bi, d_iu, cfg)
    eta = analytic.averaged_amp_gain(d_bi, cfg)
    p = cfg.power
    m = cfg.m_iu
    noise_scale = eta * p.sigma_f2

    kappa = p.sigma2 / noise_scale
    lo = min(kappa, 0.1)
    hi = 10.0 * max(1.0, m)
    log_range = math.log(hi / lo)
    log_norm = m * math.log(m) - math.lgamma(m)

    acc = _Moments()
    for start in range(0, n, _MODEL_BLOCK):
        b = min(_MODEL_BLOCK, n - start)
        # x1 comes back grouped by mixture component; that is harmless only
        # because g below is drawn in iid order (pick), never grouped by part.
        try:
            x1 = mix.sample(rng, b)
        except InvalidDistributionError as exc:
            raise InvalidDistributionError(f"model_snr_moment_mc at {analytic._point(cfg)}, "
                                           f"d_bi={d_bi:g} m, d_iu={d_iu:g} m: {exc}") from exc
        pick = rng.random(b)
        bulk = np.flatnonzero(pick < 0.5)
        fade = np.flatnonzero((pick >= 0.5) & (pick < 0.75))
        bridge = np.flatnonzero(pick >= 0.75)
        g = np.empty(b)
        g[bulk] = rng.standard_gamma(m, bulk.size) / m
        u = rng.random(fade.size)
        g[fade] = kappa * u / (1.0 - u)
        g[bridge] = lo * np.exp(rng.uniform(0.0, log_range, bridge.size))

        # nominal Gamma(m, m) density of g
        pdf = np.log(g)
        pdf *= m - 1.0
        pdf -= m * g
        pdf += log_norm
        np.exp(pdf, out=pdf)
        # proposal density 0.5 pdf + 0.25 kappa/(g+kappa)^2 + 0.25 log-uniform
        mix_pdf = g + kappa
        mix_pdf *= mix_pdf
        np.divide(kappa, mix_pdf, out=mix_pdf)
        np.add(mix_pdf, np.divide(1.0 / log_range, g), out=mix_pdf,
               where=(g >= lo) & (g <= hi))
        mix_pdf *= 0.25
        mix_pdf += 0.5 * pdf
        # SNR times the importance weight pdf / mix_pdf
        snr = noise_scale * g
        snr += p.sigma2
        np.divide(p.p_t * x1, snr, out=snr)
        snr *= pdf
        snr /= mix_pdf
        acc.add(snr)
    return acc.mean_se()


def physical_snr_mc(cfg: NetworkConfig, d_bi: float, d_iu: float,
                    n: int = 1_000_000, seed: int = 0) -> dict[str, tuple[float, float]]:
    """Monte-Carlo mean SNR of the physical per-element channel at fixed
    distances, amplified (budget-exhausting gain recomputed per draw) and
    phase-only passive, both from the same channel draws.

    Returns {"active": (mean, standard error), "passive": (mean, standard error)}.
    """
    rng = _stream(seed, 998, 4)
    n_el = cfg.geometry.n_elements
    zeta_bi = cfg.path_gain(d_bi)
    zeta_iu = cfg.path_gain(d_iu)
    active, passive = _Moments(), _Moments()
    for start in range(0, n, _PHYSICAL_BLOCK):
        b = min(_PHYSICAL_BLOCK, n - start)
        pow_bi = sample_nakagami_power(cfg.m_bi, rng, (b, n_el))
        pow_iu = sample_nakagami_power(cfg.m_iu, rng, (b, n_el))
        active.add(snr_active_batch(pow_bi, pow_iu, zeta_bi, zeta_iu, cfg.power))
        passive.add(snr_passive_batch(pow_bi, pow_iu, zeta_bi, zeta_iu, cfg.power))
    return {"active": active.mean_se(), "passive": passive.mean_se()}
