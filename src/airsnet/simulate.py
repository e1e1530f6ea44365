"""Network-scale Monte Carlo: random drops, association, cell simulation.

Drops are position arrays with a leading drop axis, and their association
one array of serving indices. Randomness is counter-keyed: every (seed, *key)
tuple maps to its own SFC64 stream. A cell simulation draws all its drops at
once, the reflectors from the stream keyed by M and the users from the one
keyed by the seed alone, so every M and both association policies see the
same users (common random numbers); drop d's positions do not depend on the
number of drops. Each drop draws its fading once, element major: on the
stream (seed, d, 2) the BS-served users' powers, then the BS-reflector
powers as one plane of (reflector-served users x fading draws) per element;
on (seed, d, 6) the reflector-user powers likewise. A surface of N elements
reads the first N planes (_element_sums), so one draw, for the largest
surface, serves every case of a simulate_cell or physical-MC call.
Per-user rates are kept in drop order, per-user SNRs only as each drop's
mean and sum of squared deviations. The validation estimators draw in
cache-sized blocks and merge block means and variances; the model MC draws
once per unit cascade mixture (m_BI, m_IU, glq_order) and scores every
group of that mixture on the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .channel import (
    cascade_amplitude,
    sample_nakagami_power,
    snr_active_batch,
    snr_direct_batch,
    snr_passive_batch,
)
from .config import ConfigError, NetworkConfig
from .mixgamma import InvalidDistributionError

__all__ = [
    "SimEstimate",
    "drop",
    "associate",
    "simulate_cell",
    "sample_se",
    "model_snr_moment_mc",
    "physical_snr_mc",
]

_MASK64 = (1 << 64) - 1
_TAG_GEOMETRY = 1  # reflector positions, keyed (seed, M, tag)
_TAG_FADING = 2  # BS-user and BS-reflector powers, keyed (seed, drop, tag)
_TAG_USERS = 5  # user positions, keyed (seed, tag)
_TAG_FADING_IU = 6  # reflector-user powers, keyed (seed, drop, tag)
_MODEL_BLOCK = 1 << 16  # model-MC draws per block: its temporaries stay in cache
_PHYSICAL_BLOCK = 4096  # physical-MC channel rows per block
# per scoring group: user-reflector pairs of its association, and element sums
_DROP_BLOCK = 1 << 15
_MODES = ("active", "passive")  # reflector modes, in the order cell results list them
# the estimators' floating-point policy: a fault leaves a non-finite estimate (_finite)
_ESTIMATOR_ERRSTATE = np.errstate(divide="ignore", over="ignore", invalid="ignore")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    # the per-(drop, user) values behind a cell's spatial throughput, in drop
    # order, so that estimates on the same drops can be compared pairwise
    samples: np.ndarray | None = field(default=None, repr=False, compare=False)


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
        m2_b = float(np.square(dev, out=dev).sum())
        total = self.count + n_b
        delta = mean_b - self.mean
        self.mean += delta * n_b / total
        self.m2 += m2_b + delta * delta * self.count * n_b / total
        self.count = total

    def mean_se(self) -> tuple[float, float]:
        """(mean, standard error of the mean); the error is 0 below two values."""
        n = self.count
        return self.shift + self.mean, math.sqrt(self.m2 / (n - 1) / n) if n > 1 else 0.0


def sample_se(x: np.ndarray, scale: float = 1.0) -> float:
    """`scale` times the standard error of the mean of `x`, 0 below two samples; the scale
    multiplies before the division by sqrt(n), the rounding a ratio's error has always had."""
    return scale * float(x.std(ddof=1)) / math.sqrt(x.size) if x.size > 1 else 0.0


def _finite(estimate: tuple, where: str, what: str) -> tuple:
    """`estimate`, (mean, standard error); InvalidDistributionError at `where` if not finite."""
    mean, se = estimate
    if not np.all(np.isfinite(mean) & np.isfinite(se)):
        raise InvalidDistributionError(f"{where}: {what} estimate is not finite (mean {mean}, "
                                       f"standard error {se})")
    return estimate


def _stream(seed: int, *path: int) -> np.random.Generator:
    """SFC64 generator keyed by SeedSequence([seed, *path]); schedule-independent.

    The key goes in as the uint32 words numpy splits each int into
    (little-endian, 0 as one word): the same state, built in half the time.
    """
    words = [(n >> s) & 0xFFFFFFFF for n in (int(seed) & _MASK64, *map(int, path))
             for s in range(0, max(n.bit_length(), 1), 32)]
    key = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.SFC64(key))


def _ring_points(rng: np.random.Generator, n_drops: int, count: int,
                 r_in: float, r_out: float) -> np.ndarray:
    """(n_drops, count, 2) points area-uniform in r_in <= r <= r_out.

    Each drop's 2 * count uniforms are consecutive (radii, then angles), so a
    drop's points do not depend on how many drops follow it.
    """
    u = rng.random((n_drops, 2, count))
    r = np.sqrt(r_in**2 + u[:, 0] * (r_out**2 - r_in**2))
    th = 2.0 * math.pi * u[:, 1]
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def drop(cfg: NetworkConfig, seed: int, n_drops: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_drops drops: (D, M, 2) reflectors uniform in the ring, (D, K, 2) users in the disc.

    Reflectors come from the stream keyed (seed, M), users from the one keyed
    by the seed alone: every reflector count sees the same users.
    """
    geo = cfg.geometry
    irs = _ring_points(_stream(seed, geo.m_irs, _TAG_GEOMETRY), n_drops, geo.m_irs,
                       geo.l_in, geo.l_out)
    ue = _ring_points(_stream(seed, _TAG_USERS), n_drops, cfg.k_ues, 0.0, geo.l)
    return irs, ue


def _norm(a: np.ndarray, b: np.ndarray = np.zeros(2)) -> np.ndarray:
    """Distances |a - b| of (..., 2) points that broadcast; rounds as np.linalg.norm does."""
    # per coordinate, in place: a (..., 2) difference would loop over 2 values at a time
    dx, dy = (a[..., i] - b[..., i] for i in (0, 1))
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def associate(irs: np.ndarray, ue: np.ndarray, policy: str,
              cfg: NetworkConfig) -> np.ndarray:
    """Each user's server: -1 (the BS) inside the coverage radius, else a reflector index.

    nearest: the geometrically closest reflector. best_irs: the reflector
    maximizing the analytic mean SNR at the user's (d_BI, d_IU) pair. Ties
    break to the lowest index. (..., M, 2) reflectors and (..., K, 2) users
    with the same leading (drop) axes give (..., K) servers.
    """
    if policy not in ("nearest", "best_irs"):
        raise ConfigError(f"unknown association policy {policy!r}")
    d_iu = _norm(ue[..., :, None, :], irs[..., None, :, :])  # (..., users, reflectors)
    if policy == "nearest":
        choice = np.argmin(d_iu, axis=-1)
    else:
        d_bi = _norm(irs)[..., None, :]
        choice = np.argmax(analytic.mean_snr_closed(d_bi, d_iu, cfg), axis=-1)
    return np.where(_norm(ue) < cfg.geometry.l_in, -1, choice)


def _links(cfg: NetworkConfig, policy: str, irs: np.ndarray,
           ue: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (D, K) servers and (3, D, K) path gains ζ_BU, ζ_BI, ζ_IU of D drops.

    `irs` and `ue` are the drops' (D, M, 2) reflectors and (D, K, 2) users.
    ζ_BI and ζ_IU of a BS-served user are those of reflector 0; nothing
    reads them.
    """
    server = associate(irs, ue, policy, cfg)
    at = np.take_along_axis(irs, np.maximum(server, 0)[..., None], axis=-2)
    return server, cfg.path_gain(np.stack([_norm(ue), _norm(at), _norm(ue, at)]))


def _element_sums(cfg: NetworkConfig, rng_bi: np.random.Generator, rng_iu: np.random.Generator,
                  sizes: list[int], width: int, work: np.ndarray) -> np.ndarray:
    """Draw max(sizes) element planes of `width` values per reflector link, BI then IU.

    Returns the (sizes, 3, width) sums ||g_BI||^2, ||g_IU||^2 and cascade
    amplitude over the first N planes, for each N of the ascending `sizes`;
    a draw of N planes is the first N planes of any larger one. The planes
    fill `work` (>= 2 max(sizes) width values), which callers reuse: fresh
    planes per drop cost page faults.
    """
    pow_bi, pow_iu = work[:2 * sizes[-1] * width].reshape(2, sizes[-1], width)
    sample_nakagami_power(cfg.m_bi, rng_bi, out=pow_bi)
    sample_nakagami_power(cfg.m_iu, rng_iu, out=pow_iu)
    sums = np.empty((len(sizes), 3, width))
    for j, n in enumerate(sizes):
        pow_bi[:n].sum(axis=0, out=sums[j, 0])
        pow_iu[:n].sum(axis=0, out=sums[j, 1])
    amp = cascade_amplitude(pow_bi, pow_iu, out=pow_bi)
    for j, n in enumerate(sizes):
        amp[:n].sum(axis=0, out=sums[j, 2])
    return sums


def _draw_fading(cfg: NetworkConfig, seed: int, drops: range, n_relayed: np.ndarray,
                 n_fading: int, sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Draw consecutive drops' fading once, for the largest of `sizes` (surface sizes N).

    `n_relayed` holds each drop's count of reflector-served users. Returns
    the BS-served users' (users, n_fading) powers and the (sizes, 3, columns)
    element sums, one column per reflector-served user and fading draw, drop
    by drop: the BI planes follow the BS-served powers on the stream
    (seed, d, 2), the IU planes are on (seed, d, 6).
    """
    width = n_relayed * n_fading
    col = np.concatenate([[0], np.cumsum(width)])  # the i-th drop's columns: col[i]:col[i + 1]
    row = np.concatenate([[0], np.cumsum(cfg.k_ues - n_relayed)])  # its BS-served users
    pow_bu = np.empty((row[-1], n_fading))
    sums = np.empty((len(sizes), 3, col[-1]))
    work = np.empty(2 * sizes[-1] * int(width.max()))
    for i, d in enumerate(drops):
        rng = _stream(seed, d, _TAG_FADING)
        sample_nakagami_power(cfg.m_bu, rng, out=pow_bu[row[i]:row[i + 1]])
        if width[i] > 0:
            sums[..., col[i]:col[i + 1]] = _element_sums(
                cfg, rng, _stream(seed, d, _TAG_FADING_IU), sizes, width[i], work)
    return pow_bu, sums


@_ESTIMATOR_ERRSTATE
def simulate_cell(cases, *, n_drops: int, n_fading: int,
                  seed: int = 0) -> list[dict[str, dict[str, SimEstimate]]]:
    """Monte-Carlo estimates of mean SNR, achievable rate and spatial throughput.

    `cases` lists (NetworkConfig, policy) pairs that differ at most in
    m_irs, n_elements, p_f and policy; any other difference from case 0
    raises ConfigError naming the case. Returns one {"active": {metric:
    SimEstimate}, "passive": {...}} per case, both modes scored on the same
    drops, associations and fading. All cases see the same users and
    BS-serve those inside the ring; reflectors are drawn and the nearest
    association made once per M, fading once per drop for the largest
    surface (_draw_fading), so each case's estimates are those of a call
    with it alone, bit for bit.
    Each (drop, user) contributes its fading-averaged value; the returned
    standard errors treat those per-user means as the independent samples
    (fading draws at a fixed position are not independent positional
    samples). spatial throughput = positional rate average / cell area; its
    estimates carry those per-user values as samples. Drops run in groups
    whose association pairs and element sums each hold about _DROP_BLOCK
    values. An estimate whose mean or standard error leaves the float range
    raises InvalidDistributionError naming the point.
    """
    if n_drops < 1 or n_fading < 1:
        raise ConfigError("n_drops and n_fading must be >= 1")
    cfg = cases[0][0]
    fixed = dict(m_irs=cfg.geometry.m_irs, n_elements=cfg.geometry.n_elements, p_f=cfg.power.p_f)
    for i, (layout, _) in enumerate(cases):
        if layout.at(**fixed) != cfg:
            raise ConfigError(f"simulate_cell case {i} differs from case 0 outside M, N and P_F")
    k, f = cfg.k_ues, n_fading
    irs = {}
    for layout, _ in cases:
        if layout.geometry.m_irs not in irs:
            irs[layout.geometry.m_irs], ue = drop(layout, seed, n_drops)
    sizes = sorted({layout.geometry.n_elements for layout, _ in cases})
    step = max(1, _DROP_BLOCK // (k * max(3 * len(sizes) * f, max(irs))))
    shape = (len(cases), len(_MODES))
    rate_ue = np.empty((*shape, n_drops * k))
    snr_drop = np.empty((2, *shape, n_drops))  # per drop, its users' SNR mean and M2
    # the nearest association reads M alone: cases of one M share it
    keys = [("nearest", layout.geometry.m_irs) if policy == "nearest" else i
            for i, (layout, policy) in enumerate(cases)]
    for lo in range(0, n_drops, step):
        drops = range(lo, min(lo + step, n_drops))
        found = {key: _links(layout, policy, irs[layout.geometry.m_irs][lo:drops.stop],
                             ue[lo:drops.stop])
                 for key, (layout, policy) in dict(zip(keys, cases)).items()}
        links = [found[key] for key in keys]
        relayed = links[0][0].ravel() >= 0
        pow_bu, sums = _draw_fading(cfg, seed, drops, relayed.reshape(-1, k).sum(axis=1), f,
                                    sizes)
        snr_ue, rate = np.empty((*shape, len(drops) * k)), rate_ue[..., lo * k:drops.stop * k]
        snr = snr_direct_batch(pow_bu, links[0][1][0].ravel()[~relayed][:, None], cfg.power)
        snr_ue[..., ~relayed] = snr.mean(axis=1)
        rate[..., ~relayed] = np.log2(1.0 + snr).mean(axis=1)
        for i, ((layout, _), (_, zeta)) in enumerate(zip(cases, links)):
            n = layout.geometry.n_elements
            g_bi, g_iu, cascade = sums[sizes.index(n)]
            zeta_bi, zeta_iu = (np.repeat(z.ravel()[relayed], f) for z in zeta[1:])
            snr = np.stack([
                snr_active_batch(g_bi, g_iu, cascade, n, zeta_bi, zeta_iu, layout.power),
                snr_passive_batch(cascade, zeta_bi, zeta_iu, layout.power),
            ]).reshape(len(_MODES), -1, f)
            snr_ue[i][:, relayed] = snr.mean(axis=2)
            rate[i][:, relayed] = np.log2(1.0 + snr).mean(axis=2)
        snr_ue = snr_ue.reshape(*shape, len(drops), k)
        mean = snr_ue.mean(axis=-1, out=snr_drop[0, ..., lo:drops.stop])
        snr_ue -= mean[..., None]
        np.square(snr_ue, out=snr_ue).sum(axis=-1, out=snr_drop[1, ..., lo:drops.stop])
    return [_estimates(layout, policy, k, snr_drop[:, i], rate_ue[i])
            for i, (layout, policy) in enumerate(cases)]


def _estimates(cfg: NetworkConfig, policy: str, k: int, snr_drop: np.ndarray,
               rate_ue: np.ndarray) -> dict[str, dict[str, SimEstimate]]:
    """Per mode, the estimates from per-drop SNR moments and per-user rates.

    `snr_drop` holds, per mode and drop, the mean and the sum of squared
    deviations (M2) of the drop's k per-user SNRs, which merge into the
    mean and M2 over all users. `rate_ue` holds the (mode, user)
    per-user rates; its rows, scaled in place, become the spatial-throughput
    samples once the achievable rate has been estimated from them.
    """
    n = rate_ue.shape[-1]
    where = (f"simulate_cell at {analytic._point(cfg)}, m_irs={cfg.geometry.m_irs}, "
             f"n_elements={cfg.geometry.n_elements}, policy={policy}")

    def checked(mode: str, metric: str, mean, se, samples=None) -> SimEstimate:
        mean, se = _finite((float(mean), float(se)), where, f"the {mode} {metric}")
        return SimEstimate(mean=mean, std_error=se, samples=samples)

    per_area = 1.0 / cfg.geometry.s_total
    out = {}
    for mode, (drop_mean, drop_m2), rate in zip(_MODES, snr_drop.swapaxes(0, 1), rate_ue):
        snr_mean = drop_mean.mean()
        m2 = drop_m2.sum() + k * np.square(drop_mean - snr_mean).sum()
        snr_se = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
        rate_mean = rate.mean()
        rate_se = sample_se(rate)
        out[mode] = {
            "snr_mean": checked(mode, "snr_mean", snr_mean, snr_se),
            "achievable_rate": checked(mode, "achievable_rate", rate_mean, rate_se),
            "spatial_throughput": checked(mode, "spatial_throughput", rate_mean * per_area,
                                          rate_se * per_area,
                                          np.multiply(rate, per_area, out=rate)),
        }
    return out


# ---------------------------------------------------------------------------
# Validation estimators (model-consistent and physical)
# ---------------------------------------------------------------------------


def _model_mc_key(cfg: NetworkConfig, d_bi: float) -> tuple[tuple, tuple]:
    """(unit mixture, noise law) of a model-MC group.

    The unit mixture (m_BI, m_IU, glq_order) fixes the draws; the noise law
    (P_t, sigma^2, eta sigma_F^2) fixes how they are scored. N enters only
    through the cascade scale v, so groups that differ in N share an estimate.
    """
    p = cfg.power
    return ((cfg.m_bi, cfg.m_iu, cfg.glq_order),
            (p.p_t, p.sigma2, analytic.averaged_amp_gain(d_bi, cfg) * p.sigma_f2))


@_ESTIMATOR_ERRSTATE
def model_snr_moment_mc(groups, d_iu, n: int = 1_000_000, seed: int = 0) -> list[tuple]:
    """Monte-Carlo mean SNR under the analytic model itself, for (cfg, d_BI) groups.

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

    One estimate on the unit mixture (scale 1) serves a whole d_IU array:
    the mixture scales by v (analytic.cascade_scale) and the noise proposal
    depends on d_BI alone, so each d_IU's mean and standard error are the
    unit estimate's divided by its v, with no closed form in the rescaling.

    The draws depend on the unit mixture alone (_model_mc_key): groups that
    share it read one draw from the stream keyed (seed, 999, 3), and each
    distinct noise law among them scores that draw into one estimate, which
    groups that differ only in N share. So the estimates of one mixture are
    correlated (common random numbers), and each equals the one that group
    would get alone. The draws run in blocks of _MODEL_BLOCK whose means and
    variances are merged, so no full-length temporary is ever built.

    Returns one (mean, standard error) per group, in order: floats for a
    scalar d_iu, else arrays in its shape. A cascade scale or an estimate
    outside the float range raises InvalidDistributionError naming the group.
    """
    groups = list(groups)

    def where(cfg: NetworkConfig, d_bi: float) -> str:
        at = ", ".join(f"{d:g}" for d in np.ravel(d_iu))
        at = at if np.ndim(d_iu) == 0 else f"[{at}]"
        return f"model_snr_moment_mc at {analytic._point(cfg)}, d_bi={d_bi:g} m, d_iu={at} m"

    scales, estimates, laws, first = [], [], {}, {}
    for cfg, d_bi in groups:
        v = analytic.cascade_scale(d_bi, d_iu, cfg)
        if not np.all((v > 0) & np.isfinite(v)):
            raise InvalidDistributionError(
                f"{where(cfg, d_bi)}: cascade scale v={v} is not a positive finite value")
        scales.append(v)
        mixture, law = _model_mc_key(cfg, d_bi)
        first.setdefault(mixture, (cfg, d_bi))
        estimates.append(laws.setdefault(mixture, {}).setdefault(law, _Moments()))
    for mixture, by_law in laws.items():
        try:
            _score_unit_mixture(mixture, by_law, n, seed)
        except InvalidDistributionError as exc:
            raise InvalidDistributionError(f"{where(*first[mixture])}: {exc}") from exc
    return [_finite(tuple(x / v for x in acc.mean_se()), where(cfg, d_bi), "the")
            for (cfg, d_bi), v, acc in zip(groups, scales, estimates)]


def _score_unit_mixture(mixture: tuple, laws: dict, n: int, seed: int) -> None:
    """Draw n model-MC samples of one unit mixture; add each noise law's SNRs to its moments.

    `laws` maps (P_t, sigma^2, eta sigma_F^2) to its _Moments. Every block is
    drawn once (mixture sample, proposal pick, bulk Gamma, fade and bridge
    uniforms) and scored under each law with that law's kappa, in one reused
    work buffer. Plain NumPy gives the same bits but ran the model MC 4-30%
    slower at 12 laws per block (the default mean-snr-vs-pf) in three 2-vCPU
    measurements; at 2 laws (perfbench validate) its wall time ties, faster in
    10 of 22 alternating pairs, and its peak RSS is 0.8 MB higher.
    """
    m = mixture[1]
    mix = analytic._unit_cascade(*mixture)
    hi = 10.0 * max(1.0, m)
    log_norm = m * math.log(m) - math.lgamma(m)
    rng = _stream(seed, 999, 3)
    work = np.empty((5, min(n, _MODEL_BLOCK)))
    for start in range(0, n, _MODEL_BLOCK):
        b = min(_MODEL_BLOCK, n - start)
        g, pdf, mix_pdf, snr, tmp = work[:, :b]
        # x1 comes back grouped by mixture component; that is harmless only
        # because g below is drawn in iid order (pick), never grouped by part.
        x1 = mix.sample(rng, b)
        pick = rng.random(b)
        bulk = np.flatnonzero(pick < 0.5)
        fade = np.flatnonzero((pick >= 0.5) & (pick < 0.75))
        bridge = np.flatnonzero(pick >= 0.75)
        g_bulk = sample_nakagami_power(m, rng, bulk.size)
        u = rng.random(fade.size)
        # L * U is what rng.uniform(0, L) returns, bit for bit, on the same draws
        u_bridge = rng.random(bridge.size)
        for (p_t, sigma2, noise_scale), acc in laws.items():
            kappa = sigma2 / noise_scale
            lo = min(kappa, 0.1)
            log_range = math.log(hi / lo)
            g[bulk] = g_bulk
            g[fade] = kappa * u / (1.0 - u)
            g[bridge] = lo * np.exp(log_range * u_bridge)

            # nominal Gamma(m, m) density of g
            np.log(g, out=pdf)
            pdf *= m - 1.0
            pdf -= np.multiply(m, g, out=tmp)
            pdf += log_norm
            np.exp(pdf, out=pdf)
            # proposal density 0.5 pdf + 0.25 kappa/(g+kappa)^2 + 0.25 log-uniform,
            # the last term added as 0 outside [lo, hi] (x + 0 is x); the middle
            # one as (kappa/(g+kappa))/(g+kappa), since (g+kappa)^2 leaves the
            # float range below g+kappa ~ 1e-154 and above ~ 1e154
            np.add(g, kappa, out=tmp)
            np.divide(kappa, tmp, out=mix_pdf)
            mix_pdf /= tmp
            np.divide(1.0 / log_range, g, out=tmp)
            np.putmask(tmp, ~((g >= lo) & (g <= hi)), 0.0)
            mix_pdf += tmp
            mix_pdf *= 0.25
            mix_pdf += np.multiply(0.5, pdf, out=tmp)
            # SNR times the importance weight pdf / mix_pdf
            np.multiply(noise_scale, g, out=snr)
            snr += sigma2
            np.divide(np.multiply(p_t, x1, out=tmp), snr, out=snr)
            snr *= pdf
            snr /= mix_pdf
            acc.add(snr)


@_ESTIMATOR_ERRSTATE
def physical_snr_mc(layouts, d_bi: float, d_iu: float, n: int = 1_000_000,
                    seed: int = 0) -> list[dict[str, tuple[float, float]]]:
    """Monte-Carlo mean SNR of the physical per-element channel at fixed
    distances, amplified (budget-exhausting gain recomputed per draw) and
    phase-only passive, both from the same channel draws and cascade amplitude.

    The layouts differ only in n_elements (any other difference from layout
    0 raises ConfigError naming it). Each block of _PHYSICAL_BLOCK draws is
    one _element_sums draw, for the largest surface, on the stream keyed
    (seed, 998, 4). Returns per layout {"active" | "passive": (mean, standard
    error)}; InvalidDistributionError names a non-finite one's point, N and mode.
    """
    cfg = layouts[0]
    for i, layout in enumerate(layouts):
        if layout.at(n_elements=cfg.geometry.n_elements) != cfg:
            raise ConfigError(f"physical_snr_mc layout {i} differs from layout 0 outside N")
    rng = _stream(seed, 998, 4)
    sizes = sorted({layout.geometry.n_elements for layout in layouts})
    zeta_bi, zeta_iu = cfg.path_gain(d_bi), cfg.path_gain(d_iu)
    moments = [(_Moments(), _Moments()) for _ in layouts]  # per layout, one per mode
    work = np.empty(2 * sizes[-1] * min(n, _PHYSICAL_BLOCK))
    for start in range(0, n, _PHYSICAL_BLOCK):
        sums = _element_sums(cfg, rng, rng, sizes, min(_PHYSICAL_BLOCK, n - start), work)
        for layout, (active, passive) in zip(layouts, moments):
            n_el = layout.geometry.n_elements
            g_bi, g_iu, cascade = sums[sizes.index(n_el)]
            active.add(snr_active_batch(g_bi, g_iu, cascade, n_el, zeta_bi, zeta_iu,
                                        layout.power))
            passive.add(snr_passive_batch(cascade, zeta_bi, zeta_iu, layout.power))
    where = f"physical_snr_mc at {analytic._point(cfg)}, d_bi={d_bi:g} m, d_iu={d_iu:g} m"
    return [{mode: _finite(acc.mean_se(), f"{where}, n_elements={layout.geometry.n_elements}",
                           f"the {mode}") for mode, acc in zip(_MODES, accs)}
            for layout, accs in zip(layouts, moments)]
