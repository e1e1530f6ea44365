"""Physical-layer ground truth: fading draws, reflection design, per-draw SNR.

The reflecting surface applies one common amplification factor chosen to
exhaust its power budget; phases are aligned, so after alignment only the
per-element channel powers |g|^2 matter. The SNR kernels take (B, N) blocks
of powers, or the block's aligned cascade amplitude
sum_i sqrt(|g_BI,i|^2 |g_IU,i|^2), which the caller computes once with
cascade_amplitude and passes to both reflector modes. Path gains may be
scalars or one value per row.
"""

from __future__ import annotations

import numpy as np

from .config import PowerParams
from .mathkit import DomainError

__all__ = [
    "sample_nakagami_power",
    "cascade_amplitude",
    "snr_direct_batch",
    "snr_active_batch",
    "snr_passive_batch",
]


def sample_nakagami_power(m: float, rng: np.random.Generator, size=None, *, out=None):
    """Channel power |g|^2 ~ Gamma(shape m, rate m) of Nakagami-m fading, E|g|^2 = 1.

    With `out` (a C-contiguous float64 array) the draws fill it in place, the
    same values as size=out.shape. m = 1 is drawn as standard exponentials,
    which is what numpy's standard_gamma(1.0) returns draw for draw, minus
    its per-draw dispatch.
    """
    if m < 0.5:
        raise DomainError(f"Nakagami shape must be >= 0.5, got {m}")
    if m == 1.0:
        return rng.standard_exponential(size=size, out=out)
    power = rng.standard_gamma(m, size=size, out=out)
    power /= m
    return power


def cascade_amplitude(pow_bi: np.ndarray, pow_iu: np.ndarray, *, out=None) -> np.ndarray:
    """Phase-aligned cascade amplitude sum_i |g_BI,i| |g_IU,i| per row of (B, N) powers.

    With `out` (a (B, N) array) the elementwise product is formed in it.
    """
    prod = np.multiply(pow_bi, pow_iu, out=out)
    return np.sqrt(prod, out=prod).sum(axis=1)


def snr_direct_batch(pow_bu: np.ndarray, bu_path_loss, power: PowerParams) -> np.ndarray:
    """Direct-link SNR, elementwise over any array of |g_BU|^2 draws."""
    return power.p_t * bu_path_loss * np.asarray(pow_bu) / power.sigma2


def snr_active_batch(pow_bi: np.ndarray, pow_iu: np.ndarray, cascade: np.ndarray,
                     zeta_bi, zeta_iu, power: PowerParams) -> np.ndarray:
    """Amplified SNR per row of (B, N) channel-power blocks, given their cascade amplitude.

    Computes the budget-exhausting gain from ||g_BI||^2 and the
    amplified-noise denominator from ||g_IU||^2 per row.
    """
    n = pow_bi.shape[1]
    g_bi_norm_sq = pow_bi.sum(axis=1)
    g_iu_norm_sq = pow_iu.sum(axis=1)
    amp_sq = power.p_f / (power.p_t * zeta_bi * g_bi_norm_sq + n * power.sigma_f2)
    signal = power.p_t * amp_sq * zeta_bi * zeta_iu * cascade * cascade
    noise = amp_sq * zeta_iu * g_iu_norm_sq * power.sigma_f2 + power.sigma2
    return signal / noise


def snr_passive_batch(cascade: np.ndarray, zeta_bi, zeta_iu, power: PowerParams) -> np.ndarray:
    """Phase-only reflection SNR per row, from the rows' cascade amplitude."""
    with np.errstate(over="ignore"):  # inf off the float range; the caller names the point
        return power.p_t * zeta_bi * zeta_iu * cascade * cascade / power.sigma2
