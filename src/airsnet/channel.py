"""Physical-layer ground truth: fading draws, reflection design, per-draw SNR.

The reflecting surface applies one common amplification factor chosen to
exhaust its power budget; phases are aligned, so after alignment only the
per-element channel powers |g|^2 matter: the SNR kernels take (B, N) blocks
of powers, and the aligned cascade amplitude is sum_i sqrt(|g_BI,i|^2 |g_IU,i|^2).
"""

from __future__ import annotations

import numpy as np

from .config import PowerParams
from .mathkit import DomainError

__all__ = [
    "sample_nakagami_power",
    "snr_direct_batch",
    "snr_active_batch",
    "snr_passive_batch",
]


def sample_nakagami_power(m: float, rng: np.random.Generator, size=None):
    """Channel power |g|^2 ~ Gamma(shape m, rate m) of Nakagami-m fading, E|g|^2 = 1."""
    if m < 0.5:
        raise DomainError(f"Nakagami shape must be >= 0.5, got {m}")
    return rng.standard_gamma(m, size=size) / m


def _cascade(pow_bi: np.ndarray, pow_iu: np.ndarray) -> np.ndarray:
    """Phase-aligned cascade amplitude sum_i |g_BI,i| |g_IU,i| per row."""
    prod = pow_bi * pow_iu
    return np.sqrt(prod, out=prod).sum(axis=1)


def snr_direct_batch(pow_bu: np.ndarray, bu_path_loss: float,
                     power: PowerParams) -> np.ndarray:
    """Vectorized direct-link SNR over a batch of |g_BU|^2 draws."""
    return power.p_t * bu_path_loss * np.asarray(pow_bu) / power.sigma2


def snr_active_batch(pow_bi: np.ndarray, pow_iu: np.ndarray, zeta_bi: float,
                     zeta_iu: float, power: PowerParams) -> np.ndarray:
    """Vectorized amplified SNR for (B, N) channel-power blocks.

    Computes the budget-exhausting gain, the aligned cascade sum and the
    amplified-noise denominator per row.
    """
    pow_bi = np.asarray(pow_bi, dtype=float)
    pow_iu = np.asarray(pow_iu, dtype=float)
    n = pow_bi.shape[1]
    g_bi_norm_sq = pow_bi.sum(axis=1)
    g_iu_norm_sq = pow_iu.sum(axis=1)
    amp_sq = power.p_f / (power.p_t * zeta_bi * g_bi_norm_sq + n * power.sigma_f2)
    cascade = _cascade(pow_bi, pow_iu)
    signal = power.p_t * amp_sq * zeta_bi * zeta_iu * cascade * cascade
    noise = amp_sq * zeta_iu * g_iu_norm_sq * power.sigma_f2 + power.sigma2
    return signal / noise


def snr_passive_batch(pow_bi: np.ndarray, pow_iu: np.ndarray, zeta_bi: float,
                      zeta_iu: float, power: PowerParams) -> np.ndarray:
    """Vectorized phase-only reflection SNR for (B, N) channel-power blocks."""
    cascade = _cascade(np.asarray(pow_bi, dtype=float), np.asarray(pow_iu, dtype=float))
    return power.p_t * zeta_bi * zeta_iu * cascade * cascade / power.sigma2
