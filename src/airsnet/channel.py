"""Physical-layer ground truth: fading draws, reflection design, per-draw SNR.

The reflecting surface applies one common amplification factor chosen to
exhaust its power budget; phases are aligned, so after alignment only
amplitudes matter and the SNR kernels take (B, N) blocks of amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mathkit import DomainError

__all__ = [
    "PowerParams",
    "sample_nakagami_amplitude",
    "snr_direct_batch",
    "snr_active_batch",
    "snr_passive_batch",
]


@dataclass(frozen=True)
class PowerParams:
    """Transmit/amplification/noise powers, all in watts."""

    p_t: float = 1.0
    p_f: float = 0.01
    sigma2: float = 1e-11
    sigma_f2: float = 1e-10

    def __post_init__(self):
        if min(self.p_t, self.p_f, self.sigma2, self.sigma_f2) <= 0:
            raise DomainError("all power parameters must be positive")


def sample_nakagami_amplitude(m: float, rng: np.random.Generator, size=None):
    """Amplitude r with r^2 ~ Gamma(shape m, rate m), so E[r^2] = 1."""
    if m < 0.5:
        raise DomainError(f"Nakagami shape must be >= 0.5, got {m}")
    power = rng.standard_gamma(m, size=size) / m
    return np.sqrt(power)


def snr_direct_batch(amp_bu: np.ndarray, bu_path_loss: float,
                     power: PowerParams) -> np.ndarray:
    """Vectorized direct-link SNR over a batch of |g_BU| draws."""
    return power.p_t * bu_path_loss * np.asarray(amp_bu) ** 2 / power.sigma2


def snr_active_batch(amp_bi: np.ndarray, amp_iu: np.ndarray, zeta_bi: float,
                     zeta_iu: float, power: PowerParams) -> np.ndarray:
    """Vectorized amplified SNR for (B, N) amplitude blocks.

    Computes the budget-exhausting gain, the aligned cascade sum and the
    amplified-noise denominator per row.
    """
    amp_bi = np.asarray(amp_bi, dtype=float)
    amp_iu = np.asarray(amp_iu, dtype=float)
    n = amp_bi.shape[1]
    g_bi_norm_sq = (amp_bi * amp_bi).sum(axis=1)
    g_iu_norm_sq = (amp_iu * amp_iu).sum(axis=1)
    amp_sq = power.p_f / (power.p_t * zeta_bi * g_bi_norm_sq + n * power.sigma_f2)
    cascade = (amp_bi * amp_iu).sum(axis=1)
    signal = power.p_t * amp_sq * zeta_bi * zeta_iu * cascade * cascade
    noise = amp_sq * zeta_iu * g_iu_norm_sq * power.sigma_f2 + power.sigma2
    return signal / noise


def snr_passive_batch(amp_bi: np.ndarray, amp_iu: np.ndarray, zeta_bi: float,
                      zeta_iu: float, power: PowerParams) -> np.ndarray:
    """Vectorized phase-only reflection SNR for (B, N) amplitude blocks."""
    amp_bi = np.asarray(amp_bi, dtype=float)
    amp_iu = np.asarray(amp_iu, dtype=float)
    cascade = (amp_bi * amp_iu).sum(axis=1)
    return power.p_t * zeta_bi * zeta_iu * cascade * cascade / power.sigma2
