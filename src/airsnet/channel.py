"""Physical-layer ground truth: fading draws, reflection design, per-draw SNR.

The reflecting surface applies one common amplification factor chosen to
exhaust its power budget; phases are aligned, so after alignment only the
per-element channel powers |g|^2 matter. The reflector SNR kernels take,
per channel draw, sums over the N elements: ||g_BI||^2, ||g_IU||^2 and the
aligned cascade amplitude sum_i sqrt(|g_BI,i|^2 |g_IU,i|^2), whose terms
cascade_amplitude forms. The caller sums them over whichever axis holds the
elements and passes one cascade to both reflector modes. Path gains may be
scalars or one value per draw.
"""

from __future__ import annotations

import numpy as np

from .config import NetworkConfig
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
    """Per-element phase-aligned amplitudes |g_BI,i| |g_IU,i|; their sum is the cascade.

    With `out` (an array of the powers' shape, which may be one of them) the
    amplitudes are formed in it.
    """
    prod = np.multiply(pow_bi, pow_iu, out=out)
    return np.sqrt(prod, out=prod)


def snr_direct_batch(pow_bu: np.ndarray, bu_path_loss, cfg: NetworkConfig) -> np.ndarray:
    """Direct-link SNR, elementwise over any array of |g_BU|^2 draws."""
    return cfg.p_t * bu_path_loss * np.asarray(pow_bu) / cfg.sigma2


def snr_active_batch(g_bi_norm_sq: np.ndarray, g_iu_norm_sq: np.ndarray, cascade: np.ndarray,
                     zeta_bi, zeta_iu, cfg: NetworkConfig) -> np.ndarray:
    """Amplified SNR per channel draw of a cfg.n_elements surface, from its element sums.

    The budget-exhausting gain follows from ||g_BI||^2, the amplified-noise
    denominator from ||g_IU||^2.
    """
    amp_sq = cfg.p_f / (cfg.p_t * zeta_bi * g_bi_norm_sq + cfg.n_elements * cfg.sigma_f2)
    signal = cfg.p_t * amp_sq * zeta_bi * zeta_iu * cascade * cascade
    noise = amp_sq * zeta_iu * g_iu_norm_sq * cfg.sigma_f2 + cfg.sigma2
    return signal / noise


def snr_passive_batch(cascade: np.ndarray, zeta_bi, zeta_iu, cfg: NetworkConfig) -> np.ndarray:
    """Phase-only reflection SNR per channel draw, from its cascade amplitude."""
    with np.errstate(over="ignore"):  # inf off the float range; the caller names the point
        return cfg.p_t * zeta_bi * zeta_iu * cascade * cascade / cfg.sigma2
