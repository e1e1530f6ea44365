"""Mixture-Gamma channel-power distributions of one shape.

The direct base-station link is an exact one-component Gamma. The amplified
cascaded link is a mixture over the nodes of the Gauss rule for the Gamma(m_IU)
weight: its masses are the rule's weights, which depend on m_IU alone, and its
rates carry one distance-dependent scale v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathkit import DomainError, QuadratureRule

__all__ = [
    "InvalidDistributionError",
    "MixtureGamma",
    "direct_power_dist",
    "cascaded_power_dist",
]


class InvalidDistributionError(ValueError):
    """The distribution is not usable for the requested operation."""


@dataclass(frozen=True)
class MixtureGamma:
    """Weighted sum of Gamma laws of one shape: pdf(x) = sum_i mass_i Gamma(beta, xi_i)-pdf(x).

    The component masses sum to 1 for a normalized mixture. The pdf works
    per term in log space, so rates of order 1e9+ stay representable.
    """

    mass: np.ndarray
    beta: float
    xi: np.ndarray

    def __post_init__(self):
        for arr in (self.mass, self.xi):
            arr.setflags(write=False)
        if self.mass.shape != self.xi.shape:
            raise InvalidDistributionError("component arrays must align")
        if not self.beta > 0 or np.any(self.xi <= 0):
            raise InvalidDistributionError("beta and xi must be positive")

    def _log_coefficients(self) -> np.ndarray:
        """log of mass_i xi_i^beta / Gamma(beta), the pdf's x-free factor."""
        with np.errstate(divide="ignore"):  # a zero mass has coefficient 0
            return np.log(self.mass) + self.beta * np.log(self.xi) - math.lgamma(self.beta)

    def pdf(self, x):
        """Density at x > 0 (scalar or array)."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr <= 0):
            raise DomainError("pdf requires x > 0")
        col = np.atleast_1d(arr)[:, None]
        logs = self._log_coefficients() + (self.beta - 1.0) * np.log(col) - self.xi * col
        out = np.exp(logs).sum(axis=1)
        return float(out[0]) if arr.ndim == 0 else out

    def moment(self, ell: float) -> float:
        """Raw moment E[X^ell] = sum_i mass_i Gamma(beta + ell)/(Gamma(beta) xi_i^ell)."""
        if not ell > 0:
            raise DomainError(f"moment order must be positive, got {ell}")
        lgam = math.lgamma(self.beta + ell) - math.lgamma(self.beta)
        return float(self.mass @ np.exp(lgam - ell * np.log(self.xi)))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw `size` variates: component counts ~ Multinomial(size,
        renormalized masses), then one Gamma(beta, xi_i) block per component.

        The draws come back grouped by component (all of component 0 first,
        then component 1, ...), not in iid order. As a multiset they are an
        iid sample, so any symmetric statistic (mean, variance, histogram) is
        unaffected, and pairing them elementwise with independent iid-ordered
        draws is safe; pairing them with another grouped sequence is not.

        Requires a near-normalized mixture (defect <= 1e-3), as every mixture
        built here is; sampling from a badly unnormalized mass set would
        silently change the law. A zero mass is drawn with probability 0.
        """
        total = self.mass.sum()
        if abs(total - 1.0) > 1e-3:
            raise InvalidDistributionError(
                "normalization defect exceeds 1e-3; not a samplable distribution")
        counts = rng.multinomial(size, self.mass / total)
        out = np.empty(size)
        stop = 0
        for count, xi in zip(counts, self.xi):
            block = out[stop:stop + count]
            rng.standard_gamma(self.beta, out=block)
            block /= xi
            stop += count
        return out

    def to_json_obj(self) -> list[dict]:
        """Components in the paper's raw form eps_i x^(beta-1) e^(-xi_i x)."""
        return [{"epsilon": float(e), "beta": self.beta, "xi": float(x)}
                for e, x in zip(np.exp(self._log_coefficients()), self.xi)]


def direct_power_dist(m: float, gain: float) -> MixtureGamma:
    """Exact direct-link channel-power law: one component, beta = m and xi = m / gain."""
    if m < 0.5 or not gain > 0:
        raise DomainError(f"need Nakagami shape m >= 0.5 and gain > 0, got {m}, {gain}")
    return MixtureGamma(mass=np.ones(1), beta=float(m), xi=np.array([m / gain]))


def cascaded_power_dist(m_bi: float, m_iu: float, v: float,
                        rule: QuadratureRule) -> MixtureGamma:
    """Laguerre-mixture approximation of the amplified cascaded channel power.

    `rule` is the Gauss rule for the Gamma(m_iu) weight t^(m_iu-1) e^-t/Gamma(m_iu)
    (NetworkConfig.rule()). Component i sits at its node t_i with mass w_i,
    shape m_bi and rate xi_i = m_bi m_iu v / t_i. Only the scale
    v = W/(amp_sq N^2) depends on the distances: W = 1/gain is the inverse
    product path gain zeta_BI zeta_IU and amp_sq the deterministic averaged
    amplification gain. The masses sum to 1 and their mean sum_i w_i t_i is
    m_iu at every shape, up to roundoff.
    """
    if not 0 < v < np.inf:
        raise DomainError(f"the cascade scale v must be positive and finite, got {v}")
    return MixtureGamma(mass=rule.weights, beta=float(m_bi), xi=m_bi * m_iu * v / rule.nodes)
