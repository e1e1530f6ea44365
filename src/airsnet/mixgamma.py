"""Mixture-Gamma channel-power distributions, stored as log component masses.

The direct base-station link is an exact one-component Gamma. The amplified
cascaded link is a mixture over the nodes of the Gauss rule for the Gamma(m_IU)
weight: its masses are the rule's weights, which depend on m_IU alone, and its
rates carry one distance-dependent scale v.
The pdf, moments and sampling work per term in log space, so rates of order
1e9+ and masses below the smallest double survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathkit import DomainError, QuadratureRule

__all__ = [
    "AccuracyError",
    "InvalidDistributionError",
    "MixtureGamma",
    "direct_power_dist",
    "cascaded_power_dist",
]


class AccuracyError(ValueError):
    """The requested construction cannot meet its accuracy contract."""


class InvalidDistributionError(ValueError):
    """The distribution is not usable for the requested operation."""


@dataclass(frozen=True)
class MixtureGamma:
    """Weighted sum of Gamma laws: pdf(x) = sum_i mass_i Gamma(beta_i, xi_i)-pdf(x).

    The component masses sum to 1 for a normalized mixture. log_mass is the
    primary representation, so a mass that underflows a double stays a
    finite log and extreme rates stay representable.
    """

    log_mass: np.ndarray
    beta: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        for arr in (self.log_mass, self.beta, self.xi):
            arr.setflags(write=False)
        if not (self.log_mass.shape == self.beta.shape == self.xi.shape):
            raise InvalidDistributionError("component arrays must align")
        if np.any(self.beta <= 0) or np.any(self.xi <= 0):
            raise InvalidDistributionError("beta and xi must be positive")

    def _log_coefficients(self) -> np.ndarray:
        """log of mass_i xi_i^beta_i / Gamma(beta_i), the pdf's x-free factor."""
        lgam = np.array([math.lgamma(b) for b in self.beta])
        return self.log_mass + self.beta * np.log(self.xi) - lgam

    def pdf(self, x):
        """Density at x > 0 (scalar or array)."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr <= 0):
            raise DomainError("pdf requires x > 0")
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        col = arr[:, None]
        logs = self._log_coefficients() + (self.beta - 1.0) * np.log(col) - self.xi * col
        out = np.exp(logs).sum(axis=1)
        return float(out[0]) if scalar else out

    def moment(self, ell: float) -> float:
        """Raw moment E[X^ell] = sum_i mass_i Gamma(beta_i + ell)/(Gamma(beta_i) xi_i^ell)."""
        if not ell > 0:
            raise DomainError(f"moment order must be positive, got {ell}")
        lgam = np.array([math.lgamma(b + ell) - math.lgamma(b) for b in self.beta])
        return float(np.exp(self.log_mass + lgam - ell * np.log(self.xi)).sum())

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw `size` variates: component counts ~ Multinomial(size,
        renormalized masses), then one Gamma(beta_i, xi_i) block per component.

        The draws come back grouped by component (all of component 0 first,
        then component 1, ...), not in iid order. As a multiset they are an
        iid sample, so any symmetric statistic (mean, variance, histogram) is
        unaffected, and pairing them elementwise with independent iid-ordered
        draws is safe; pairing them with another grouped sequence is not.

        Requires a near-normalized mixture (defect <= 1e-3), as every mixture
        built here is; sampling from a badly unnormalized mass set would
        silently change the law. A mass that underflows to 0 is drawn with
        probability 0.
        """
        masses = np.exp(self.log_mass)
        total = masses.sum()
        if abs(total - 1.0) > 1e-3:
            raise InvalidDistributionError(
                "normalization defect exceeds 1e-3; not a samplable distribution")
        counts = rng.multinomial(size, masses / total)
        out = np.empty(size)
        stop = 0
        for count, beta, xi in zip(counts, self.beta, self.xi):
            block = out[stop:stop + count]
            rng.standard_gamma(beta, out=block)
            block /= xi
            stop += count
        return out

    def to_json_obj(self) -> list[dict]:
        """Components in the paper's raw form eps_i x^(beta_i-1) e^(-xi_i x)."""
        return [
            {"epsilon": float(e), "beta": float(b), "xi": float(x)}
            for e, b, x in zip(np.exp(self._log_coefficients()), self.beta, self.xi)
        ]


def direct_power_dist(m: float, gain: float) -> MixtureGamma:
    """Exact direct-link channel-power law: one component, beta = m and xi = m / gain."""
    if m < 0.5 or not gain > 0:
        raise DomainError(f"need Nakagami shape m >= 0.5 and gain > 0, got {m}, {gain}")
    return MixtureGamma(log_mass=np.zeros(1), beta=np.array([float(m)]), xi=np.array([m / gain]))


def cascaded_power_dist(m_bi: float, m_iu: float, v: float,
                        rule: QuadratureRule) -> MixtureGamma:
    """Laguerre-mixture approximation of the amplified cascaded channel power.

    `rule` is the Gauss rule for the Gamma(m_iu) weight t^(m_iu-1) e^-t/Gamma(m_iu)
    (NetworkConfig.rule()). Component i sits at its node t_i with mass w_i,
    shape beta_i = m_bi and rate xi_i = m_bi m_iu v / t_i. Only the scale
    v = W/(amp_sq N^2) depends on the distances: W = 1/gain is the inverse
    product path gain zeta_BI zeta_IU and amp_sq the deterministic averaged
    amplification gain. The masses sum to 1 and their mean sum_i w_i t_i is
    m_iu at every shape, up to roundoff.
    """
    if rule.order < 4:
        raise AccuracyError(
            f"rule order {rule.order} is too coarse for the cascaded mixture; use >= 4")
    if not 0 < v < np.inf:
        raise DomainError(f"the cascade scale v must be positive and finite, got {v}")
    return MixtureGamma(log_mass=np.log(rule.weights),
                        beta=np.full(rule.order, m_bi), xi=m_bi * m_iu * v / rule.nodes)
