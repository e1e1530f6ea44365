"""Mixture-Gamma channel-power distributions.

Two parameterizations cover the network's links: an exact single-component
Gamma for the direct base-station link, and a Laguerre-node mixture for the
amplified cascaded link, whose component rates scale with the product
path-loss over the averaged amplification gain. All distribution algebra
(pdf, moments, sampling) is evaluated in log space per term so that rate
parameters of order 1e9+ survive.
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
    """Weighted sum of Gamma terms: pdf(x) = sum_i eps_i x^(beta_i-1) e^(-xi_i x).

    The eps_i are raw coefficients, not probabilities; for a normalized
    mixture sum_i eps_i Gamma(beta_i) xi_i^(-beta_i) = 1. log_epsilon is the
    primary representation to keep extreme rates representable.
    """

    log_epsilon: np.ndarray
    beta: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        for arr in (self.log_epsilon, self.beta, self.xi):
            arr.setflags(write=False)
        if not (self.log_epsilon.shape == self.beta.shape == self.xi.shape):
            raise InvalidDistributionError("component arrays must align")
        if np.any(self.beta <= 0) or np.any(self.xi <= 0):
            raise InvalidDistributionError("beta and xi must be positive")

    @property
    def epsilon(self) -> np.ndarray:
        return np.exp(self.log_epsilon)

    def _log_masses(self) -> np.ndarray:
        """log of eps_i Gamma(beta_i) xi_i^(-beta_i), the component masses."""
        lgam = np.array([math.lgamma(b) for b in self.beta])
        return self.log_epsilon + lgam - self.beta * np.log(self.xi)

    def normalization_mass(self) -> float:
        return float(np.exp(self._log_masses()).sum())

    def pdf(self, x):
        """Density at x > 0 (scalar or array)."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr <= 0):
            raise DomainError("pdf requires x > 0")
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        logs = (
            self.log_epsilon[None, :]
            + (self.beta[None, :] - 1.0) * np.log(arr[:, None])
            - self.xi[None, :] * arr[:, None]
        )
        out = np.exp(logs).sum(axis=1)
        return float(out[0]) if scalar else out

    def moment(self, ell: float) -> float:
        """Raw moment E[X^ell] for ell > 0."""
        if not ell > 0:
            raise DomainError(f"moment order must be positive, got {ell}")
        lgam = np.array([math.lgamma(b + ell) for b in self.beta])
        logs = self.log_epsilon + lgam - (self.beta + ell) * np.log(self.xi)
        return float(np.exp(logs).sum())

    def component_probabilities(self) -> np.ndarray:
        """Component masses renormalized to sum exactly to 1."""
        masses = np.exp(self._log_masses())
        total = masses.sum()
        if total <= 0 or np.any(masses <= 0):
            raise InvalidDistributionError("component masses must be positive")
        return masses / total

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw `size` variates: component counts ~ Multinomial(size,
        renormalized masses), then one Gamma(beta_i, xi_i) block per component.

        The draws come back grouped by component (all of component 0 first,
        then component 1, ...), not in iid order. As a multiset they are an
        iid sample, so any symmetric statistic (mean, variance, histogram) is
        unaffected, and pairing them elementwise with independent iid-ordered
        draws is safe; pairing them with another grouped sequence is not.

        Requires a near-normalized mixture (defect <= 1e-3); sampling from a
        badly unnormalized coefficient set would silently change the law.
        """
        if abs(self.normalization_mass() - 1.0) > 1e-3:
            raise InvalidDistributionError(
                "normalization defect exceeds 1e-3; not a samplable distribution"
            )
        counts = rng.multinomial(size, self.component_probabilities())
        out = np.empty(size)
        stop = 0
        for count, beta, xi in zip(counts, self.beta, self.xi):
            block = out[stop:stop + count]
            rng.standard_gamma(beta, out=block)
            block /= xi
            stop += count
        return out

    def to_json_obj(self) -> list[dict]:
        return [
            {"epsilon": float(e), "beta": float(b), "xi": float(x)}
            for e, b, x in zip(self.epsilon, self.beta, self.xi)
        ]


def direct_power_dist(m: float, gain: float) -> MixtureGamma:
    """Exact Gamma law of the direct-link channel power as a one-term mixture.

    beta = m, xi = m / gain, eps = xi^m / Gamma(m); the mean equals the link's
    channel power gain exactly.
    """
    if m < 0.5 or not gain > 0:
        raise DomainError(f"need Nakagami shape m >= 0.5 and gain > 0, got {m}, {gain}")
    xi = m / gain
    log_eps = m * math.log(xi) - math.lgamma(m)
    return MixtureGamma(
        log_epsilon=np.array([log_eps]),
        beta=np.array([float(m)]),
        xi=np.array([xi]),
    )


def cascaded_power_dist(m_bi: float, m_iu: float, gain: float, amp_sq: float,
                        n_elements: int, rule: QuadratureRule) -> MixtureGamma:
    """Laguerre-mixture approximation of the amplified cascaded channel power.

    Component i sits at quadrature node t_i:

        beta_i = m_bi
        xi_i   = (m_bi m_iu / t_i) * W / (amp_sq N^2)
        eps_i  = (m_bi m_iu)^m_bi w_i t_i^(m_iu - m_bi - 1)
                 / (Gamma(m_bi) Gamma(m_iu)) * (W / (amp_sq N^2))^m_bi

    with W = 1/gain the inverse product path gain zeta_BI zeta_IU and amp_sq
    the deterministic averaged amplification gain. The defect of
    sum_i eps_i Gamma(beta_i) xi_i^(-beta_i) from 1 shrinks with the rule
    order; order 20 keeps it under 1e-4 for the shapes this model targets.
    """
    if rule.order < 4:
        raise AccuracyError(
            f"rule order {rule.order} is too coarse for the cascaded mixture; use >= 4"
        )
    if amp_sq <= 0:
        raise DomainError(f"amp_sq must be positive, got {amp_sq}")
    if n_elements < 1:
        raise DomainError(f"n_elements must be >= 1, got {n_elements}")
    v = (1.0 / gain) / (amp_sq * float(n_elements) ** 2)

    t = rule.nodes
    log_eps = (
        m_bi * math.log(m_bi * m_iu * v)
        + np.log(rule.weights)
        + (m_iu - m_bi - 1.0) * np.log(t)
        - math.lgamma(m_bi)
        - math.lgamma(m_iu)
    )
    xi = m_bi * m_iu * v / t
    beta = np.full(rule.order, m_bi)
    return MixtureGamma(log_epsilon=log_eps, beta=beta, xi=xi)
