"""Shared reference oracles for the test suite.

These deliberately avoid the library's own code paths: the exponential
integral oracle uses an fsum'd power series (small x) and a high-order
Laguerre sum of 1/(t+x) (large x); the cascade masses are written out from
the Laguerre rule with scipy's gammaln; the mixture CDF uses scipy's
regularized incomplete Gamma; the noise Laplace transform is written out
from its law; the amplified-link rate is one z-domain quadrature per
distance pair; the amplified-link mean SNR is the paper's per-node sum with
each node integral taken by mpmath.
"""

import math

import numpy as np
import pytest

EULER_GAMMA = 0.5772156649015328606


def e1_series(x: float) -> float:
    """E1(x) by the alternating series, exact summation via fsum (x <= 5)."""
    terms = [-EULER_GAMMA, -math.log(x)]
    t = 1.0
    for k in range(1, 80):
        t *= -x / k
        terms.append(-t / k)
    return math.fsum(terms)


def ref_exp_e1_scaled(x: float) -> float:
    """Reference e^x E1(x): series below 5, 64-node Laguerre sum above."""
    if x <= 5.0:
        return math.exp(x) * e1_series(x)
    from airsnet.mathkit import gauss_laguerre

    rule = gauss_laguerre(64)
    return float(rule.weights @ (1.0 / (rule.nodes + x)))


def rayleigh_mean_snr(d_bi: float, d_iu: float, cfg) -> float:
    """Mean amplified-link SNR for Rayleigh reflector->user fading (m_IU = 1).

    (N P_t zeta_BI zeta_IU / sigma_F^2) e^(Psi/P_F) E1(Psi/P_F) with
    Psi = sigma^2 (P_t zeta_BI + sigma_F^2) / sigma_F^2, on ref_exp_e1_scaled.
    """
    p = cfg.power
    zeta_bi = cfg.epsilon_ref * max(d_bi, cfg.distance_floor) ** -cfg.alpha
    zeta_iu = cfg.epsilon_ref * max(d_iu, cfg.distance_floor) ** -cfg.alpha
    psi = p.sigma2 * (p.p_t * zeta_bi + p.sigma_f2) / p.sigma_f2
    n = cfg.geometry.n_elements
    return n * p.p_t * zeta_bi * zeta_iu / p.sigma_f2 * ref_exp_e1_scaled(psi / p.p_f)


def mean_snr_node_sum(d_bi: float, d_iu: float, cfg) -> float:
    """Mean amplified-link SNR as the paper's per-node sum sum_i K_i phi_i.

    K_i = w_i t_i^(2m-1) m_BI^(1-m) (N P_t/(sigma_F^2 W))^m / Gamma(m) and
    phi_i = integral e^(-a_i z) (z + D_i)^-m dz with
    a_i = m_BI m W sigma^2/(t_i eta N P_t) and D_i = N P_t t_i/(sigma_F^2 m_BI W),
    W = 1/(zeta_BI zeta_IU), on numpy's Gauss-Laguerre rule. Each phi_i is
    one mpmath.quad over breakpoints three decades apart from min(D_i, 1/a_i)
    to 100 max(D_i, 1/a_i); the oracle never uses the library's collapse
    phi_i = D_i^(1-m) psi_m(a_i D_i).
    """
    import mpmath

    p = cfg.power
    m = cfg.m_iu
    n = cfg.geometry.n_elements
    zeta_bi = cfg.epsilon_ref * max(d_bi, cfg.distance_floor) ** -cfg.alpha
    zeta_iu = cfg.epsilon_ref * max(d_iu, cfg.distance_floor) ** -cfg.alpha
    w_big = 1.0 / (zeta_bi * zeta_iu)
    eta = p.p_f / (p.p_t * zeta_bi + p.sigma_f2)
    nodes, weights = np.polynomial.laguerre.laggauss(cfg.glq_order)
    total = mpmath.mpf(0)
    with mpmath.workdps(20):
        for t, w in zip(nodes, weights):
            t, w = mpmath.mpf(t), mpmath.mpf(w)
            k = (w * t ** (2 * m - 1) * mpmath.mpf(cfg.m_bi) ** (1 - m)
                 * (n * p.p_t / (p.sigma_f2 * w_big)) ** m / mpmath.gamma(m))
            a = cfg.m_bi * m * w_big * p.sigma2 / (t * eta * n * p.p_t)
            d = n * p.p_t * t / (p.sigma_f2 * cfg.m_bi * w_big)
            breaks = [0]
            x = min(d, 1 / a)
            while x < 100 * max(d, 1 / a):
                breaks.append(x)
                x *= 1000
            phi = mpmath.quad(lambda z: mpmath.exp(-a * z) * (z + d) ** -m, breaks + [mpmath.inf])
            total += k * phi
    return float(total)


def passive_cascade_k(m_bi: float, m_iu: float) -> float:
    """k = (E a * E b)^2 for unit-power Nakagami amplitudes a ~ m_BI, b ~ m_IU.

    E a = Gamma(m + 1/2) / (Gamma(m) sqrt(m)), from lgamma only; for
    m_BI = m_IU = 1 (Rayleigh) k = pi^2/16.
    """
    def amp_mean(m: float) -> float:
        return math.exp(math.lgamma(m + 0.5) - math.lgamma(m)) / math.sqrt(m)

    return (amp_mean(m_bi) * amp_mean(m_iu)) ** 2


def passive_moment_ratio(n: int, m_bi: float, m_iu: float) -> float:
    """Exact E[(sum_i a_i b_i)^2] / N^2 for N phase-aligned elements.

    E[(sum a_i b_i)^2] = N E[a^2] E[b^2] + N(N-1) (E a E b)^2 = N + N(N-1) k,
    so the ratio to the N^2 form is 1/N + (1 - 1/N) k.
    """
    return 1.0 / n + (1.0 - 1.0 / n) * passive_cascade_k(m_bi, m_iu)


def cascade_masses(rule, m_iu: float) -> np.ndarray:
    """The cascade mixture's masses w_i t_i^(m_IU-1)/Gamma(m_IU), from the rule.

    Written out with scipy's gammaln, not read from the mixture, so an oracle
    that uses them checks the library's masses too.
    """
    from scipy.special import gammaln

    return rule.weights * np.exp((m_iu - 1.0) * np.log(rule.nodes) - gammaln(m_iu))


def mixture_cdf(mix, x, rule, m_iu: float):
    """P(X <= x) of a cascade mixture: sum_i mass_i P(beta_i, xi_i x).

    mass_i from cascade_masses(rule, m_iu), and P is scipy's regularized
    lower incomplete Gamma. Accepts a scalar or 1-D array x.
    """
    from scipy.special import gammainc

    xs = np.atleast_1d(np.asarray(x, dtype=float))
    masses = cascade_masses(rule, m_iu)
    out = masses @ gammainc(mix.beta[:, None], mix.xi[:, None] * xs[None, :])
    return float(out[0]) if np.ndim(x) == 0 else out


def noise_laplace(z, xi_i: float, d_bi: float, cfg, component_rate: bool = True):
    """E exp(-z eta sigma_F^2 c G / P_t) for unit-mean G ~ Gamma(m_IU, 1/m_IU).

    The amplified-noise Laplace transform (1 + z eta sigma_F^2 c/(P_t m_IU))^-m_IU
    with eta = P_F/(P_t eps d_BI^-alpha + sigma_F^2), under the two readings
    of where the mixture component rate belongs: c = xi_i (component_rate)
    or c = 1.
    """
    p = cfg.power
    zeta_bi = cfg.epsilon_ref * max(d_bi, cfg.distance_floor) ** -cfg.alpha
    eta = p.p_f / (p.p_t * zeta_bi + p.sigma_f2)
    c = xi_i if component_rate else 1.0
    return (1.0 + z * eta * p.sigma_f2 * c / (p.p_t * cfg.m_iu)) ** -cfg.m_iu


def rate_active_oracle(d_bi: float, d_iu: float, cfg) -> float:
    """Amplified-link rate of one (d_BI, d_IU) pair in the original z domain.

    log2(e) * integral (1/z)(1 - (1+z)^-beta) sum_i mass_i e^(-z xi_i sigma^2/P_t)
    (1 + z eta sigma_F^2 xi_i/(P_t m_IU))^-m_IU dz over the cascaded mixture's
    own (beta, xi_i), with masses from cascade_masses(cfg.rule(), m_IU):
    one adaptive quadrature of the whole component sum per pair, with none of
    the distance factorization the library kernel uses.
    """
    from airsnet.analytic import averaged_amp_gain, cascaded_mixture
    from airsnet.mathkit import integrate_semi_infinite_with_error

    p = cfg.power
    mix = cascaded_mixture(d_bi, d_iu, cfg)
    masses = cascade_masses(cfg.rule(), cfg.m_iu)
    decay = mix.xi * p.sigma2 / p.p_t
    noise_rates = averaged_amp_gain(d_bi, cfg) * p.sigma_f2 * mix.xi / (p.p_t * cfg.m_iu)
    beta = float(mix.beta[0])

    def kernel(z):
        q = -np.expm1(-beta * np.log1p(z)) / z
        zc = z[:, None]
        terms = np.exp(-zc * decay - cfg.m_iu * np.log1p(zc * noise_rates))
        return q * (terms @ masses)

    value, _ = integrate_semi_infinite_with_error(kernel, 1e-10, max_panels=16384)
    return math.log2(math.e) * value


def rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
