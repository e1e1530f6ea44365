"""Shared reference oracles for the test suite.

These deliberately avoid the library's own code paths: the exponential
integral oracle uses an fsum'd power series (small x) and a high-order
Laguerre sum of 1/(t+x) (large x); the cascade nodes and masses come from
scipy's generalized Gauss-Laguerre rule; the mixture CDF uses scipy's
regularized incomplete Gamma; the noise Laplace transform is written out
from its law; the amplified-link rate is one z-domain quadrature per
distance pair, and independently a nested quadrature free of any rule; the
amplified-link mean SNR is the paper's per-node sum with each node integral
taken by mpmath; the direct-link rate is E log2(1 + gamma X) over the Gamma
law itself, by mpmath.
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


def mean_snr_mpmath(d_bi: float, d_iu: float, cfg) -> float:
    """Mean amplified-link SNR N P_t zeta_BI zeta_IU m_IU/sigma_F^2 e^kappa E_m(kappa).

    The closed form at 40 digits (mpmath.expint), kappa = m_IU sigma^2/(eta sigma_F^2)
    and eta = P_F/(P_t zeta_BI + sigma_F^2); the mixture mean m_IU is exact.
    """
    import mpmath

    with mpmath.workdps(40):
        mpf = mpmath.mpf
        p = cfg.power
        zeta_bi = mpf(cfg.epsilon_ref) * mpf(max(d_bi, cfg.distance_floor)) ** -mpf(cfg.alpha)
        zeta_iu = mpf(cfg.epsilon_ref) * mpf(max(d_iu, cfg.distance_floor)) ** -mpf(cfg.alpha)
        eta = mpf(p.p_f) / (mpf(p.p_t) * zeta_bi + mpf(p.sigma_f2))
        m = mpf(cfg.m_iu)
        kappa = m * mpf(p.sigma2) / (eta * mpf(p.sigma_f2))
        scale = cfg.geometry.n_elements * mpf(p.p_t) * zeta_bi * zeta_iu * m / mpf(p.sigma_f2)
        return float(scale * mpmath.exp(kappa) * mpmath.expint(m, kappa))


def rate_direct_mpmath(d_bu: float, cfg) -> float:
    """Direct-link rate E log2(1 + gamma X) at 30 digits, X ~ Gamma(m_BU) of unit mean.

    gamma = P_t zeta_BU/sigma^2. One mpmath.quad over the Gamma density in
    u = ln x, broken where log(1 + gamma x) turns over (u = -ln gamma) and at
    the density's peak scale u = 0; never the MGF lemma the library uses. The
    range stops where the integrand has fallen below e^-200 of its scale.
    """
    import mpmath

    with mpmath.workdps(30):
        mpf = mpmath.mpf
        m = mpf(cfg.m_bu)
        zeta = mpf(cfg.epsilon_ref) * mpf(max(d_bu, cfg.distance_floor)) ** -mpf(cfg.alpha)
        gamma = mpf(cfg.power.p_t) * zeta / mpf(cfg.power.sigma2)
        log_norm = m * mpmath.log(m) - mpmath.loggamma(m)

        def h(u):
            x = mpmath.exp(u)
            return mpmath.log1p(gamma * x) * mpmath.exp(log_norm + m * u - m * x)

        turn = -mpmath.log(gamma)
        breaks = sorted([turn - 200, turn, mpmath.mpf(0), mpmath.log(200 / m + 50)])
        total = mpmath.quad(h, breaks)
        return float(total / mpmath.log(2))


def mean_snr_node_sum(d_bi: float, d_iu: float, cfg) -> float:
    """Mean amplified-link SNR as the paper's per-node sum sum_i K_i phi_i.

    K_i = w_i t_i^(2m-1) m_BI^(1-m) (N P_t/(sigma_F^2 W))^m / Gamma(m) and
    phi_i = integral e^(-a_i z) (z + D_i)^-m dz with
    a_i = m_BI m W sigma^2/(t_i eta N P_t) and D_i = N P_t t_i/(sigma_F^2 m_BI W),
    W = 1/(zeta_BI zeta_IU), written as mass_i t_i^m ... with the nodes and
    masses of cascade_rule (so w_i t_i^(m-1) there is the Gamma(m)-weight
    rule's weight). Each phi_i is
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
    nodes, masses = cascade_rule(cfg.glq_order, m)
    total = mpmath.mpf(0)
    with mpmath.workdps(20):
        for t, mass in zip(nodes, masses):
            t, mass = mpmath.mpf(t), mpmath.mpf(mass)
            k = (mass * t ** m * mpmath.mpf(cfg.m_bi) ** (1 - m)
                 * (n * p.p_t / (p.sigma_f2 * w_big)) ** m)
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


def cascade_rule(order: int, m_iu: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_i and masses of the cascade mixture: the order-n Gauss rule for
    the Gamma(m_IU) weight t^(m_IU-1) e^-t/Gamma(m_IU).

    From scipy's roots_genlaguerre (alpha = m_IU - 1), masses = w_i/Gamma(m_IU)
    with scipy's gammaln, not read from the library, so an oracle that uses
    them checks the library's rule too. scipy's weights overflow near
    alpha = 170, so keep m_IU <= 127.
    """
    from scipy.special import gammaln, roots_genlaguerre

    nodes, weights = roots_genlaguerre(order, m_iu - 1.0)
    return nodes, weights * np.exp(-gammaln(m_iu))


def mixture_cdf(mix, x, m_iu: float):
    """P(X <= x) of a cascade mixture: sum_i mass_i P(beta, xi_i x).

    mass_i from cascade_rule at the mixture's order, and P is scipy's
    regularized lower incomplete Gamma. Accepts a scalar or 1-D array x.
    """
    from scipy.special import gammainc

    xs = np.atleast_1d(np.asarray(x, dtype=float))
    _, masses = cascade_rule(mix.xi.size, m_iu)
    out = masses @ gammainc(mix.beta, mix.xi[:, None] * xs[None, :])
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
    own (beta, xi_i), with masses from cascade_rule(glq_order, m_IU):
    one adaptive quadrature of the whole component sum per pair, with none of
    the distance factorization the library kernel uses.
    """
    from airsnet.analytic import averaged_amp_gain, cascaded_mixture
    from airsnet.mathkit import integrate_semi_infinite_with_error

    p = cfg.power
    mix = cascaded_mixture(d_bi, d_iu, cfg)
    _, masses = cascade_rule(cfg.glq_order, cfg.m_iu)
    decay = mix.xi * p.sigma2 / p.p_t
    noise_rates = averaged_amp_gain(d_bi, cfg) * p.sigma_f2 * mix.xi / (p.p_t * cfg.m_iu)
    beta = mix.beta

    def kernel(z):
        q = -np.expm1(-beta * np.log1p(z)) / z
        zc = z[:, None]
        terms = np.exp(-zc * decay - cfg.m_iu * np.log1p(zc * noise_rates))
        return q * (terms @ masses)

    value, _ = integrate_semi_infinite_with_error(kernel, 1e-10, max_panels=16384)
    return math.log2(math.e) * value


def rate_active_reference(d_bi: float, d_iu: float, cfg) -> float:
    """Amplified-link rate of the exact cascade, free of any Laguerre rule.

    log2(e) * integral F(y) (1 - (1 + y/S)^-m_BI)/y dy with
    F(y) = E_t[e^(-kappa y/t) (1 + y/t)^-m_IU], t ~ Gamma(m_IU, 1): the
    mixture's F_b with the rule's sum replaced by the expectation it
    approximates. S = sigma_F^2 m_BI/(N P_t zeta_BI zeta_IU) and
    kappa = m_IU sigma^2/(eta sigma_F^2) are written out here. Both
    integrals run in log coordinates (y = e^u, t = e^s) with scipy's quad,
    broken at ln S, 0 and ln(1/kappa), where the integrands turn over.
    """
    from scipy.integrate import quad
    from scipy.special import gammaln

    p = cfg.power
    m, m_bi = cfg.m_iu, cfg.m_bi
    zeta_bi = cfg.epsilon_ref * max(d_bi, cfg.distance_floor) ** -cfg.alpha
    zeta_iu = cfg.epsilon_ref * max(d_iu, cfg.distance_floor) ** -cfg.alpha
    eta = p.p_f / (p.p_t * zeta_bi + p.sigma_f2)
    s_scale = p.sigma_f2 * m_bi / (cfg.geometry.n_elements * p.p_t * zeta_bi * zeta_iu)
    kappa = m * p.sigma2 / (eta * p.sigma_f2)
    log_norm = -gammaln(m)
    # s = ln t ~ e^(m s - e^s)/Gamma(m): under e^-36 of its peak outside these
    s_lo, s_hi = math.log(m) - 36.0 / min(m, math.sqrt(m)), math.log(m + 40.0 + 9.0 * math.sqrt(m))

    def f(y: float) -> float:
        def g(s: float) -> float:
            t = math.exp(s)
            return math.exp(m * s - t + log_norm - kappa * y / t - m * math.log1p(y / t))

        # the factors turn over at t = y, t = kappa y and the Gamma peak t = m
        turns = sorted(x for x in (math.log(y), math.log(kappa * y), math.log(m))
                       if s_lo < x < s_hi)
        return quad(g, s_lo, s_hi, points=turns, epsabs=0.0, epsrel=1e-12, limit=400)[0]

    def h(u: float) -> float:
        y = math.exp(u)
        return f(y) * -math.expm1(-m_bi * math.log1p(y / s_scale))

    breaks = sorted({math.log(s_scale), 0.0, -math.log(kappa)})
    total = quad(h, breaks[0] - 40.0, breaks[-1] + 40.0, points=breaks, epsabs=0.0,
                 epsrel=1e-11, limit=400)[0]
    return math.log2(math.e) * total


def rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
