import math

import numpy as np
import pytest
from scipy.special import gammaln

from airsnet.mathkit import DomainError, gauss_laguerre, integrate_semi_infinite_with_error
from airsnet.mixgamma import (
    InvalidDistributionError,
    MixtureGamma,
    cascaded_power_dist,
    direct_power_dist,
)
from conftest import cascade_rule, mixture_cdf, rel_err

RULE = gauss_laguerre(20)  # the Gamma(1) rule, the cascade's at m_iu = 1


def unit_cascade(m_bi, m_iu, order=20):
    # the mixture's one scale W/(amp_sq N^2) set to 1, on the Gamma(m_iu) rule
    return cascaded_power_dist(m_bi, m_iu, 1.0, gauss_laguerre(order, m_iu - 1.0))


def cascade_scale(product_gain, amp_sq, n):
    """v = W/(amp_sq N^2) with W = 1/product_gain."""
    return (1.0 / product_gain) / (amp_sq * n**2)


def gain(d):
    """Path gain 1e-3 d^-3 of a link of length d."""
    return 1e-3 * d**-3.0


def total_mass(mix):
    return float(mix.mass.sum())


def single(mass, beta, xi):
    return MixtureGamma(mass=np.array([float(mass)]), beta=float(beta), xi=np.array([float(xi)]))


def product_density_kernel(m1, m2, z, u):
    """f1(u) f2(z/u) / u for unit-mean Gamma densities f1, f2 of shapes m1, m2.

    ln(z/u) is formed as ln z - ln u, so a z/u past the float range leaves
    -m2 z/u = -inf and a 0 kernel, not 0*inf or inf - inf.
    """
    with np.errstate(over="ignore"):
        x2 = z / u
    lf1 = m1 * math.log(m1) + (m1 - 1.0) * np.log(u) - m1 * u - math.lgamma(m1)
    lf2 = (m2 * math.log(m2) + (m2 - 1.0) * (np.log(z) - np.log(u)) - m2 * x2
           - math.lgamma(m2))
    return np.exp(lf1 + lf2) / u


def product_mean_bruteforce(m1, m2):
    """Mean of X1*X2 (independent unit-mean Gammas) via its product density.

    f_Z(z) = int f1(u) f2(z/u) / u du, integrated against z numerically;
    nothing here reuses the mixture construction.
    """

    def f_z(z):
        return integrate_semi_infinite_with_error(
            lambda u: product_density_kernel(m1, m2, z, u), 1e-9, max_panels=8192)[0]

    return integrate_semi_infinite_with_error(
        lambda z: np.array([zz * f_z(zz) for zz in z]),
        1e-7,
        max_panels=8192,
    )[0]


def product_cdf_bruteforce(z):
    """P(X1*X2 <= z) for unit-mean exponentials, by direct convolution."""
    return integrate_semi_infinite_with_error(
        lambda u: np.exp(-u) * (1.0 - np.exp(-z / u)), 1e-10, max_panels=8192
    )[0]


class TestDirectPowerDist:
    def test_rayleigh_at_100m(self):
        dist = direct_power_dist(1.0, gain(100.0))
        assert dist.xi.size == 1
        assert dist.beta == 1.0
        assert dist.xi[0] == pytest.approx(1e9, rel=1e-12)
        assert dist.mass[0] == 1.0
        assert dist.to_json_obj()[0]["epsilon"] == pytest.approx(1e9, rel=1e-12)
        assert dist.moment(1) == pytest.approx(1e-9, rel=1e-12)

    def test_unit_distance_shape_two(self):
        dist = direct_power_dist(2.0, 1.0)
        assert dist.beta == 2.0
        assert dist.xi[0] == 2.0
        assert dist.to_json_obj()[0]["epsilon"] == pytest.approx(4.0, rel=1e-12)
        assert dist.moment(1) == pytest.approx(1.0, rel=1e-12)

    def test_mean_is_path_loss(self):
        dist = direct_power_dist(3.0, gain(50.0))
        assert rel_err(dist.moment(1), 1e-3 * 50.0**-3) < 1e-12

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.0])
    def test_pdf_matches_gamma_density_pointwise(self, m):
        dist = direct_power_dist(m, gain(80.0))
        mean = dist.moment(1)
        xi = m * 80.0**3 / 1e-3
        for x in (0.1 * mean, mean, 10.0 * mean):
            ref = math.exp(
                m * math.log(xi) + (m - 1.0) * math.log(x) - xi * x - math.lgamma(m)
            )
            assert rel_err(dist.pdf(x), ref) < 1e-12

    def test_moments(self):
        dist = direct_power_dist(1.0, gain(10.0))
        mean = 1e-3 * 10.0**-3
        assert rel_err(dist.moment(2), 2.0 * mean**2) < 1e-12

    def test_link_invariants(self):
        with pytest.raises(DomainError):
            direct_power_dist(0.3, gain(10.0))
        for bad_gain in (0.0, -1e-6):
            with pytest.raises(DomainError):
                direct_power_dist(1.0, bad_gain)
        assert direct_power_dist(2.0, 1e-3 * 37.0**-2.7).xi[0] == 2.0 / (1e-3 * 37.0**-2.7)


class TestCascadedPowerDist:
    def test_rayleigh_component_structure(self):
        mix = unit_cascade(1.0, 1.0)
        assert mix.xi.size == 20
        assert mix.beta == 1.0
        # m_iu = 1: mass_i = w_i, and the paper's eps_i = mass_i xi_i = w_i / t_i
        assert np.allclose(mix.mass, RULE.weights, rtol=1e-12)
        eps = [c["epsilon"] for c in mix.to_json_obj()]
        assert np.allclose(eps, RULE.weights / RULE.nodes, rtol=1e-12)
        assert np.allclose(mix.xi, 1.0 / RULE.nodes, rtol=1e-12)

    @pytest.mark.parametrize("m_bi,m_iu", [(1.0, 1.0), (2.0, 1.0), (2.0, 3.0)])
    def test_mean_against_product_density_oracle(self, m_bi, m_iu):
        # frozen behavior: the mixture mean equals the mean of the product of
        # two unit-mean Gamma powers (= 1) times amp_sq N^2 / W
        oracle = product_mean_bruteforce(m_bi, m_iu)
        mix = unit_cascade(m_bi, m_iu)
        assert rel_err(mix.moment(1), oracle) < 1e-6

    @pytest.mark.parametrize("m_bi,m_iu", [(1.0, 1.0), (2.0, 1.0), (2.0, 3.0)])
    def test_product_density_kernel_vanishes_where_z_over_u_overflows(self, m_bi, m_iu):
        # z/u = 1e310 is inf: ln(z/u) made (m_iu - 1) ln(z/u) - m_iu z/u a nan
        value = product_density_kernel(m_bi, m_iu, 1e10, np.array([1e-300]))
        assert np.array_equal(value, [0.0])

    def test_mean_scaling_with_physical_parameters(self):
        product = gain(100.0) * gain(30.0)
        amp_sq, n = 2.0e5 / 64.0, 64
        mix = cascaded_power_dist(1.0, 1.0, cascade_scale(product, amp_sq, n), RULE)
        expected = amp_sq * n**2 * product
        assert rel_err(mix.moment(1), expected) < 1e-9

    @pytest.mark.parametrize("m_bi", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("m_iu", [1.0, 2.0, 3.0])
    def test_normalization_defect(self, m_bi, m_iu):
        mix = unit_cascade(m_bi, m_iu)
        assert abs(total_mass(mix) - 1.0) <= 1e-12

    @pytest.mark.parametrize("m_bi", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("m_iu", [1.0, 2.0, 3.0])
    def test_defect_improves_with_order(self, m_bi, m_iu):
        # on the Gamma(m_iu) rule both defects sit at roundoff, hence the floor
        mix20 = unit_cascade(m_bi, m_iu)
        mix10 = unit_cascade(m_bi, m_iu, 10)
        d20 = abs(total_mass(mix20) - 1.0)
        d10 = abs(total_mass(mix10) - 1.0)
        assert d20 <= d10 + 1e-13

    @pytest.mark.parametrize("order", [4, 20, 64])
    def test_unit_mass_and_unit_mean_off_integer(self, order):
        # the plain-rule masses w_i t_i^(m-1)/Gamma(m) missed 1 by 24%, 11%
        # and 6% at m_iu = 1/2 (orders 4, 20, 64) and 1.3e-3 at 1.5 (order 20)
        for m_iu in (0.5, 0.7, 1.5, 2.5, 37.3, 500.0, 1000.0):
            mix = unit_cascade(1.5, m_iu, order)
            assert abs(total_mass(mix) - 1.0) <= 1e-11, m_iu
            assert abs(mix.moment(1) - 1.0) <= 1e-11, m_iu

    def test_cdf_at_bruteforce_median(self):
        # median of the product-of-two-exponentials law from direct convolution
        lo, hi = 1e-6, 50.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if product_cdf_bruteforce(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        median = 0.5 * (lo + hi)
        mix = unit_cascade(1.0, 1.0)
        assert abs(mixture_cdf(mix, median, 1.0) - 0.5) <= 0.01


class TestLaguerreMasses:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5, 7.0])
    def test_log_masses_are_the_rule_masses(self, m):
        # nodes and masses of scipy's generalized rule, not the library's
        nodes, masses = cascade_rule(20, m)
        mix = unit_cascade(1.0, m)
        assert np.allclose(mix.mass, masses, rtol=1e-11, atol=0)
        assert np.allclose(mix.xi, m / nodes, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0, 39.0])
    def test_mean_is_the_shape_while_the_rule_is_exact(self, m):
        # sum_i mass_i t_i = Gamma(m+1)/Gamma(m) = m; the Gamma(m) rule is
        # exact for it at every shape, here read off the mixture mean 1/v
        nodes, masses = cascade_rule(20, m)
        assert rel_err(math.fsum(masses * nodes), m) < 1e-11
        assert rel_err(unit_cascade(1.0, m).moment(1), 1.0) < 1e-12

    @pytest.mark.parametrize("m_bi,m_iu", [(1.0, 1.0), (2.0, 3.5)])
    def test_cascade_is_a_unit_mixture_times_one_scale(self, m_bi, m_iu):
        # masses free of v, rates proportional to v, mean 1/v
        unit = unit_cascade(m_bi, m_iu)
        rule = gauss_laguerre(20, m_iu - 1.0)
        for v in (1e-9, 3.0, 1e9):
            mix = cascaded_power_dist(m_bi, m_iu, v, rule)
            assert np.array_equal(mix.mass, unit.mass)
            assert np.allclose(mix.xi, v * unit.xi, rtol=1e-15)
            assert rel_err(mix.moment(1) * v, 1.0) < 1e-12

    def test_nonpositive_scale_rejected(self):
        for v in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                cascaded_power_dist(1.0, 1.0, v, RULE)


class TestMixtureAlgebra:
    def test_pdf_exponential(self):
        assert rel_err(single(1, 1, 1).pdf(0.5), math.exp(-0.5)) < 1e-12

    def test_pdf_gamma_2_3(self):
        assert rel_err(single(1, 2, 3).pdf(1.0), 9.0 * math.exp(-3.0)) < 1e-12

    def test_pdf_domain(self):
        with pytest.raises(DomainError):
            single(1, 1, 1).pdf(0.0)

    def test_cascade_pdf_integrates_to_mass(self):
        v = cascade_scale(gain(100.0) * gain(30.0), 2.0e5 / 64.0, 64)
        mix = cascaded_power_dist(1.0, 1.0, v, RULE)
        mass, _ = integrate_semi_infinite_with_error(mix.pdf, 1e-8, max_panels=16384)
        assert abs(mass - 1.0) <= 1e-4

    def test_moment_finite_through_four(self):
        mix = unit_cascade(1.0, 1.0)
        for ell in (1.0, 2.0, 3.0, 4.0):
            assert math.isfinite(mix.moment(ell))

    def test_moment_domain(self):
        with pytest.raises(DomainError):
            single(1, 1, 1).moment(0.0)


class TestSampling:
    def test_exponential_mean(self, rng):
        samples = single(1, 1, 1).sample(rng, 1_000_000)
        assert abs(samples.mean() - 1.0) < 0.003

    def test_gamma_4_2_mean(self, rng):
        samples = single(1, 4, 2).sample(rng, 200_000)
        assert abs(samples.mean() - 2.0) < 0.01

    def test_cascade_sampling_matches_moments(self, rng):
        mix = unit_cascade(1.0, 1.0)
        n = 1_000_000
        samples = mix.sample(rng, n)
        for ell in (1.0, 2.0):
            target = mix.moment(ell)
            x = samples**ell
            se = x.std(ddof=1) / math.sqrt(n)
            assert abs(x.mean() - target) < 4.0 * se, ell

    def test_cascade_sampling_ks_against_own_cdf(self, rng):
        mix = unit_cascade(1.0, 1.0)
        n = 100_000
        samples = np.sort(mix.sample(rng, n))
        cdf = mixture_cdf(mix, samples, 1.0)
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(np.abs(cdf - empirical_hi).max(), np.abs(cdf - empirical_lo).max())
        assert ks <= 0.005

    def test_zero_mass_never_drawn(self, rng):
        # a zero mass is drawn with probability 0, and its pdf term is 0
        mix = MixtureGamma(mass=np.array([0.0, 0.25, 0.75]), beta=2.0,
                           xi=np.array([1e-3, 1.0, 4.0]))
        expected = single(0.25, 2, 1).pdf(1.0) + single(0.75, 2, 4).pdf(1.0)
        assert rel_err(mix.pdf(1.0), expected) < 1e-15
        samples = mix.sample(rng, 100_000)
        assert np.all(np.isfinite(samples)) and np.all(samples > 0)
        # component 0 (mean 2000) never drawn: every draw sits far below it
        assert samples.max() < 100.0
        assert rel_err(samples.mean(), mix.moment(1)) < 0.01

    @pytest.mark.parametrize("m_iu", [113.0, 1000.0])
    def test_large_shape_cascade_samples_its_own_mean(self, rng, m_iu):
        # past m_iu = 2n - 1 the plain rule lost the mixture mean; the
        # Gamma(m_iu) rule keeps every mass positive and the mean exact
        mix = cascaded_power_dist(1.0, m_iu, 1.0, gauss_laguerre(64, m_iu - 1.0))
        assert np.all(mix.mass > 0)
        samples = mix.sample(rng, 100_000)
        assert np.all(np.isfinite(samples)) and np.all(samples > 0)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 1.0) < 4.0 * se

    def test_sample_size_and_component_counts(self, rng):
        # four narrow components (shape 400, sd = mean/20) at means 1, 2, 4, 8:
        # each draw's component is read off its value, so the counts can be
        # checked against the component masses without peeking inside
        beta, means = 400.0, np.array([1.0, 2.0, 4.0, 8.0])
        probs_in = np.array([0.1, 0.2, 0.3, 0.4])
        mix = MixtureGamma(mass=probs_in, beta=beta, xi=beta / means)
        for size in (1, 7, 1000):
            assert mix.sample(rng, size).shape == (size,)
        n = 100_000
        samples = mix.sample(rng, n)
        assert samples.shape == (n,)
        labels = np.searchsorted(np.sqrt(means[:-1] * means[1:]), samples)
        # documented order: draws come back grouped by component
        assert np.all(np.diff(labels) >= 0)
        counts = np.bincount(labels, minlength=4)
        expected = n * mix.mass
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16.27  # 0.999 quantile of chi-square with 3 degrees of freedom

    def test_unnormalized_distribution_rejected(self, rng):
        bad = single(5.0, 1, 1)  # defect far beyond 1e-3
        with pytest.raises(InvalidDistributionError):
            bad.sample(rng, 10)

    def test_serialization_round_trip(self):
        mix = unit_cascade(1.0, 2.0)
        obj = mix.to_json_obj()
        assert len(obj) == 20
        assert obj[0].keys() == {"epsilon", "beta", "xi"}
        # the paper's raw form: mass_i = eps_i Gamma(beta) xi_i^-beta
        (beta,) = {c["beta"] for c in obj}
        xi = np.array([c["xi"] for c in obj])
        mass = np.array([c["epsilon"] for c in obj]) * np.exp(gammaln(beta) - beta * np.log(xi))
        rebuilt = MixtureGamma(mass=mass, beta=beta, xi=xi)
        assert rebuilt.moment(1) == pytest.approx(mix.moment(1), rel=1e-12)
