import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from airsnet import analytic as an
from airsnet.channel import PowerParams
from airsnet.config import ConfigError, GeometryConfig, NetworkConfig
from airsnet.mathkit import (
    IntegrationError,
    exp_en_scaled,
    integrate_interval_with_error,
    integrate_semi_infinite_with_error,
)
from airsnet.mixgamma import InvalidDistributionError, direct_power_dist
from airsnet.simulate import model_snr_moment_mc, physical_snr_mc
from conftest import (
    mean_snr_mpmath,
    mean_snr_node_sum,
    noise_laplace,
    rate_active_oracle,
    rate_active_reference,
    rate_direct_mpmath,
    rayleigh_mean_snr,
    rel_err,
)

BASE_POWER = PowerParams(p_t=1.0, p_f=0.01, sigma2=1e-11, sigma_f2=1e-10)
# reflector->user distances of the kernel accuracy grids; 0.3 m sits below the floor
D_IU = np.array([0.3, 1.0, 12.0, 190.0])


def make_cfg(m_iu=1.0, n=64, p_f=0.01, m_bi=1.0, m_bu=1.0, **kw):
    return NetworkConfig(
        geometry=GeometryConfig(n_elements=n, **kw.pop("geom", {})),
        power=PowerParams(p_t=1.0, p_f=p_f, sigma2=1e-11, sigma_f2=1e-10),
        m_bu=m_bu,
        m_bi=m_bi,
        m_iu=float(m_iu),
        **kw,
    )


class TestPathGain:
    def test_scalar_gives_float_and_array_keeps_shape(self):
        cfg = make_cfg()
        for d in (30.0, 30, np.float64(30.0), np.array(30.0)):
            assert type(cfg.path_gain(d)) is float
        d = np.array([[0.5, 1.0, 30.0], [2.0, 100.0, 190.0]])
        gain = cfg.path_gain(d)
        assert isinstance(gain, np.ndarray) and gain.shape == d.shape
        assert np.array_equal(gain.ravel(), [cfg.path_gain(x) for x in d.ravel()])

    def test_clamps_at_the_floor_and_follows_the_law_above_it(self):
        cfg = make_cfg()
        eps = cfg.epsilon_ref
        assert cfg.path_gain(0.5) == eps
        assert cfg.path_gain(1.0) == eps
        for d in (1.0 + 1e-9, 1.5, 30.0, 190.0):
            assert rel_err(cfg.path_gain(d), eps * d**-3.0) < 1e-15
        far = replace(cfg, distance_floor=2.0, alpha=2.5)
        assert far.path_gain(1.5) == far.path_gain(2.0)
        assert rel_err(far.path_gain(2.0), eps * 2.0**-2.5) < 1e-15


def direct_mean_snr(d_bu, cfg):
    """Direct-link mean SNR P_t E[|h|^2] / sigma^2 from the direct-link Gamma law."""
    dist = direct_power_dist(cfg.m_bu, cfg.path_gain(d_bu))
    return cfg.power.p_t * dist.moment(1) / cfg.power.sigma2


class TestSnrMomentDirect:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.0])
    def test_first_moment_is_shape_free(self, m):
        cfg = make_cfg(m_bu=m)
        got = direct_mean_snr(100.0, cfg)
        expected = cfg.power.p_t * cfg.epsilon_ref * 100.0**-3 / cfg.power.sigma2
        assert rel_err(got, expected) < 1e-13

    def test_substitution(self):
        cfg = make_cfg()
        assert direct_mean_snr(100.0, cfg) == pytest.approx(100.0, rel=1e-12)


def kernel_noise_laplace(z, d_bi, d_iu, cfg):
    """The per-component noise-Laplace factor the moment and rate kernels use.

    The kernels integrate over y = S z and apply (1 + y/t_i)^-m_IU, i.e. the
    noise rate S/t_i per component at the original variable z.
    """
    noise_rates = an._s_scale(d_bi, d_iu, cfg) / cfg.rule().nodes
    return (1.0 + z * noise_rates) ** -cfg.m_iu


class TestNoiseLaplace:
    def test_unity_at_origin(self):
        cfg = make_cfg(m_iu=2.0)
        assert np.all(kernel_noise_laplace(0.0, 100.0, 30.0, cfg) == 1.0)

    def test_unity_without_amplifier_noise(self):
        cfg = replace(
            make_cfg(), power=PowerParams(p_t=1.0, p_f=0.01, sigma2=1e-11, sigma_f2=1e-30)
        )
        got = kernel_noise_laplace(5.0, 100.0, 30.0, cfg)
        assert np.all(np.abs(got - 1.0) < 1e-12)

    def test_mc_cross_check_accepts_component_rate_reading(self, rng):
        # the reading with xi_i inside the argument must match a direct MC
        # average of exp(-z * avg_gain * N * sigma_F^2 * xi_i * G / P_t); the
        # other reading must not, and the kernels must use the accepted one
        cfg = make_cfg(m_iu=2.0)
        mix = an.cascaded_mixture(100.0, 30.0, cfg)
        xi = float(mix.xi[7])
        eta = an.averaged_amp_gain(100.0, cfg)
        z = 0.6 / (eta * cfg.power.sigma_f2 * xi)
        g = rng.standard_gamma(2.0, 1_000_000) / 2.0
        mc = float(np.exp(-z * eta * cfg.power.sigma_f2 * xi * g / cfg.power.p_t).mean())
        with_rate = noise_laplace(z, xi, 100.0, cfg)
        without_rate = noise_laplace(z, xi, 100.0, cfg, component_rate=False)
        assert abs(with_rate - mc) / mc < 0.01
        assert abs(without_rate - mc) / mc > 0.1
        in_kernel = kernel_noise_laplace(z, 100.0, 30.0, cfg)
        expected = [noise_laplace(z, float(x), 100.0, cfg) for x in mix.xi]
        assert np.allclose(in_kernel, expected, rtol=1e-12, atol=0.0)

    def test_rayleigh_shape(self):
        cfg = make_cfg(m_iu=1.0)
        mix = an.cascaded_mixture(100.0, 30.0, cfg)
        eta = an.averaged_amp_gain(100.0, cfg)
        z = 1.0 / (eta * cfg.power.sigma_f2 * float(mix.xi[10]))
        expected = 1.0 / (1.0 + z * eta * cfg.power.sigma_f2 * mix.xi / cfg.power.p_t)
        got = kernel_noise_laplace(z, 100.0, 30.0, cfg)
        assert np.all(np.abs(got - expected) <= 1e-12 * expected)


class TestEquivalenceTriangle:
    @pytest.mark.parametrize("m_iu", [1, 2, 3, 4])
    def test_closed_matches_quadrature(self, m_iu):
        cfg = make_cfg(m_iu=m_iu)
        quad = an.mean_snr_integral(100.0, 30.0, cfg)
        closed = an.mean_snr_closed(100.0, 30.0, cfg)
        assert rel_err(closed, quad) < 1e-6

    def test_rayleigh_matches_both(self):
        # at m_IU = 1 the closed form is the Rayleigh expression, rebuilt here
        # from the series/Laguerre E1 oracle
        cfg = make_cfg(m_iu=1)
        closed = an.mean_snr_closed(100.0, 30.0, cfg)
        assert rel_err(closed, an.mean_snr_integral(100.0, 30.0, cfg)) < 1e-6
        assert rel_err(closed, rayleigh_mean_snr(100.0, 30.0, cfg)) < 1e-12

    @pytest.mark.parametrize("m_iu", [1, 2, 3])
    @pytest.mark.parametrize("d_pair", [(80.0, 10.0), (130.0, 60.0)])
    def test_moment_route_consistency(self, m_iu, d_pair):
        cfg = make_cfg(m_iu=m_iu, n=16, p_f=0.001)
        d_bi, d_iu = d_pair
        assert (
            rel_err(
                an.snr_moment_active(d_bi, d_iu, cfg),
                an.mean_snr_integral(d_bi, d_iu, cfg),
            )
            < 1e-7
        )
        # validate calls each route once on a whole d_IU list; every entry
        # keeps the bits of the scalar call
        d_list = (10.0, 30.0, 60.0)
        for route in (an.mean_snr_integral, an.mean_snr_closed, an.snr_moment_active):
            scalars = [route(d_bi, d, cfg) for d in d_list]
            assert all(type(x) is float for x in scalars), route.__name__
            assert np.array_equal(route(d_bi, d_list, cfg), scalars), route.__name__

    @pytest.mark.parametrize("p_f", [0.01, 10.0])
    @pytest.mark.parametrize("d_iu", [0.5, 30.0])
    @pytest.mark.parametrize("m_iu", [0.5, 1.0, 2.5])
    def test_both_psi_routes_match_the_per_node_sum(self, m_iu, d_iu, p_f):
        # both routes share the scale m_BI m_IU/S, so the node algebra it merges
        # is checked against the paper's sum with each node integral by mpmath
        cfg = make_cfg(m_iu=m_iu, p_f=p_f)
        oracle = mean_snr_node_sum(100.0, d_iu, cfg)
        assert rel_err(an.mean_snr_closed(100.0, d_iu, cfg), oracle) < 1e-10
        assert rel_err(an.mean_snr_integral(100.0, d_iu, cfg), oracle) < 1e-10

    def test_quadrature_at_the_short_hop_full_power_corner(self):
        # P_F = 10 W, d_IU <= 1 m, m_IU <= 1: this grid holds the 44 points at
        # which the per-node z-quadrature exhausted its 16,384-panel budget
        for m_iu, order, d_iu, d_bi, n in itertools.product(
                [0.5, 1.0], [4, 20, 64], [0.5, 1.0], [1.0, 100.0, 200.0], [16, 512]):
            cfg = make_cfg(m_iu=m_iu, n=n, p_f=10.0, glq_order=order)
            quad = an.mean_snr_integral(d_bi, d_iu, cfg)
            closed = an.mean_snr_closed(d_bi, d_iu, cfg)
            assert math.isfinite(quad) and rel_err(quad, closed) < 1e-11, (m_iu, order, d_iu,
                                                                          d_bi, n)

    def test_closed_form_bits_are_frozen(self):
        # best_irs ranks reflectors by these values, so their bits are pinned.
        # Each literal lies within 2 ulps of a 40-digit mpmath evaluation of
        # N P_t zeta_BI zeta_IU m_IU/sigma_F^2 e^kappa E_m(kappa), checked
        # here too; the old ones carried the plain rule's mean defect (8.9e-15
        # at the default point, -2.3e-4 at m_iu = 1/2 and order 64, -1.5e-6 at 2.5)
        points = [
            ({}, 100.0, 30.0, 0.0004206970099075843),
            ({"m_iu": 0.5, "p_f": 10.0, "glq_order": 64}, 100.0, 0.5, 241847.95566233262),
            ({"m_iu": 2.5, "m_bi": 0.5, "n": 16, "p_f": 1e-4}, 1.0, 190.0, 0.012711781634278494),
            ({"m_iu": 37.3, "n": 512, "glq_order": 20}, 200.0, 12.0, 0.000380573409971636),
        ]
        for kw, d_bi, d_iu, frozen in points:
            cfg = make_cfg(**kw)
            assert an.mean_snr_closed(d_bi, d_iu, cfg) == frozen, kw
            assert rel_err(frozen, mean_snr_mpmath(d_bi, d_iu, cfg)) < 5e-16, kw
        # the mean SNR no longer reads the rule, so any glq_order gives these bits
        assert an.mean_snr_closed(200.0, 12.0, make_cfg(m_iu=37.3, n=512, glq_order=4)) == (
            0.000380573409971636)
        cfg = make_cfg(m_iu=4.0, p_f=10.0)
        d_bi, d_iu = np.array([[1.0], [100.0], [200.0]]), np.array([0.5, 30.0, 190.0])
        grid = an.mean_snr_closed(d_bi, d_iu, cfg)
        assert np.array_equal(grid, [
            [853316.267347366, 31.60430619805059, 0.12440826175060007],
            [0.8533333333145602, 3.160493827090963e-05, 1.244107498636186e-07],
            [0.1066666666661867, 3.95061728393284e-06, 1.5551343733224474e-08],
        ])
        for (i, j), value in np.ndenumerate(grid):
            assert rel_err(value, mean_snr_mpmath(d_bi[i, 0], d_iu[j], cfg)) < 5e-16

    def test_pinned_value_m_iu_2(self):
        # frozen from the node-sum quadrature at 1e-8 before the closed form
        # was written: m_IU=2, N=64, d=(100,30), P_t=1, P_F=0.01,
        # sigma^2=1e-11, sigma_F^2=1e-10, eps=1e-3, alpha=3
        cfg = make_cfg(m_iu=2)
        assert rel_err(an.mean_snr_closed(100.0, 30.0, cfg), 4.740738961967e-05) < 1e-6

    def test_non_integer_shape_matches_quadrature(self):
        for m_iu in (0.5, 1.5, 2.5):
            cfg = make_cfg(m_iu=m_iu)
            quad = an.mean_snr_integral(100.0, 30.0, cfg)
            assert rel_err(an.mean_snr_closed(100.0, 30.0, cfg), quad) < 1e-7, m_iu

    @pytest.mark.parametrize("m_iu", [1.0, 2.5])
    def test_closed_form_broadcasts(self, m_iu):
        cfg = make_cfg(m_iu=m_iu)
        # one d_BI per reflector against a (user, reflector) d_IU grid
        d_bi = np.array([80.0, 100.0, 130.0])
        d_iu = np.array([[0.5, 30.0, 60.0], [10.0, 1.0, 190.0]])
        grid = an.mean_snr_closed(d_bi, d_iu, cfg)
        assert grid.shape == (2, 3)
        for idx in np.ndindex(grid.shape):
            point = an.mean_snr_closed(float(d_bi[idx[1]]), float(d_iu[idx]), cfg)
            assert type(point) is float
            assert rel_err(grid[idx], point) < 1e-14


class TestSnrMomentActive:
    def test_noise_free_limit(self):
        # eta sigma_F^2 / sigma^2 ~ 1e-3 here, so the Laplace factor is a
        # ~0.1% correction on its way to 1
        cfg = replace(
            make_cfg(),
            power=PowerParams(p_t=1.0, p_f=1e3, sigma2=1e-11, sigma_f2=1e-26),
        )
        mix = an.cascaded_mixture(100.0, 30.0, cfg)
        expected = cfg.power.p_t * mix.moment(1) / cfg.power.sigma2
        got = an.snr_moment_active(100.0, 30.0, cfg)
        assert rel_err(got, expected) < 5e-3

    def test_first_moment_against_model_mc(self):
        cfg = make_cfg(m_iu=2, n=64)
        [(mc, se)] = model_snr_moment_mc([(cfg, 100.0)], 30.0, n=500_000, seed=7)
        got = an.snr_moment_active(100.0, 30.0, cfg)
        assert abs(got - mc) < 3.0 * se

    @pytest.mark.parametrize("p_f", [0.01, 10.0])
    @pytest.mark.parametrize("m_iu", [0.5, 1.0, 2.5, 4.0])
    @pytest.mark.parametrize("m_bi", [0.5, 1.0, 3.0])
    def test_first_moment_matches_closed_form(self, m_bi, m_iu, p_f):
        # in v = kappa y the e^(-v/t_i) decay of F_b no longer depends on
        # kappa, so p_f = 10 W (kappa ~ 1e-11) is as easy as p_f = 0.01 W
        for order in (20, 40):
            cfg = make_cfg(m_bi=m_bi, m_iu=m_iu, p_f=p_f, glq_order=order)
            got = an.snr_moment_active(100.0, D_IU, cfg)
            closed = an.mean_snr_closed(100.0, D_IU, cfg)
            assert got.shape == D_IU.shape
            assert np.all(np.abs(got / closed - 1.0) < 1e-12), (order, got / closed - 1.0)

    def test_moment_times_s_power_is_constant_in_d_iu(self):
        # S = sigma_F^2 m_BI W/(N P_t) with W = (d_BI d_IU)^alpha/eps^2 at
        # floored distances; the rest of the mean depends on d_BI alone
        cfg = make_cfg(m_iu=2.5, m_bi=0.5)
        means = an.snr_moment_active(100.0, D_IU, cfg)
        w = (100.0 * np.maximum(D_IU, 1.0)) ** 3 / cfg.epsilon_ref**2
        s = cfg.power.sigma_f2 * cfg.m_bi * w / (64 * cfg.power.p_t)
        scaled = means * s
        assert np.all(np.abs(scaled / scaled[0] - 1.0) < 1e-13)
        for d, mean in zip(D_IU, means):
            assert rel_err(an.snr_moment_active(100.0, float(d), cfg), mean) < 1e-14


class TestMeanSnrRayleigh:
    """mean_snr_closed at the default m_IU = 1."""

    def test_unit_scaled_exponential_integral(self):
        cfg = make_cfg()
        zeta_bi = cfg.epsilon_ref * 100.0**-3
        psi = cfg.power.sigma2 * (cfg.power.p_t * zeta_bi + cfg.power.sigma_f2) / cfg.power.sigma_f2
        cfg_pf = replace(
            cfg, power=PowerParams(p_t=1.0, p_f=psi, sigma2=1e-11, sigma_f2=1e-10)
        )
        w = (100.0**3 * 30.0**3) / cfg.epsilon_ref**2
        expected = 64 * 1.0 / (w * 1e-10) * 0.5963473623231941
        assert rel_err(an.mean_snr_closed(100.0, 30.0, cfg_pf), expected) < 1e-9

    def test_exact_doubling_in_elements(self):
        v1 = an.mean_snr_closed(100.0, 30.0, make_cfg(n=64))
        v2 = an.mean_snr_closed(100.0, 30.0, make_cfg(n=128))
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_deep_budget_asymptote(self):
        cfg = make_cfg()
        zeta_bi = cfg.epsilon_ref * 100.0**-3
        psi = cfg.power.sigma2 * (cfg.power.p_t * zeta_bi + cfg.power.sigma_f2) / cfg.power.sigma_f2
        cfg_pf = replace(
            cfg, power=PowerParams(p_t=1.0, p_f=psi / 1000.0, sigma2=1e-11, sigma_f2=1e-10)
        )
        w = (100.0**3 * 30.0**3) / cfg.epsilon_ref**2
        prefactor = 64 * 1.0 / (w * 1e-10)
        got = an.mean_snr_closed(100.0, 30.0, cfg_pf)
        assert abs(got / prefactor - (1e-3 - 1e-6)) < 1e-8

    def test_monotone_in_budget_and_elements(self):
        values_pf = [
            an.mean_snr_closed(100.0, 30.0, make_cfg(p_f=p))
            for p in np.logspace(-4, 1, 10)
        ]
        assert all(a < b for a, b in zip(values_pf, values_pf[1:]))
        values_n = [an.mean_snr_closed(100.0, 30.0, make_cfg(n=n)) for n in (16, 32, 64, 128)]
        assert all(a < b for a, b in zip(values_n, values_n[1:]))


class TestMeanSnrIntegralShape:
    def test_all_nodes_in_one_quadrature_call(self, monkeypatch):
        calls = []

        def counting(f, *args, **kwargs):
            calls.append(f)
            return integrate_semi_infinite_with_error(f, *args, **kwargs)

        monkeypatch.setattr(an, "integrate_semi_infinite_with_error", counting)
        cfg = make_cfg(m_iu=2)
        quad = an.mean_snr_integral(100.0, 30.0, cfg)
        assert len(calls) == 1
        assert rel_err(quad, an.mean_snr_closed(100.0, 30.0, cfg)) < 1e-7

    def test_monotone_in_amplification_power(self):
        values = [
            an.mean_snr_integral(100.0, 30.0, make_cfg(m_iu=2, p_f=p))
            for p in np.logspace(-4, 1, 10)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestMeanSnrClosedScaling:
    def test_linear_scaling_in_elements_at_fixed_gain(self):
        # doubling N with P_F scaled along keeps the averaged per-element
        # gain fixed; the mean then doubles to within 10%
        for n in (32, 64, 128):
            v1 = an.mean_snr_closed(100.0, 30.0, make_cfg(m_iu=2, n=n, p_f=0.01 * n / 64))
            v2 = an.mean_snr_closed(100.0, 30.0, make_cfg(m_iu=2, n=2 * n, p_f=0.01 * 2 * n / 64))
            assert 1.9 <= v2 / v1 <= 2.1


class TestMeanSnrPassive:
    def test_exact_quadrupling(self):
        v1 = an.mean_snr_passive(100.0, 30.0, make_cfg(n=16))
        v2 = an.mean_snr_passive(100.0, 30.0, make_cfg(n=32))
        assert v2 == 4.0 * v1

    @pytest.mark.parametrize("m_iu", [1.0, 2.0])
    def test_integer_shape_collapse(self, m_iu):
        # sum w t^m = Gamma(m+1) exactly, so the value is N^2 P_t/(sigma^2 W)
        cfg = make_cfg(m_iu=m_iu, n=64)
        w = (100.0**3 * 30.0**3) / cfg.epsilon_ref**2
        expected = 64**2 * cfg.power.p_t / (cfg.power.sigma2 * w)
        assert rel_err(an.mean_snr_passive(100.0, 30.0, cfg), expected) < 1e-12

    def test_monotone_in_elements(self):
        values = [an.mean_snr_passive(100.0, 30.0, make_cfg(n=n)) for n in (8, 16, 32, 64)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestRates:
    def test_direct_rayleigh_identity(self):
        cfg = make_cfg()
        c = 100.0**3 * cfg.power.sigma2 / (cfg.epsilon_ref * cfg.power.p_t)
        expected = math.log2(math.e) * exp_en_scaled(1.0, c)
        assert rel_err(an.rate_direct(100.0, cfg), expected) < 1e-8

    def test_direct_vanishes_at_zero_snr(self):
        cfg = replace(
            make_cfg(), power=PowerParams(p_t=1e-12, p_f=0.01, sigma2=1.0, sigma_f2=1e-10)
        )
        assert an.rate_direct(150.0, cfg) < 1e-6

    def test_direct_jensen(self):
        for m_bu in (0.5, 1.0, 3.0):
            cfg = make_cfg(m_bu=m_bu)
            rate = an.rate_direct(90.0, cfg)
            assert rate <= math.log2(1.0 + direct_mean_snr(90.0, cfg))

    def test_active_noise_free_limit_drops_laplace_factor(self):
        cfg = replace(
            make_cfg(m_iu=2),
            power=PowerParams(p_t=1.0, p_f=1e3, sigma2=1e-11, sigma_f2=1e-26),
        )
        got = an.rate_active(100.0, 30.0, cfg)
        mix = an.cascaded_mixture(100.0, 30.0, cfg)
        decay = mix.xi * cfg.power.sigma2 / cfg.power.p_t

        def no_laplace(z):
            q = -np.expm1(-mix.beta * np.log1p(z)) / z
            return q * (np.exp(-z[:, None] * decay[None, :]) @ mix.mass)

        expected = math.log2(math.e) * integrate_semi_infinite_with_error(
            no_laplace, 1e-8, max_panels=16384
        )[0]
        assert rel_err(got, expected) < 1e-3

    D_BU = np.array([0.5, 1.0, 20.0, 90.0, 200.0])

    def test_direct_batch_rayleigh_identity(self):
        cfg = make_cfg()
        got = an.rate_direct(self.D_BU, cfg)
        c = np.maximum(self.D_BU, 1.0) ** 3 * cfg.power.sigma2 / (cfg.epsilon_ref * cfg.power.p_t)
        expected = math.log2(math.e) * exp_en_scaled(1.0, c)
        assert got.shape == self.D_BU.shape
        assert np.all(np.abs(got / expected - 1.0) < 1e-13)

    @pytest.mark.parametrize("m_bu", [0.5, 2.0])
    def test_direct_batch_matches_mpmath(self, m_bu):
        # the e^-y decay sits at y = 1 at every distance, down to the 1 m floor
        cfg = make_cfg(m_bu=m_bu)
        got = an.rate_direct(self.D_BU, cfg)
        for d, value in zip(self.D_BU, got):
            assert rel_err(value, rate_direct_mpmath(float(d), cfg)) < 1e-12, d

    @pytest.mark.parametrize("p_f", [0.01, 10.0])
    @pytest.mark.parametrize("glq_order", [20, 40])
    @pytest.mark.parametrize("m_iu", [0.5, 1.0, 2.5, 4.0])
    @pytest.mark.parametrize("m_bi", [0.5, 1.0, 3.0])
    def test_active_batch_matches_per_pair_oracle(self, m_bi, m_iu, glq_order, p_f):
        cfg = make_cfg(m_bi=m_bi, m_iu=m_iu, p_f=p_f, glq_order=glq_order)
        got = an.rate_active(100.0, D_IU, cfg)
        assert got.shape == D_IU.shape
        for d, value in zip(D_IU, got):
            assert rel_err(value, rate_active_oracle(100.0, float(d), cfg)) < 1e-8, d

    @pytest.mark.parametrize("m_iu", [1, 2])
    def test_active_jensen(self, m_iu):
        cfg = make_cfg(m_iu=m_iu)
        rate = an.rate_active(100.0, 30.0, cfg)
        mean = an.snr_moment_active(100.0, 30.0, cfg)
        assert rate <= math.log2(1.0 + mean)

    def test_active_against_model_mc(self):
        cfg = make_cfg(m_iu=1)
        rng = np.random.default_rng(99)
        mix = an.cascaded_mixture(100.0, 30.0, cfg)
        eta = an.averaged_amp_gain(100.0, cfg)
        n = 500_000
        x1 = mix.sample(rng, n)
        g = rng.standard_gamma(1.0, n)
        rates = np.log2(
            1.0 + cfg.power.p_t * x1 / (eta * cfg.power.sigma_f2 * g + cfg.power.sigma2)
        )
        se = rates.std(ddof=1) / math.sqrt(n)
        assert abs(an.rate_active(100.0, 30.0, cfg) - rates.mean()) < 3.0 * se


class TestAverageMetric:
    def test_region_weight_calibration(self, monkeypatch):
        # with constant-1 conditional rates the three region weights must
        # sum to the whole cell, so the throughput is one over its area
        monkeypatch.setattr(an, "rate_direct", lambda d, cfg: 1.0)
        monkeypatch.setattr(an, "rate_active", lambda b, r, cfg: 1.0)
        cfg = make_cfg()
        assert abs(an.average_metric(cfg)[0] * cfg.geometry.s_total - 1.0) < 1e-9

    @pytest.mark.parametrize("kw, expected", [
        ({}, 0.02649146253255729),
        ({"m_iu": 2.5, "m_bi": 0.5}, 0.02023030651219063),
    ])
    def test_ring_dominated_rate_pinned(self, kw, expected):
        # with l_in = 5 m the reflector-served regions 2 and 3 cover all but
        # 0.06% of the cell, so the average reads the amplified-link kernel;
        # positional rates frozen from the per-pair z-domain rate kernel
        # (rate_active_oracle, masses from scipy's rule of the Gamma(m_iu) weight)
        cfg = make_cfg(geom={"l_in": 5.0, "l_out": 150.0}, **kw)
        got = an.average_metric(cfg)[0] * cfg.geometry.s_total
        assert rel_err(got, expected) < 1e-9

    @pytest.mark.parametrize("geom, expected", [
        ({"l_in": 0.5}, 0.01731103522090934),
        ({"l_out": 199.5}, 2.0043951313979593),
        ({"l_in": 0.5, "l_out": 199.5}, 0.006642800773719763),
    ])
    def test_kinks_outside_their_region_pinned(self, geom, expected):
        # l_in = 0.5 m puts the disc and the ring's inner edge below the 1 m
        # floor; l_out = 199.5 m puts region 3's floor kink past the cell edge.
        # Frozen from the sub-floor closed forms that breakpoints replaced,
        # rerun at REGION_TOL = 1e-10: at its own REGION_TOL = 1e-6 that route
        # missed the l_in = 0.5 m values by 4.3e-8, as its d_BI integral
        # straddled the floor kink. Breakpoints agree with the rerun to 2e-10.
        cfg = make_cfg(geom=geom)
        got = an.average_metric(cfg)[0] * cfg.geometry.s_total
        assert rel_err(got, expected) < 1e-9

    # Converged rows at the default network: average_metric with the 1 m floor
    # as its only breakpoint, rerun with the module constants monkeypatched to
    # REGION_TOL = 1e-10 and QUAD_TOL = 1e-11. At its own 1e-6 and 1e-8 that
    # route was 3.5e-10 off at (120, 150) m.
    @pytest.mark.parametrize("kw, converged", [
        ({"l_in": 60.0, "l_out": 110.0}, 7.401210406398609e-06),
        ({"l_in": 90.0, "l_out": 130.0}, 1.3704549741509672e-05),
        ({"l_in": 120.0, "l_out": 150.0}, 2.0796348423910135e-05),
        ({"l_in": 90.0, "l_out": 130.0, "m_iu": 0.5}, 1.3886616529707199e-05),
        ({"l_in": 90.0, "l_out": 130.0, "alpha": 4.0}, 5.266806024393002e-06),
    ])
    def test_ring_rows_match_the_converged_rerun(self, kw, converged):
        value, err = an.average_metric(NetworkConfig().at(**kw))
        assert rel_err(value, converged) < 1e-12
        assert err >= abs(value - converged)

    def test_default_ring_rate_calls_are_bounded(self, monkeypatch):
        # log-graded breakpoints let each inner d_IU integral converge in its
        # first pass: 16 rate_active calls, where the floor breakpoint alone
        # took 111 (7 passes per inner integral)
        calls = []
        rate_active = an.rate_active
        monkeypatch.setattr(an, "rate_active", lambda *args: (
            calls.append(args) or rate_active(*args)))
        an.average_metric(NetworkConfig().at(l_in=90.0, l_out=130.0))
        assert len(calls) <= 20

    def test_default_ring_quadrature_points_are_bounded(self, monkeypatch):
        # panels near-uniform in ln y: the ring's 17 semi-infinite y-integrals
        # evaluate 7,650 integrand points, where the u = y/(1+y) map took
        # 18,073 (about 4 adaptive passes each)
        points = []
        quad = an.integrate_semi_infinite_with_error
        monkeypatch.setattr(an, "integrate_semi_infinite_with_error", lambda f, *a, **k: quad(
            lambda z: points.append(z.size) or f(z), *a, **k))
        an.average_metric(NetworkConfig().at(l_in=90.0, l_out=130.0))
        assert points and sum(points) <= 8_000

    def test_default_ring_y_integrals_converge_in_their_first_pass(self, monkeypatch):
        # every semi-infinite call of the ring evaluates its integrand once:
        # the initial mesh already meets QUAD_TOL
        calls = []
        quad = an.integrate_semi_infinite_with_error

        def counting(f, *args, **kwargs):
            calls.append(0)

            def g(z):
                calls[-1] += 1
                return f(z)

            return quad(g, *args, **kwargs)

        monkeypatch.setattr(an, "integrate_semi_infinite_with_error", counting)
        an.average_metric(NetworkConfig().at(l_in=90.0, l_out=130.0))
        assert len(calls) == 17 and set(calls) == {1}

    def test_floor_beyond_the_cell_gives_area_weighted_rates(self):
        # with every distance below a 250 m floor each rate is a constant, so
        # the average is the area-weighted mean of two of them
        cfg = make_cfg(distance_floor=250.0)
        geo = cfg.geometry
        disc = math.pi * geo.l_in**2
        expected = (an.rate_direct(250.0, cfg) * disc
                    + an.rate_active(250.0, 250.0, cfg) * (geo.s_total - disc))
        assert rel_err(an.average_metric(cfg)[0] * geo.s_total**2, expected) < 1e-12

    def test_collapsed_ring_reduces_to_direct_average(self):
        cfg = make_cfg(
            geom={"l": 200.0, "l_in": 199.9999, "l_out": 199.99995}
        )
        got, _ = an.average_metric(cfg)
        s_t = cfg.geometry.s_total
        direct_only = an.rate_direct(cfg.distance_floor, cfg) * math.pi / s_t
        direct_only += (
            2.0
            * math.pi
            / s_t
            * integrate_interval_with_error(
                lambda d: an.rate_direct(d, cfg) * d,
                cfg.distance_floor,
                200.0,
                1e-9,
            )[0]
        )
        assert rel_err(got * s_t, direct_only) < 1e-4

    def test_dense_deployment_approaches_floored_distance(self):
        # with very many reflectors the nearest-distance density piles onto
        # the 1 m floor, so region 2 approaches the floored-d_IU evaluation
        cfg = make_cfg(geom={"m_irs": 60000}, m_iu=1)
        got, _ = an.average_metric(cfg)
        geo = cfg.geometry
        s_t = geo.s_total

        r2 = (
            2.0
            * math.pi
            / s_t
            * integrate_interval_with_error(
                lambda b: np.array(
                    [an.rate_active(x, cfg.distance_floor, cfg) for x in np.atleast_1d(b)]
                )
                * b,
                geo.l_in,
                geo.l_out,
                1e-8,
            )[0]
        )
        r1 = an.rate_direct(cfg.distance_floor, cfg) * math.pi / s_t
        r1 += (
            2.0
            * math.pi
            / s_t
            * integrate_interval_with_error(
                lambda d: an.rate_direct(d, cfg) * d,
                cfg.distance_floor,
                geo.l_in,
                1e-9,
            )[0]
        )
        r3 = (
            2.0
            * math.pi
            / s_t
            * integrate_interval_with_error(
                lambda b: an.rate_active(geo.l_out, np.maximum(b - geo.l_out, 1.0), cfg) * b,
                geo.l_out,
                geo.l,
                1e-8,
            )[0]
        )
        assert rel_err(got * s_t, r1 + r2 + r3) < 0.01

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ConfigError):
            GeometryConfig(l=200.0, l_in=150.0, l_out=100.0)

    def test_pdf_mass_diagnostic(self):
        cfg = make_cfg()
        mass = an.region2_nearest_pdf_mass(cfg)
        assert 0.0 < mass <= 1.0
        lam = cfg.geometry.lambda_irs
        assert rel_err(mass, 1.0 - math.exp(-lam * math.pi * 200.0**2)) < 1e-12


def budget_stub(f, *args, **kwargs):
    """An integrator that runs one sweep, then fails with the last column worst."""
    values = np.asarray(f(np.array([0.5, 1.0, 2.0])))
    achieved = np.arange(1.0, values.shape[1] + 1.0) if values.ndim == 2 else 1.0
    raise IntegrationError("integration budget exceeded (16385 panels)",
                           values.sum(axis=0), achieved)


class TestLaguerreOrderBound:
    """The plain rule's order bound m_iu <= 2n - 1 is gone: the Gamma(m_iu) rule
    keeps the mixture mean at every shape, up to the m_iu ceiling of 1000."""

    @pytest.mark.parametrize("order", [4, 20, 64])
    def test_mixture_keeps_its_mean_up_to_the_bound(self, order):
        # sum_i mass_i t_i = m, read off the mixture mean 1/v, from m_iu = 1/2
        # through the old bound 2n - 1 to the ceiling
        for m in (0.5, 2 * order - 1, 2 * order + 1, 1000):
            cfg = make_cfg(m_iu=m, glq_order=order)
            v = an.cascade_scale(100.0, 30.0, cfg)
            assert rel_err(an.cascaded_mixture(100.0, 30.0, cfg).moment(1) * v, 1.0) < 1e-11
            assert math.isfinite(an.mean_snr_closed(100.0, 30.0, cfg))

    def test_past_the_old_bound_every_route_agrees(self):
        # at order 20 the plain-rule m_iu = 100 mixture kept 3.5e-4 of its mean,
        # so every route refused it; the routes now agree at order 20 and the
        # rate matches order 64
        cfg = make_cfg(m_iu=100)
        closed = an.mean_snr_closed(100.0, 30.0, cfg)
        assert rel_err(closed, mean_snr_mpmath(100.0, 30.0, cfg)) < 1e-14
        assert rel_err(an.mean_snr_integral(100.0, 30.0, cfg), closed) < 1e-10
        assert rel_err(an.snr_moment_active(100.0, 30.0, cfg), closed) < 1e-8
        assert rel_err(an.mean_snr_passive(100.0, 30.0, cfg),
                       64**2 * an.mean_snr_passive(100.0, 30.0, make_cfg(m_iu=1, n=1))) < 1e-14
        rate = an.rate_active(100.0, 30.0, cfg)
        assert rel_err(rate, an.rate_active(100.0, 30.0, replace(cfg, glq_order=64))) < 1e-10

    def test_shape_above_the_ceiling_rejected(self):
        with pytest.raises(ConfigError, match=r"m_iu must be <= 1000, got 1000\.5"):
            make_cfg(m_iu=1000.5)
        assert make_cfg(m_iu=1000).rule().order == 20


class TestRateTruncation:
    """rate_active (the order-n mixture) against the exact-cascade rate.

    Bands fixed from the errors the order-free reference measured at
    d_BI = 100 m, d_IU = 30 m before this test existed: at order 20, 1.0e-2
    at m_IU = 1/2, 6.1e-5 at 1, 8.7e-8 at 1.5 and 1.0e-13 at 2.5; m_IU = 1
    falls as n^-2 (6.0e-6 predicted at order 64). Near m_IU = 1/2 the
    error falls slowly with n, so order 64 keeps the order-20 band there.
    """

    BANDS = {0.5: (1.2e-2, 1.2e-2), 1.0: (1e-4, 1e-5), 1.5: (2e-7, 2e-7), 2.5: (1e-11, 1e-11)}

    @pytest.mark.parametrize("order", [20, 64])
    @pytest.mark.parametrize("m_iu", [0.5, 1.0, 1.5, 2.5])
    def test_rate_active_within_its_truncation_band(self, m_iu, order):
        cfg = make_cfg(m_iu=m_iu, glq_order=order)
        reference = rate_active_reference(100.0, 30.0, cfg)
        band = self.BANDS[m_iu][order == 64]
        assert rel_err(an.rate_active(100.0, 30.0, cfg), reference) < band


class TestErrorsNameThePoint:
    POINT = ("m_bi=0.5", "m_iu=2.5", "glq_order=24", "p_f=0.02 W")

    @staticmethod
    def cfg():
        return make_cfg(m_bi=0.5, m_iu=2.5, p_f=0.02, glq_order=24)

    def message(self, call):
        with pytest.raises(IntegrationError) as exc:
            call()
        msg = str(exc.value)
        assert msg.endswith("integration budget exceeded (16385 panels)")
        return msg

    def test_kernels(self, monkeypatch):
        monkeypatch.setattr(an, "integrate_semi_infinite_with_error", budget_stub)
        cfg = self.cfg()
        msg = self.message(lambda: an.rate_active(100.0, np.array([5.0, 30.0, 60.0]), cfg))
        for part in (*self.POINT, "rate_active", "d_bi=100 m", "d_iu=60 m"):
            assert part in msg
        msg = self.message(lambda: an.snr_moment_active(90.0, 30.0, cfg))
        for part in (*self.POINT, "snr_moment_active", "d_bi=90 m", "d_iu=30 m"):
            assert part in msg
        msg = self.message(lambda: an.rate_direct(np.array([5.0, 70.0]), cfg))
        assert "rate_direct at m_bu=1, d_bu=70 m" in msg

    @pytest.mark.parametrize("epsilon_ref", [1e200, 1e-300])
    def test_moment_route_out_of_float_range(self, epsilon_ref):
        # the noise scale S underflows to 0 (1e200) or the path-gain product
        # to 0 (1e-300); both used to end in a ZeroDivisionError
        cfg = replace(self.cfg(), epsilon_ref=epsilon_ref)
        with pytest.raises(InvalidDistributionError) as exc:
            an.snr_moment_active(90.0, np.array([30.0, 60.0]), cfg)
        assert str(exc.value) == ("snr_moment_active at m_bi=0.5, m_iu=2.5, glq_order=24, "
                                  "p_f=0.02 W, d_bi=90 m, d_iu=30 m: the mean SNR is not a "
                                  "positive finite value")

    def test_average_metric_regions(self, monkeypatch):
        cfg = self.cfg()
        geometry = ("l_in=100 m", "l_out=130 m")
        with monkeypatch.context() as patch:
            patch.setattr(an, "integrate_semi_infinite_with_error", budget_stub)
            msg = self.message(lambda: an.average_metric(cfg))
        for part in (*self.POINT, *geometry, "region 1", "rate_direct"):
            assert part in msg

        def failing_rate(d_bi, d_iu, cfg, only_at=None):
            if only_at is None or d_bi == only_at:
                raise IntegrationError("integration budget exceeded (16385 panels)",
                                       math.nan, math.inf)
            return np.zeros(np.shape(d_iu)) if np.ndim(d_iu) else 0.0

        with monkeypatch.context() as patch:
            patch.setattr(an, "rate_active", failing_rate)
            msg = self.message(lambda: an.average_metric(cfg))
        for part in (*self.POINT, *geometry, "average_metric region 2"):
            assert part in msg
        with monkeypatch.context() as patch:
            patch.setattr(an, "rate_active",
                          lambda b, r, c: failing_rate(b, r, c, only_at=130.0))
            msg = self.message(lambda: an.average_metric(cfg))
        assert "region 3" in msg
        with monkeypatch.context() as patch:
            patch.setattr(an, "integrate_interval_with_error", budget_stub)
            msg = self.message(lambda: an.average_metric(cfg))
        for part in (*self.POINT, *geometry, "average_metric region 1"):
            assert part in msg


class TestPhysicalModelGapRecord:
    def test_gap_magnitude_recorded(self):
        # the analytic chain is path-loss-free on the reflector->user hop, so
        # the physical mean sits orders of magnitude above it; pin the
        # measured ratio's ballpark so regressions in either side surface
        cfg = make_cfg(m_iu=1, n=64)
        phys, se = physical_snr_mc([cfg], 100.0, 30.0, n=200_000, seed=5)[0]["active"]
        model = an.mean_snr_closed(100.0, 30.0, cfg)
        ratio = phys / model
        print(f"physical/model mean-SNR ratio at N=64: {ratio:.3e} "
              f"(physical {phys:.4g} +- {se:.2g}, analytic {model:.4g})")
        assert 1e5 < ratio < 5e6
