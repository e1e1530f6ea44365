import math

import numpy as np
import pytest

from airsnet.channel import (
    PowerParams,
    cascade_amplitude,
    sample_nakagami_power,
    snr_active_batch,
    snr_direct_batch,
    snr_passive_batch,
)
from airsnet.mathkit import DomainError

POWER = PowerParams(p_t=1.0, p_f=0.01, sigma2=1e-11, sigma_f2=1e-10)


def active(p_bi, p_iu, bi, iu, power=POWER):
    """snr_active_batch on (B, N) channel-power blocks, fed their cascade amplitude."""
    return snr_active_batch(p_bi, p_iu, cascade_amplitude(p_bi, p_iu), bi, iu, power)


def passive(p_bi, p_iu, bi, iu, power=POWER):
    """snr_passive_batch on the cascade amplitude of (B, N) channel-power blocks."""
    return snr_passive_batch(cascade_amplitude(p_bi, p_iu), bi, iu, power)


def snr_row(kernel, p_bi, p_iu, bi, iu, power=POWER):
    """One draw's SNR from `active` or `passive` given a single (1, N) channel-power
    row and the two hops' path gains."""
    return float(kernel(np.atleast_2d(p_bi), np.atleast_2d(p_iu), bi, iu, power)[0])


def gain(d, eps=1e-3):
    """Path gain eps * d^-3 of a hop of length d."""
    return eps * d**-3.0


class TestNakagamiSampler:
    def test_rayleigh_power_mean(self, rng):
        power = sample_nakagami_power(1.0, rng, 1_000_000)
        assert abs(power.mean() - 1.0) < 0.004

    def test_shape_four_power_variance(self, rng):
        power = sample_nakagami_power(4.0, rng, 1_000_000)
        assert abs(power.var() - 0.25) < 0.005

    def test_half_shape_amplitude_mean(self, rng):
        # the amplitude r = sqrt(power) has E[r] = Gamma(m + 1/2) / (Gamma(m) sqrt(m))
        r = np.sqrt(sample_nakagami_power(0.5, rng, 1_000_000))
        expected = math.gamma(1.0) / (math.gamma(0.5) * math.sqrt(0.5))
        assert abs(r.mean() - expected) < 0.003
        assert expected == pytest.approx(0.7978845608, rel=1e-9)

    def test_domain(self, rng):
        with pytest.raises(DomainError):
            sample_nakagami_power(0.4, rng)

    def test_rayleigh_draws_are_numpys_unit_gamma(self):
        # m = 1 is drawn by standard_exponential, which numpy's
        # standard_gamma(1.0) returns draw for draw; a numpy release that
        # breaks the identity changes every Rayleigh result, so it fails here
        got = sample_nakagami_power(1.0, np.random.Generator(np.random.SFC64(7)), (300, 7))
        want = np.random.Generator(np.random.SFC64(7)).standard_gamma(1.0, (300, 7))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_out_fills_the_draws_of_size(self, m):
        want = sample_nakagami_power(m, np.random.Generator(np.random.SFC64(8)), (40, 5))
        buf = np.full((50, 5), -1.0)
        got = sample_nakagami_power(m, np.random.Generator(np.random.SFC64(8)), out=buf[:40])
        assert np.array_equal(got, want) and np.array_equal(buf[:40], want)
        assert np.all(buf[40:] == -1.0)


def budget_gain_sq(amp_bi, zeta_bi, power=POWER):
    """Oracle: the common power gain A^2 exhausting the amplification budget.

    A^2 = P_F / (P_t zeta_BI ||g_BI||^2 + N sigma_F^2) for one draw.
    """
    amp_bi = np.asarray(amp_bi, dtype=float)
    return power.p_f / (power.p_t * zeta_bi * float(amp_bi @ amp_bi)
                        + amp_bi.size * power.sigma_f2)


def snr_at_gain(a_sq, amp_bi, amp_iu, zeta_bi, zeta_iu, power=POWER):
    """Oracle: the phase-aligned SNR of one draw amplified by power gain a_sq."""
    cascade = float(np.dot(amp_bi, amp_iu))
    signal = power.p_t * a_sq * zeta_bi * zeta_iu * cascade**2
    return signal / (a_sq * zeta_iu * float(np.dot(amp_iu, amp_iu)) * power.sigma_f2
                     + power.sigma2)


def kernel_gain_sq(amp_bi, amp_iu, zeta_bi, zeta_iu, power=POWER):
    """The power gain snr_active_batch applied, solved back from its SNR."""
    snr = snr_row(active, np.asarray(amp_bi) ** 2, np.asarray(amp_iu) ** 2, zeta_bi, zeta_iu,
                  power)
    signal = power.p_t * zeta_bi * zeta_iu * float(np.dot(amp_bi, amp_iu)) ** 2
    noise = zeta_iu * float(np.dot(amp_iu, amp_iu)) * power.sigma_f2
    return snr * power.sigma2 / (signal - snr * noise)


class TestAmplificationFactor:
    """The budget-exhausting gain inside snr_active_batch."""

    def test_vanishing_transmit_power(self):
        power = PowerParams(p_t=1e-30, p_f=0.01, sigma2=1e-11, sigma_f2=1e-10)
        n = 16
        ones = np.ones(n)
        a_sq = budget_gain_sq(ones, 1e-9, power)
        assert a_sq == pytest.approx(power.p_f / (n * power.sigma_f2), rel=1e-9)
        got = active(ones[None, :], ones[None, :], 1e-9, 1e-8, power)[0]
        assert got == pytest.approx(snr_at_gain(a_sq, ones, ones, 1e-9, 1e-8, power),
                                    rel=1e-12, abs=0.0)

    def test_unit_amplitudes(self):
        n = 8
        ones = np.ones(n)
        a_sq = budget_gain_sq(ones, 1.0)
        expected = POWER.p_f / (n * (POWER.p_t + POWER.sigma_f2))
        assert a_sq == pytest.approx(expected, rel=1e-12)
        got = active(ones[None, :], ones[None, :], 1.0, 1e-6, POWER)[0]
        assert got == pytest.approx(snr_at_gain(a_sq, ones, ones, 1.0, 1e-6), rel=1e-12)

    def test_average_denominator_supports_mean_gain(self, rng):
        # E||g_BI||^2 = N, so the averaged denominator is N (P_t zeta + sigma_F^2)
        n, zeta = 16, 1e-9
        total = 0.0
        draws = 1_000_000 // n
        g_sq = sample_nakagami_power(1.0, rng, (draws, n))
        denom = POWER.p_t * zeta * g_sq.sum(axis=1) + n * POWER.sigma_f2
        expected = n * (POWER.p_t * zeta + POWER.sigma_f2)
        assert abs(denom.mean() / expected - 1.0) < 0.005


class TestSnrDirect:
    def test_substitution(self):
        assert snr_direct_batch(np.ones(1), 1e-9, POWER)[0] == pytest.approx(100.0, rel=1e-12)

    def test_mean_over_fading(self, rng):
        zeta = 1e-9
        pows = sample_nakagami_power(2.0, rng, 500_000)
        snrs = snr_direct_batch(pows, zeta, POWER)
        expected = POWER.p_t * zeta / POWER.sigma2
        assert abs(snrs.mean() / expected - 1.0) < 0.01

    def test_exponential_tail(self, rng):
        zeta = 1e-9
        pows = sample_nakagami_power(1.0, rng, 500_000)
        snrs = snr_direct_batch(pows, zeta, POWER)
        mean = POWER.p_t * zeta / POWER.sigma2
        frac = (snrs > mean).mean()
        assert abs(frac - math.exp(-1.0)) < 0.005


class TestSnrActive:
    def test_single_element_substitution(self):
        bi, iu = gain(1.0, eps=1.0), gain(1.0, eps=1.0)
        amp_sq = POWER.p_f / (POWER.p_t + POWER.sigma_f2)
        expected = POWER.p_t * amp_sq / (amp_sq * POWER.sigma_f2 + POWER.sigma2)
        got = snr_row(active, np.ones(1), np.ones(1), bi, iu)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_vanishing_irs_noise_recovers_scaled_passive(self):
        power = PowerParams(p_t=1.0, p_f=0.01, sigma2=1e-11, sigma_f2=1e-22)
        bi, iu = gain(10.0), gain(10.0)
        ones = np.ones(4)
        amp_sq = power.p_f / (
            power.p_t * bi * 4 + 4 * power.sigma_f2
        )
        passive_scaled = amp_sq * snr_row(passive, ones, ones, bi, iu, power)
        got = snr_row(active, ones, ones, bi, iu, power)
        assert got == pytest.approx(passive_scaled, rel=1e-9)

    def test_noise_power_ratio_homogeneity(self):
        rng = np.random.default_rng(11)
        p_bi = sample_nakagami_power(1.0, rng, 8)
        p_iu = sample_nakagami_power(1.0, rng, 8)
        bi, iu = gain(100.0), gain(30.0)
        base = snr_row(active, p_bi, p_iu, bi, iu)
        c = 7.3
        scaled = PowerParams(
            p_t=c * POWER.p_t,
            p_f=c * POWER.p_f,
            sigma2=c * POWER.sigma2,
            sigma_f2=c * POWER.sigma_f2,
        )
        got = snr_row(active, p_bi, p_iu, bi, iu, scaled)
        assert got == pytest.approx(base, rel=1e-12)

    def test_power_budget_met_with_equality(self):
        # P_t ||A Phi h_BI||^2 + sigma_F^2 ||A Phi||^2 = P_F for the optimal A
        rng = np.random.default_rng(3)
        bi = gain(100.0)
        iu = gain(30.0)
        for _ in range(50):
            g_bi = np.sqrt(sample_nakagami_power(1.0, rng, 16))
            g_iu = np.sqrt(sample_nakagami_power(1.0, rng, 16))
            a_sq = kernel_gain_sq(g_bi, g_iu, bi, iu)
            h_bi_sq = bi * float(g_bi**2 @ np.ones(16))
            used = POWER.p_t * a_sq * h_bi_sq + POWER.sigma_f2 * a_sq * 16
            assert abs(used / POWER.p_f - 1.0) < 1e-9

    def test_phase_alignment_is_optimal(self):
        # oracle: complex per-element channels with arbitrary reflection phases
        rng = np.random.default_rng(5)
        bi, iu = gain(100.0), gain(30.0)
        for _ in range(20):
            a_bi = np.sqrt(sample_nakagami_power(1.0, rng, 8))
            a_iu = np.sqrt(sample_nakagami_power(1.0, rng, 8))
            g_bi = a_bi * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
            g_iu = a_iu * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
            aligned = snr_row(active, a_bi**2, a_iu**2, bi, iu)
            h_bi = np.sqrt(bi) * g_bi
            h_iu = np.sqrt(iu) * g_iu
            a_sq = budget_gain_sq(a_bi, bi)
            denom = a_sq * iu * float(
                (np.abs(g_iu) ** 2).sum()
            ) * POWER.sigma_f2 + POWER.sigma2
            for _ in range(100):
                phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
                num = POWER.p_t * a_sq * abs(np.conj(h_iu) @ (phases * h_bi)) ** 2
                assert num / denom <= aligned * (1.0 + 1e-12)

    def test_record_model_gap_inputs_finite(self, rng):
        # the physical MC vs closed-form comparison itself lives with the
        # analytic tests; here just pin that the physical draw machinery
        # produces finite positive SNR at network-scale parameters
        pows_bi = sample_nakagami_power(1.0, rng, (1000, 64))
        pows_iu = sample_nakagami_power(1.0, rng, (1000, 64))
        bi, iu = gain(100.0), gain(30.0)
        snrs = active(pows_bi, pows_iu, bi, iu, POWER)
        assert np.all(np.isfinite(snrs))
        assert np.all(snrs > 0)


class TestSnrPassive:
    def test_single_element(self):
        bi, iu = gain(1.0, eps=1.0), gain(1.0, eps=1.0)
        expected = POWER.p_t / POWER.sigma2
        got = snr_row(passive, np.ones(1), np.ones(1), bi, iu)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_deterministic_doubling_quadruples(self):
        bi, iu = gain(100.0), gain(30.0)
        s1 = snr_row(passive, np.ones(8), np.ones(8), bi, iu)
        s2 = snr_row(passive, np.ones(16), np.ones(16), bi, iu)
        assert s2 == pytest.approx(4.0 * s1, rel=1e-12)

    def test_mc_mean_against_moment_oracle(self, rng):
        # E[(sum |g||g|)^2] = N + N(N-1) (pi/4)^2 for Rayleigh hops
        n = 16
        draws = 200_000
        bi, iu = gain(100.0), gain(30.0)
        p_bi = sample_nakagami_power(1.0, rng, (draws, n))
        p_iu = sample_nakagami_power(1.0, rng, (draws, n))
        snrs = passive(p_bi, p_iu, bi, iu, POWER)
        s2 = n + n * (n - 1) * (math.pi / 4.0) ** 2
        expected = POWER.p_t * bi * iu * s2 / POWER.sigma2
        se = snrs.std(ddof=1) / math.sqrt(draws)
        assert abs(snrs.mean() - expected) < 4.0 * se
