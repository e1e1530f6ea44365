import hashlib
import math

import numpy as np
import pytest

from airsnet.mathkit import (
    ConvergenceError,
    DomainError,
    IntegrationError,
    exp_en_scaled,
    gauss_laguerre,
    integrate_interval_with_error,
    integrate_semi_infinite_with_error,
)
from conftest import e1_series, ref_exp_e1_scaled, rel_err


class TestGaussLaguerre:
    def test_order_one_is_exact(self):
        rule = gauss_laguerre(1)
        assert rule.nodes[0] == pytest.approx(1.0, abs=1e-14)
        assert rule.weights[0] == pytest.approx(1.0, abs=1e-14)

    def test_order_two_closed_form(self):
        # roots of 1 - 2x + x^2/2; weights from t/((n+1) L_{n+1}(t))^2,
        # which evaluate to (2 ± sqrt 2)/4 with the larger weight on the
        # smaller node.
        rule = gauss_laguerre(2)
        assert rule.nodes[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
        assert rule.nodes[1] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)
        assert rule.weights[0] == pytest.approx((2.0 + math.sqrt(2.0)) / 4.0, abs=1e-12)
        assert rule.weights[1] == pytest.approx((2.0 - math.sqrt(2.0)) / 4.0, abs=1e-12)

    def test_order_twenty_degree_five_moment(self):
        rule = gauss_laguerre(20)
        assert rel_err(float(rule.weights @ rule.nodes**5), 120.0) < 1e-10

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 10, 16, 20, 29, 32])
    def test_polynomial_exactness(self, order):
        # integral x^k e^-x = k! must be exact through degree 2*order - 1
        rule = gauss_laguerre(order)
        for k in range(2 * order):
            approx = float(rule.weights @ rule.nodes**k)
            assert rel_err(approx, math.factorial(k)) < 1e-9, (order, k)

    @pytest.mark.parametrize("order", [1, 4, 20, 33, 64])
    def test_rule_invariants(self, order):
        rule = gauss_laguerre(order)
        assert rule.order == order
        assert np.all(rule.nodes > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12

    def test_rule_is_immutable(self):
        rule = gauss_laguerre(6)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    @pytest.mark.parametrize("order", [0, -3, 65, 2.5])
    def test_out_of_range_order(self, order):
        with pytest.raises(DomainError):
            gauss_laguerre(order)

    PLAIN_RULE_SHA256 = {
        4: "4c8c7d9e9627ef6b1c563af4a8fe57c484cd6e755f48b7119dd8db8cd1335ea9",
        20: "ea25a5845359ac3890bfc389e3b477da56e808e20edf1949cf7e26985d886f3e",
        64: "7bf5305a4ed3a2277c2323a2fd99bdb44cc6bfbbd01ea1a884490fb02d3bec82",
    }

    @pytest.mark.parametrize("order", [4, 20, 64])
    def test_plain_rule_bits_are_frozen(self, order):
        # sha256 of nodes then weights as float64 bytes, frozen from the
        # plain-Laguerre builder before it took alpha: alpha = 0 keeps every bit
        for rule in (gauss_laguerre(order), gauss_laguerre(order, 0.0)):
            data = rule.nodes.tobytes() + rule.weights.tobytes()
            assert hashlib.sha256(data).hexdigest() == self.PLAIN_RULE_SHA256[order]

    @pytest.mark.parametrize("order", [4, 20, 64])
    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, 36.3, 126.0])
    def test_generalized_rule_matches_scipy(self, order, alpha):
        # scipy's roots_genlaguerre integrates against t^alpha e^-t; ours is
        # normalized by Gamma(alpha + 1)
        from scipy.special import gammaln, roots_genlaguerre

        nodes, weights = roots_genlaguerre(order, alpha)
        rule = gauss_laguerre(order, alpha)
        assert np.allclose(rule.nodes, nodes, rtol=1e-13, atol=0)
        assert np.allclose(rule.weights, weights * np.exp(-gammaln(alpha + 1.0)),
                           rtol=1e-11, atol=0)

    @pytest.mark.parametrize("order", [1, 2, 5, 10, 20])
    @pytest.mark.parametrize("alpha", [-0.5, 0.7, 4.0])
    def test_generalized_polynomial_exactness(self, order, alpha):
        # E t^k = Gamma(alpha + 1 + k)/Gamma(alpha + 1) through degree 2 order - 1
        rule = gauss_laguerre(order, alpha)
        for k in range(2 * order):
            exact = math.exp(math.lgamma(alpha + 1.0 + k) - math.lgamma(alpha + 1.0))
            assert rel_err(float(rule.weights @ rule.nodes**k), exact) < 1e-9, (order, k)

    @pytest.mark.parametrize("order", [4, 20, 64])
    def test_unit_mass_and_gamma_mean_at_every_shape(self, order):
        for m in np.geomspace(0.5, 1000.0, 25):
            rule = gauss_laguerre(order, m - 1.0)
            assert abs(rule.weights.sum() - 1.0) <= 1e-11, m
            assert rel_err(float(rule.weights @ rule.nodes), m) <= 1e-11, m

    @pytest.mark.parametrize("alpha", [-1.0, -3.0, math.inf, math.nan])
    def test_out_of_range_alpha(self, alpha):
        with pytest.raises(DomainError):
            gauss_laguerre(4, alpha)


class TestExpE1Scaled:
    """exp_en_scaled at order 1, e^x E1(x)."""

    def test_value_at_one(self):
        # frozen from the fsum'd series oracle: e * E1(1)
        assert rel_err(exp_en_scaled(1.0, 1.0), 0.5963473623231941) < 1e-10
        assert rel_err(exp_en_scaled(1.0, 1.0), ref_exp_e1_scaled(1.0)) < 1e-12

    def test_value_at_tenth(self):
        # frozen from the series oracle: e^0.1 * E1(0.1)
        assert rel_err(exp_en_scaled(1.0, 0.1), 2.0146425447084515) < 1e-10
        assert e1_series(0.1) == pytest.approx(1.8229239584193906, rel=1e-12)

    def test_large_argument_asymptote(self):
        x = 1000.0
        assert exp_en_scaled(1.0, x) == pytest.approx(1.0 / x - 1.0 / x**2, abs=1e-8)

    @pytest.mark.parametrize("x", [1e-4, 0.03, 0.4, 1.0, 1.000001, 3.0, 17.0, 250.0, 1e4])
    def test_against_oracle(self, x):
        assert rel_err(exp_en_scaled(1.0, x), ref_exp_e1_scaled(x)) < 1e-10

    def test_bracketing_and_monotonicity(self):
        xs = np.logspace(-6, 6, 400)
        vals = exp_en_scaled(1.0, xs)
        assert np.all(vals > 1.0 / (xs + 1.0))
        assert np.all(vals < 1.0 / xs)
        assert np.all(np.diff(vals) < 0)

    def test_array_and_scalar_forms_agree(self):
        xs = np.array([0.2, 1.0, 7.5])
        arr = exp_en_scaled(1.0, xs)
        for i, x in enumerate(xs):
            assert arr[i] == exp_en_scaled(1.0, float(x))

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            exp_en_scaled(1.0, x)


class TestExpEnScaled:
    ORDERS = [0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0, 20.0,
              1.0 + 1e-7, 1.0 - 1e-7, 2.0 + 1e-7, 2.0 - 1e-7]

    @pytest.mark.parametrize("p", ORDERS)
    def test_against_mpmath(self, p):
        mp = pytest.importorskip("mpmath")
        xs = np.logspace(-10.0, 5.0, 61)
        got = exp_en_scaled(p, xs)
        with mp.workdps(30):
            ref = [float(mp.exp(x) * mp.expint(mp.mpf(p), mp.mpf(x))) for x in xs]
        for x, g, r in zip(xs, got, ref):
            assert rel_err(g, r) < 1e-12, (p, x)

    @pytest.mark.parametrize("p", [64, 512, 4096])
    def test_large_orders_against_mpmath_quad(self, p):
        # the series branch climbs floor(p - 1/2) upward-recurrence steps.
        # mpmath's expint is no oracle at integer order: at p = 64,
        # x = 177.8 it is off by orders of magnitude (true value 0.004140),
        # so integrate the definition integral_0^inf e^(-x u) (1+u)^-p du,
        # whose scales are 1/(x+p)
        mp = pytest.importorskip("mpmath")
        xs = np.logspace(-10.0, 5.0, 31)
        got = exp_en_scaled(float(p), xs)
        with mp.workdps(30):
            for x, g in zip(xs, got):
                xm, s = mp.mpf(x), mp.mpf(x) + p
                ref = mp.quad(lambda u: mp.exp(-xm * u) * (1 + u) ** -p,
                              [0, 1 / s, 10 / s, mp.inf])
                assert rel_err(g, float(ref)) < 1e-12, (p, x)

    @pytest.mark.parametrize("p", [0.5, 1.0 + 1e-7, 2.5, 7.0])
    def test_recurrence_across_branches(self, p):
        # p E_(p+1)(x) + x E_p(x) = e^-x (DLMF 8.19), on both sides of x = 1
        xs = np.array([1e-6, 0.3, 0.999, 1.0, 1.001, 4.0, 300.0])
        lhs = p * exp_en_scaled(p + 1.0, xs) + xs * exp_en_scaled(p, xs)
        assert np.all(np.abs(lhs - 1.0) < 1e-13)

    def test_array_and_scalar_forms_agree(self):
        xs = np.array([1e-9, 0.7, 1.0, 2.0, 90.0])
        arr = exp_en_scaled(2.5, xs)
        for i, x in enumerate(xs):
            value = exp_en_scaled(2.5, float(x))
            assert type(value) is float
            assert arr[i] == value

    @pytest.mark.parametrize("p, x", [(0.49, 1.0), (float("nan"), 1.0), (1.5, 0.0),
                                      (1.5, -2.0), (1.5, float("inf"))])
    def test_domain(self, p, x):
        with pytest.raises(DomainError):
            exp_en_scaled(p, x)


def semi_inf(f, rel_tol, **kw):
    value, err = integrate_semi_infinite_with_error(f, rel_tol, **kw)
    assert 0.0 <= err <= rel_tol * abs(value)
    return value


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        assert rel_err(semi_inf(lambda z: np.exp(-z), 1e-10), 1.0) < 1e-10

    def test_x_exponential(self):
        got = semi_inf(lambda z: z * np.exp(-z), 1e-10)
        assert rel_err(got, 1.0) < 1e-10

    def test_e1_kernel(self):
        # integral e^-z/(1+z) = e * E1(1); cross-checks exp_en_scaled
        got = semi_inf(lambda z: np.exp(-z) / (1.0 + z), 1e-10)
        assert rel_err(got, 0.5963473623231941) < 1e-9
        assert rel_err(got, exp_en_scaled(1.0, 1.0)) < 1e-9

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
    def test_gamma_kernels(self, a, b):
        got = semi_inf(lambda z: z ** (a - 1.0) * np.exp(-b * z), 1e-10)
        assert rel_err(got, math.gamma(a) / b**a) < 1e-9

    def test_deterministic(self):
        f = lambda z: np.exp(-0.3 * z) / (1.0 + z * z)
        assert (integrate_semi_infinite_with_error(f, 1e-10)
                == integrate_semi_infinite_with_error(f, 1e-10))

    def test_log_spread_kernel(self):
        # the kind of kernel the mean-SNR integrals produce: mass spread over
        # ~8 decades between the floor and the exponential cutoff
        kappa = 1.1e-8
        got = semi_inf(lambda z: np.exp(-z) / (z + kappa), 1e-9, max_panels=8192)
        assert rel_err(got, ref_exp_e1_scaled(kappa)) < 1e-8

    @pytest.mark.parametrize("a", [1e-280, 1e-14, 1.0, 1e12])
    def test_scale_kernel_at_any_scale(self, a):
        # a/(z+a)^2 has its mass at z ~ a with 1/z^2 tails and integrates to 1;
        # (a/(z+a))/(z+a) keeps it finite where (z+a)^2 would underflow
        assert rel_err(semi_inf(lambda z: a / (z + a) / (z + a), 1e-10), 1.0) < 1e-10

    def test_budget_error_carries_estimate(self):
        with pytest.raises(IntegrationError) as exc:
            integrate_semi_infinite_with_error(
                lambda z: np.cos(40.0 * z) ** 2 * np.exp(-z) / (z + 1e-7),
                1e-12,
                max_panels=40,
            )
        assert exc.value.estimate > 0
        assert exc.value.achieved_rel_error > 1e-12


class TestIntegrandContract:
    """Integrands see only 1-D batches of whole 15-point Kronrod panels.

    No trial call precedes the sweep; the semi-infinite map leaves out only
    abscissae where z or 1/z is not a normal float, which a first pass never meets.
    """

    @staticmethod
    def recording(f, sizes):
        def g(x):
            assert x.ndim == 1 and x.dtype == float
            sizes.append(x.size)
            return f(x)

        return g

    def test_semi_infinite_calls_are_panel_batches(self):
        sizes = []
        semi_inf(self.recording(lambda z: np.exp(-z), sizes), 1e-10)
        assert sizes and all(n % 15 in (0, 14) for n in sizes)

    @pytest.mark.parametrize("columns", [1, 3])
    def test_semi_infinite_leaves_the_returned_values_alone(self, columns):
        # the map to (0, 1) folds its Jacobian into the panel weights and only
        # reads the values: an integrand may return an array it keeps
        kept = []

        def f(z):
            y = np.exp(-np.multiply.outer(z, np.arange(1.0, columns + 1.0)))
            kept.append((y, y.copy()))
            return y

        value, _ = integrate_semi_infinite_with_error(f, 1e-10)
        assert np.allclose(value, 1.0 / np.arange(1.0, columns + 1.0), rtol=1e-10)
        assert kept and all(np.array_equal(y, copy) for y, copy in kept)

    def test_interval_calls_are_panel_batches(self):
        sizes = []
        value, _ = integrate_interval_with_error(
            self.recording(lambda x: x * x, sizes), 0.0, 3.0, 1e-12
        )
        assert rel_err(value, 9.0) < 1e-12
        assert sizes == [15]

    def test_breakpoint_at_a_kink(self):
        # |x - c| e^x has a kink at c; with c on the initial mesh every panel
        # is smooth, so the closed form is met with fewer evaluations
        c = 0.7
        f = lambda x: np.abs(x - c) * np.exp(x)
        exact = 2.0 * math.exp(c) - c - 1.0 + (1.0 - c) * math.exp(2.0)
        with_point, without = [], []
        value, _ = integrate_interval_with_error(
            self.recording(f, with_point), 0.0, 2.0, 1e-13, points=(c,))
        plain, _ = integrate_interval_with_error(
            self.recording(f, without), 0.0, 2.0, 1e-13)
        assert rel_err(value, exact) < 1e-13 and rel_err(plain, exact) < 1e-12
        assert sum(with_point) < sum(without)

    def test_breakpoints_off_the_open_interval_are_ignored(self):
        f = lambda x: np.sin(3.0 * x) ** 2 + x
        plain = integrate_interval_with_error(f, 0.0, 5.0, 1e-12)
        assert integrate_interval_with_error(
            f, 0.0, 5.0, 1e-12, points=(0.0, 5.0, -1.0, 7.5)) == plain

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf),
                                      (float("nan"), 1.0)])
    def test_invalid_interval(self, a, b):
        with pytest.raises(DomainError):
            integrate_interval_with_error(lambda x: x, a, b)


class TestColumnIntegrands:
    """(n, K) integrands: K integrals on one shared mesh, each to its own tolerance."""

    def test_single_column_matches_one_dimensional_bitwise(self):
        # a one-column integrand takes the same panel decisions and the same
        # sorted final sums as the plain 1-D integrand
        f = lambda z: np.exp(-0.3 * z) / (1.0 + z * z)
        value, err = integrate_semi_infinite_with_error(f, 1e-10)
        col_value, col_err = integrate_semi_infinite_with_error(lambda z: f(z)[:, None], 1e-10)
        assert col_value.shape == col_err.shape == (1,)
        assert col_value[0] == value and col_err[0] == err
        g = lambda x: np.sin(3.0 * x) ** 2 + x
        for points in ((), (1.3, 4.0)):
            assert (integrate_interval_with_error(lambda x: g(x)[:, None], 0.0, 5.0, 1e-12,
                                                  points=points)[0][0]
                    == integrate_interval_with_error(g, 0.0, 5.0, 1e-12, points=points)[0])

    def test_columns_match_their_separate_integrals(self):
        rates = np.array([1e-6, 0.3, 1.0, 40.0])
        values, errs = integrate_semi_infinite_with_error(
            lambda z: np.exp(-np.multiply.outer(z, rates)) / (1.0 + z[:, None]), 1e-10
        )
        assert values.shape == errs.shape == (4,)
        for rate, value, err in zip(rates, values, errs):
            expected = exp_en_scaled(1.0, rate)
            assert rel_err(value, expected) < 1e-10
            assert 0.0 <= err <= 1e-10 * abs(value)

    def test_each_column_meets_its_own_relative_tolerance(self):
        # a column 1e-30 times smaller than its neighbour is still resolved
        # to rel_tol of itself, not of the larger column
        values, _ = integrate_interval_with_error(
            lambda x: np.stack([np.exp(x), 1e-30 * np.cos(20.0 * x) ** 2], axis=1),
            0.0, 2.0, 1e-11,
        )
        assert rel_err(values[0], math.expm1(2.0)) < 1e-11
        small = 1e-30 * (1.0 + math.sin(80.0) / 80.0)
        assert rel_err(values[1], small) < 1e-11

    # e^-z/(z + s_k) with s_k over nine decades: each column's feature sits at
    # its own scale, and its integral is e^s E1(s)
    MULTI_SCALE = np.logspace(-6.0, 3.0, 60)

    @classmethod
    def multi_scale(cls, z):
        return np.exp(-z)[:, None] / np.add.outer(z, cls.MULTI_SCALE)

    def test_multi_scale_columns_each_meet_their_own_tolerance(self):
        values, errs = integrate_semi_infinite_with_error(self.multi_scale, 1e-10)
        for s, value, err in zip(self.MULTI_SCALE, values, errs):
            assert rel_err(value, ref_exp_e1_scaled(s)) < 1e-10
            assert 0.0 <= err <= 1e-10 * value

    def test_a_converged_column_is_not_refined(self):
        # 1/(1+z)^2 meets its tolerance on the initial mesh; beside the
        # multi-scale columns it adds no abscissa and moves no other column
        record = TestIntegrandContract.recording
        easy = lambda z: 1.0 / (1.0 + z) ** 2
        easy_sizes, sizes, joint_sizes = [], [], []
        value, _ = integrate_semi_infinite_with_error(record(easy, easy_sizes), 1e-10)
        assert len(easy_sizes) == 1 and rel_err(value, 1.0) < 1e-10
        alone, _ = integrate_semi_infinite_with_error(record(self.multi_scale, sizes), 1e-10)
        joint, _ = integrate_semi_infinite_with_error(
            record(lambda z: np.column_stack([easy(z), self.multi_scale(z)]), joint_sizes),
            1e-10)
        assert len(sizes) > 1 and joint_sizes == sizes
        assert rel_err(joint[0], 1.0) < 1e-10 and np.array_equal(joint[1:], alone)

    def test_budget_error_carries_per_column_arrays(self):
        with pytest.raises(IntegrationError) as exc:
            integrate_semi_infinite_with_error(
                lambda z: np.stack([np.exp(-z), np.cos(40.0 * z) ** 2 * np.exp(-z)
                                    / (z + 1e-7)], axis=1),
                1e-12,
                max_panels=40,
            )
        assert exc.value.estimate.shape == exc.value.achieved_rel_error.shape == (2,)
        assert int(np.argmax(exc.value.achieved_rel_error)) == 1
