"""Kernel construction, validation, and pointwise evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracvar import (
    KernelSpec,
    NormalizationFunction,
    OrderFunction,
    WarpFunction,
    identity_warp,
    kernel_eval,
    kernel_prefactor,
    kernel_values,
    log_warp,
    sin_warp,
    warp_from_expr,
)
from fracvar.errors import DomainError, InvalidParam, SingularOrder
from fracvar.kernel import _ml_kernel
from fracvar.mlf import MLParams, ml_eval


def cf_spec(alpha=0.5, interval=(0.0, 1.0), warp=None, norm=None,
            gamma=1.0, beta=1.0):
    return KernelSpec(gamma=gamma, beta=beta,
                      order=OrderFunction.constant(alpha),
                      warp=warp or identity_warp(),
                      norm=norm or NormalizationFunction.one(),
                      interval=interval)


class TestKernelValues:
    def test_exponential_closed_form(self):
        # gamma = beta = 1 collapses the kernel to exp(-alpha/(1-alpha) (t-tau))
        spec = cf_spec(alpha=0.5)
        assert kernel_eval(spec, 1.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert kernel_eval(spec, 0.7, 0.4) == pytest.approx(math.exp(-0.3), rel=1e-14)

    def test_equal_arguments_give_one(self):
        for spec in (cf_spec(0.3), cf_spec(0.5, gamma=0.5, beta=0.5),
                     cf_spec(0.8, warp=log_warp(), interval=(1.0, 2.0))):
            for t in np.linspace(*spec.interval, 7):
                assert kernel_eval(spec, float(t), float(t)) == 1.0

    def test_in_unit_interval(self):
        spec = cf_spec(0.7, gamma=0.6, beta=0.4)
        for t, tau in [(1.0, 0.0), (0.5, 0.25), (0.9, 0.899)]:
            value = kernel_eval(spec, t, tau)
            assert 0.0 < value <= 1.0

    def test_matches_mittag_leffler_directly(self):
        spec = cf_spec(0.4, gamma=0.5, beta=0.7)
        lam = 0.4 / 0.6
        expected = ml_eval(MLParams(beta=0.7), -lam * math.sqrt(0.81))
        assert kernel_eval(spec, 0.9, 0.09) == pytest.approx(expected, rel=1e-12)

    def test_tracking_orders_use_alpha_at_output_node(self):
        order = OrderFunction.from_expr("0.3 + 0.2*t", interval=(0.0, 1.0))
        spec = KernelSpec(gamma=None, beta=None, order=order,
                          warp=identity_warp(),
                          norm=NormalizationFunction.one(),
                          interval=(0.0, 1.0))
        t, tau = 0.8, 0.3
        alpha = 0.3 + 0.2 * t
        lam = alpha / (1.0 - alpha)
        expected = ml_eval(MLParams(beta=alpha), -lam * (t - tau) ** alpha)
        assert kernel_eval(spec, t, tau) == pytest.approx(expected, rel=1e-10)

    def test_far_argument_does_not_collapse(self):
        # H(2, 0) = E_0.3(-18); the spectral fallback once returned about
        # 1e-21 here. Reference: the asymptotic series, whose terms at
        # x = 18 fall far below 1e-16 before they grow again.
        spec = cf_spec(0.9, interval=(0.0, 2.0), gamma=1.0, beta=0.3)
        x = 0.9 / 0.1 * 2.0
        terms = [math.gamma(0.3 * k) * math.sin(math.pi * 0.3 * k) / (math.pi * x**k)
                 * (-1) ** (k + 1) for k in range(1, 40)]
        assert abs(terms[-1]) < 1e-16 * terms[0]
        h = kernel_values(spec, 2.0, np.array([0.0, 1.0]))
        assert h[0] == pytest.approx(math.fsum(terms), rel=1e-10)
        # the leading term 1/(x Gamma(1 - beta)) = 0.0428
        assert h[0] == pytest.approx(1.0 / (x * math.gamma(0.7)), rel=0.05)
        assert kernel_eval(spec, 2.0, 0.0) == pytest.approx(h[0], rel=1e-12)

    def test_warp_shift_invariance(self):
        # H depends on psi(t) - psi(tau); shifting psi changes nothing
        base = cf_spec(0.5, gamma=0.5, beta=0.5)
        shifted = cf_spec(0.5, gamma=0.5, beta=0.5, warp=warp_from_expr("t + 0.5"))
        for t, tau in [(1.0, 0.0), (0.6, 0.1)]:
            assert kernel_eval(shifted, t, tau) == pytest.approx(
                kernel_eval(base, t, tau), rel=1e-14)

    def test_nonincreasing_in_lag(self):
        spec = cf_spec(0.6, gamma=0.5, beta=0.5)
        lags = np.linspace(0.0, 1.0, 40)
        vals = [kernel_eval(spec, 1.0, 1.0 - lag) for lag in lags]
        assert all(v2 <= v1 + 1e-13 for v1, v2 in zip(vals, vals[1:]))

    def test_near_zero_order_kernel_near_one(self):
        spec = cf_spec(1e-8)
        assert abs(kernel_eval(spec, 1.0, 0.0) - 1.0) < 1e-6

    def test_vectorized_matches_scalar(self):
        spec = cf_spec(0.5, gamma=0.5, beta=0.5)
        taus = np.linspace(0.0, 0.8, 23)
        vec = kernel_values(spec, 0.8, taus)
        scl = np.array([kernel_eval(spec, 0.8, float(tau)) for tau in taus])
        assert np.max(np.abs(vec - scl)) < 1e-12

    @pytest.mark.parametrize("beta", [0.6, None])
    @pytest.mark.parametrize("warp,interval", [(identity_warp(), (0.0, 1.0)),
                                               (log_warp(), (1.0, 3.0))])
    def test_pointwise_is_one_element_of_vectorized(self, beta, warp, interval):
        order = OrderFunction.from_expr("0.3 + 0.2*t", interval=interval)
        spec = KernelSpec(gamma=0.7 if beta else None, beta=beta, order=order,
                          warp=warp, norm=NormalizationFunction.one(),
                          interval=interval)
        a, b = interval
        for t, tau in [(b, a), (0.5 * (a + b), a + 0.1), (b, b), (a + 0.3, a + 0.29)]:
            assert kernel_eval(spec, t, tau) == kernel_values(spec, t, [tau])[0]


class TestDomainAndSingularity:
    def test_rejects_points_outside_interval(self):
        spec = cf_spec(0.5)
        with pytest.raises(DomainError):
            kernel_eval(spec, 1.5, 0.0)
        with pytest.raises(DomainError):
            kernel_eval(spec, 0.5, -0.1)
        with pytest.raises(DomainError):
            kernel_eval(spec, 0.3, 0.6)  # tau > t

    def test_order_near_one_is_singular(self):
        spec = cf_spec(1.0 - 1e-14)
        with pytest.raises(SingularOrder):
            kernel_eval(spec, 0.5, 0.2)
        with pytest.raises(SingularOrder):
            kernel_prefactor(spec, 0.5)

    def test_order_exactly_one_allowed_by_validation(self):
        # construction succeeds (the classical-integral limit needs it);
        # only kernel evaluation is singular there
        spec = cf_spec(1.0)
        assert spec.alpha_at(0.5) == 1.0


class TestPrefactor:
    def test_unit_normalization(self):
        assert kernel_prefactor(cf_spec(0.5), 0.3) == pytest.approx(2.0, rel=1e-14)
        assert kernel_prefactor(cf_spec(0.9), 0.3) == pytest.approx(10.0, rel=1e-13)

    def test_polynomial_normalization(self):
        norm = NormalizationFunction.from_expr("1 - alpha + alpha^2")
        spec = cf_spec(0.5, norm=norm)
        # M(1/2) = 3/4, so the prefactor is (3/4)/(1/2) = 3/2
        assert kernel_prefactor(spec, 0.1) == pytest.approx(1.5, rel=1e-14)


class TestValidation:
    def test_order_bounds_must_be_in_unit_interval(self):
        with pytest.raises(InvalidParam):
            OrderFunction.constant(0.0)
        with pytest.raises(InvalidParam):
            OrderFunction.constant(1.2)
        with pytest.raises(InvalidParam):
            OrderFunction.from_callable(lambda t: 0.5, -0.1, 0.5)

    def test_order_escaping_declared_bounds(self):
        order = OrderFunction.from_callable(lambda t: 0.4 + 0.4 * t, 0.4, 0.6)
        with pytest.raises(InvalidParam, match="declared bounds"):
            cf_spec_with_order(order)

    def test_expr_order_samples_bounds(self):
        order = OrderFunction.from_expr("0.4 + 0.1*sin(t)", interval=(0.0, 6.0))
        assert order.declared_min >= 0.29
        assert order.declared_max <= 0.51
        assert not order.is_constant

    def test_expr_order_constant_folds(self):
        order = OrderFunction.from_expr("0.25 + 0.25", interval=(0.0, 1.0))
        assert order.is_constant
        assert order.fn(0.3) == 0.5

    def test_interval_must_be_increasing(self):
        with pytest.raises(InvalidParam):
            cf_spec(0.5, interval=(1.0, 0.0))

    def test_gamma_beta_range(self):
        with pytest.raises(InvalidParam):
            cf_spec(0.5, gamma=0.0)
        with pytest.raises(InvalidParam):
            cf_spec(0.5, beta=1.5)
        # the closed right endpoint is legal
        cf_spec(0.5, gamma=1.0, beta=1.0)

    def test_warp_must_increase(self):
        with pytest.raises(InvalidParam):
            cf_spec(0.5, warp=warp_from_expr("0 - t"))

    def test_warp_derivative_consistency_enforced(self):
        lying = WarpFunction(fn=lambda t: t * t + t + 1.0, deriv=lambda t: 1.0)
        with pytest.raises(InvalidParam, match="finite differences"):
            cf_spec(0.5, warp=lying)

    def test_log_warp_requires_positive_interval(self):
        with pytest.raises(InvalidParam):
            cf_spec(0.5, warp=log_warp(), interval=(0.0, 1.0))
        cf_spec(0.5, warp=log_warp(), interval=(1.0, 2.0))

    def test_normalization_endpoints_pinned(self):
        with pytest.raises(InvalidParam, match="normalization"):
            cf_spec(0.5, norm=NormalizationFunction.from_expr("1 + alpha"))

    def test_normalization_must_stay_positive(self):
        bad = NormalizationFunction.from_callable(lambda a: 1.0 - 4.5 * a * (1.0 - a))
        with pytest.raises(InvalidParam):
            cf_spec(0.5, norm=bad)


def cf_spec_with_order(order):
    return KernelSpec(gamma=1.0, beta=1.0, order=order, warp=identity_warp(),
                      norm=NormalizationFunction.one(), interval=(0.0, 1.0))


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_kernel_bounded_property(alpha, x, y):
    """H stays in (0, 1] across random constant orders and argument pairs."""
    t, tau = max(x, y), min(x, y)
    spec = cf_spec(alpha, gamma=0.5, beta=0.5)
    value = kernel_eval(spec, t, tau)
    assert 0.0 < value <= 1.0


def test_sin_warp_spec_builds():
    spec = cf_spec(0.5, warp=sin_warp())
    assert kernel_eval(spec, 1.0, 1.0) == 1.0


def test_variable_expr_order_needs_an_interval():
    with pytest.raises(InvalidParam, match="needs an interval"):
        OrderFunction.from_expr("0.4 + 0.1*t")


def test_order_must_be_finite_on_the_interval():
    order = OrderFunction.from_callable(lambda t: np.where(t < 0.5, 0.5, np.nan), 0.4, 0.6)
    with pytest.raises(InvalidParam, match="order function is not finite"):
        cf_spec_with_order(order)


def test_warp_that_raises_value_error_is_invalid():
    def undefined(t):
        raise ValueError("math domain error")

    with pytest.raises(InvalidParam, match="warp undefined on the interval: math domain error"):
        cf_spec(0.5, warp=WarpFunction(fn=undefined, deriv=undefined))


@pytest.mark.parametrize("gamma, beta", [(None, None), (0.5, None), (None, 1.0)])
def test_kernel_rows_of_orders_match_one_call_per_order(gamma, beta):
    # an array of orders gives one kernel row per order, each bit for bit
    # what that order gives alone: its own scalar power of dpsi (at
    # gamma = 0.5 numpy takes sqrt) and its own Mittag-Leffler row, also at
    # beta = 1, where the rows are exp
    spec = KernelSpec(gamma=gamma, beta=beta,
                      order=OrderFunction.from_expr("0.5 + 0.49*t", interval=(0.0, 1.0)),
                      warp=identity_warp(), norm=NormalizationFunction.one(),
                      interval=(0.0, 1.0))
    dpsi = np.linspace(0.0, 1.0, 1025)[::-1]
    alphas = np.array([0.5, 0.61, 0.7, 0.9, 0.99])
    alone = np.array([_ml_kernel(spec, float(a), dpsi) for a in alphas])
    assert np.array_equal(_ml_kernel(spec, alphas, dpsi), alone)
    assert np.array_equal(_ml_kernel(spec, alphas[:, None], dpsi), alone)
