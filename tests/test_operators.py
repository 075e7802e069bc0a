"""Operator pipeline against closed forms computed independently below.

Every frozen expected value here comes straight from textbook formulas
(power-function integrals of power kernels, exponential convolutions), not
from the code under test.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracvar import (
    FdeProblem,
    GridFunction,
    KernelSpec,
    NormalizationFunction,
    OrderFunction,
    aux_integral_1,
    aux_integral_2,
    caputo_deriv_classical,
    caputo_deriv_ns,
    identity_warp,
    kernel_values,
    log_warp,
    make_special_case,
    rl_deriv_classical,
    rl_deriv_ns,
    rl_integral_varorder,
    solve_fde,
    uniform_grid,
)
from fracvar.errors import (
    DegenerateGrid,
    InvalidParam,
    SingularOrder,
)
from fracvar import mlf, operators
from fracvar.mlf import _ml_neg_array
from fracvar.operators import SPECIAL_CASES, _KernelTable


def cf_spec(alpha=0.5, interval=(0.0, 1.0), gamma=1.0, beta=1.0, warp=None):
    return KernelSpec(gamma=gamma, beta=beta,
                      order=OrderFunction.constant(alpha),
                      warp=warp or identity_warp(),
                      norm=NormalizationFunction.one(), interval=interval)


def sampled(fn, a=0.0, b=1.0, n=512, deriv=None, label="f"):
    return GridFunction.from_callable(fn, a, b, n, deriv=deriv, label=label)


ONE = lambda t: np.ones(np.shape(t))
IDENT = lambda t: np.asarray(t, dtype=float)


# --- variable-order integral ---------------------------------------------------


class TestRlIntegral:
    def test_order_one_is_running_trapezoid(self):
        # oracle: cumulative trapezoid sums, written out longhand
        f = sampled(np.cos, n=64)
        h = f.h
        oracle = np.concatenate(
            [[0.0], np.cumsum(0.5 * h * (f.values[1:] + f.values[:-1]))])
        out = rl_integral_varorder(cf_spec(1.0), f)
        assert np.max(np.abs(out.values.values - oracle)) < 1e-14

    def test_constant_f_half_order(self):
        # I^{1/2} 1 = t^{1/2} / Gamma(3/2), exact for panel-constant data
        f = sampled(ONE, n=256)
        out = rl_integral_varorder(cf_spec(0.5), f)
        expected = np.sqrt(f.grid) / math.gamma(1.5)
        assert np.max(np.abs(out.values.values - expected)) < 1e-13

    def test_linear_f_half_order(self):
        # I^{1/2} t = t^{3/2} Gamma(2) / Gamma(5/2); product integration is
        # exact on piecewise-linear data
        f = sampled(IDENT, n=256)
        out = rl_integral_varorder(cf_spec(0.5), f)
        expected = f.grid ** 1.5 / math.gamma(2.5)
        assert np.max(np.abs(out.values.values - expected)) < 1e-13

    def test_zero_function_gives_zero(self):
        f = sampled(lambda t: np.zeros(np.shape(t)), n=64)
        out = rl_integral_varorder(cf_spec(0.37), f)
        assert np.array_equal(out.values.values, np.zeros(65))

    def test_log_warp_constant_f(self):
        # with psi = ln t, I^{1/2} 1 at t is 2 sqrt(ln t) / sqrt(pi) Gamma(... )
        # worked out: (1/Gamma(1/2)) * 2 sqrt(ln t - ln 1) = 2 sqrt(ln t)/sqrt(pi)
        f = sampled(ONE, a=1.0, b=math.e, n=128)
        spec = cf_spec(0.5, interval=(1.0, math.e), warp=log_warp())
        out = rl_integral_varorder(spec, f)
        expected = 2.0 * np.sqrt(np.log(f.grid)) / math.sqrt(math.pi)
        assert np.max(np.abs(out.values.values - expected)) < 1e-13

    def test_variable_order_converges(self):
        # no closed form; check self-convergence against a fine reference
        order = OrderFunction.from_expr("0.4 + 0.3*t", interval=(0.0, 1.0))

        def run(n):
            spec = KernelSpec(gamma=1.0, beta=1.0, order=order,
                              warp=identity_warp(),
                              norm=NormalizationFunction.one(),
                              interval=(0.0, 1.0))
            f = sampled(np.sin, n=n)
            return rl_integral_varorder(spec, f).values.values[-1]

        ref = run(4096)
        e1, e2 = abs(run(128) - ref), abs(run(256) - ref)
        assert e2 < e1 / 1.7

    def test_exponent_modes_agree_for_constant_order(self):
        f = sampled(np.exp, n=128)
        at_t = rl_integral_varorder(cf_spec(0.6), f, exponent_at="t")
        at_tau = rl_integral_varorder(cf_spec(0.6), f, exponent_at="tau")
        assert np.max(np.abs(at_t.values.values - at_tau.values.values)) < 1e-14

    def test_exponent_modes_differ_for_variable_order(self):
        order = OrderFunction.from_expr("0.3 + 0.4*t", interval=(0.0, 1.0))
        spec = KernelSpec(gamma=1.0, beta=1.0, order=order, warp=identity_warp(),
                          norm=NormalizationFunction.one(), interval=(0.0, 1.0))
        f = sampled(ONE, n=128)
        at_t = rl_integral_varorder(spec, f, exponent_at="t").values.values
        at_tau = rl_integral_varorder(spec, f, exponent_at="tau").values.values
        assert np.max(np.abs(at_t - at_tau)) > 1e-3

    def test_exponent_at_validation(self):
        with pytest.raises(InvalidParam):
            rl_integral_varorder(cf_spec(0.5), sampled(ONE, n=64),
                                 exponent_at="midpoint")


# --- bounded-kernel family ------------------------------------------------------


def exp_kernel_convolution_oracle(grid, data, lam):
    """Trapezoid sums of exp(-lam (t - tau)) data(tau), reimplemented flat."""
    h = float(grid[1] - grid[0])
    out = np.zeros(grid.size)
    for i in range(1, grid.size):
        w = np.exp(-lam * (grid[i] - grid[: i + 1]))
        g = w * data[: i + 1]
        out[i] = h * (np.sum(g) - 0.5 * (g[0] + g[i]))
    return out


class TestAuxIntegrals:
    def test_aux1_exponential_closed_form(self):
        # alpha = 1/2: integral of exp(-(t-tau)) dtau = 1 - exp(-t)
        f = sampled(ONE, n=512)
        out = aux_integral_1(cf_spec(0.5), f)
        expected = 1.0 - np.exp(-f.grid)
        assert np.max(np.abs(out.values.values - expected)) < 1e-5
        assert out.quad_error_estimate < 1e-4

    def test_aux2_linear_closed_form(self):
        f = sampled(IDENT, n=512)
        out = aux_integral_2(cf_spec(0.5), f)
        expected = 1.0 - np.exp(-f.grid)
        assert np.max(np.abs(out.values.values - expected)) < 1e-5

    def test_aux1_matches_flat_reimplementation(self):
        f = sampled(np.sin, n=128)
        out = aux_integral_1(cf_spec(0.5), f)
        oracle = exp_kernel_convolution_oracle(f.grid, f.values, 1.0)
        assert np.max(np.abs(out.values.values - oracle)) < 1e-12

    def test_aux2_near_zero_order_is_increment(self):
        f = sampled(np.cos, n=512)
        out = aux_integral_2(cf_spec(1e-8), f)
        expected = np.cos(f.grid) - 1.0
        assert np.max(np.abs(out.values.values - expected)) < 1e-6

    def test_estimate_bounds_the_error(self):
        # for the trapezoid/midpoint pair the true error is about 2/3 of
        # the gap; 1.1x the estimate is a safe envelope on smooth data
        f = sampled(ONE, n=256)
        out = aux_integral_1(cf_spec(0.5), f)
        true_err = np.max(np.abs(out.values.values - (1.0 - np.exp(-f.grid))))
        assert true_err <= 1.1 * out.quad_error_estimate + 1e-12

    def test_midpoint_scheme_selectable(self):
        f = sampled(np.sin, n=128)
        trap = aux_integral_1(cf_spec(0.5), f)
        mid = aux_integral_1(cf_spec(0.5), f, scheme="product_midpoint")
        gap = np.max(np.abs(trap.values.values - mid.values.values))
        assert 0.0 < gap < 1e-4
        assert trap.quad_error_estimate == pytest.approx(gap, rel=1e-12)

    def test_bad_scheme_rejected(self):
        with pytest.raises(InvalidParam):
            aux_integral_1(cf_spec(0.5), sampled(ONE, n=64), scheme="simpson")

    def test_interval_mismatch_rejected(self):
        with pytest.raises(InvalidParam):
            aux_integral_1(cf_spec(0.5), sampled(ONE, a=0.0, b=2.0, n=64))


class TestBoundedDerivatives:
    def test_rl_of_constant_is_prefactor_times_kernel(self):
        # D_rl 1 = 2 exp(-t) for the exponential kernel at alpha = 1/2
        f = sampled(ONE, n=1024)
        out = rl_deriv_ns(cf_spec(0.5), f)
        expected = 2.0 * np.exp(-f.grid)
        assert np.max(np.abs(out.values.values - expected)) < 1e-5

    def test_caputo_of_linear(self):
        # D_c t = 2 (1 - exp(-t)) at alpha = 1/2; value at t=1 is 1.2642411
        f = sampled(IDENT, n=1024, deriv=ONE)
        out = caputo_deriv_ns(cf_spec(0.5), f)
        expected = 2.0 * (1.0 - np.exp(-f.grid))
        assert np.max(np.abs(out.values.values - expected)) < 1e-6
        assert out.values.values[-1] == pytest.approx(1.2642411176571153, abs=1e-6)

    def test_caputo_vanishes_at_left_endpoint(self):
        f = sampled(np.exp, n=256, deriv=np.exp)
        out = caputo_deriv_ns(cf_spec(0.3), f)
        assert out.values.values[0] == 0.0

    def test_rl_minus_caputo_identity(self):
        # for the exponential kernel, D_rl f - D_c f = P H(t, a) f(a);
        # follows from integration by parts, exact in the continuum
        spec = cf_spec(0.5)
        f = sampled(np.cos, n=1024, deriv=lambda t: -np.sin(t))
        rl = rl_deriv_ns(spec, f).values.values
        ca = caputo_deriv_ns(spec, f).values.values
        boundary = 2.0 * np.exp(-f.grid) * 1.0
        assert np.max(np.abs(rl - ca - boundary)) < 1e-4

    def test_grid_refinement_cuts_error_by_three(self):
        spec = cf_spec(0.5)

        def err(n):
            f = sampled(IDENT, n=n, deriv=ONE)
            out = caputo_deriv_ns(spec, f)
            return np.max(np.abs(out.values.values
                                 - 2.0 * (1.0 - np.exp(-f.grid))))

        assert err(2048) < err(1024) / 3.0

    def test_singular_order_raised(self):
        f = sampled(ONE, n=64)
        with pytest.raises(SingularOrder):
            caputo_deriv_ns(cf_spec(1.0 - 1e-13), f)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_caputo_linearity(c1, c2):
    """D_c(c1 f + c2 g) equals c1 D_c f + c2 D_c g to roundoff."""
    spec = cf_spec(0.5, gamma=0.5, beta=0.5)
    grid = uniform_grid(0.0, 1.0, 64)
    fv, gv = np.sin(grid), grid ** 2
    fd, gd = np.cos(grid), 2.0 * grid
    combined = GridFunction(grid=grid, values=c1 * fv + c2 * gv,
                            derivs=c1 * fd + c2 * gd)
    f = GridFunction(grid=grid, values=fv, derivs=fd)
    g = GridFunction(grid=grid, values=gv, derivs=gd)
    lhs = caputo_deriv_ns(spec, combined).values.values
    rhs = (c1 * caputo_deriv_ns(spec, f).values.values
           + c2 * caputo_deriv_ns(spec, g).values.values)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale


# --- classical (weakly singular) derivatives ------------------------------------


class TestClassicalDerivatives:
    def test_caputo_of_linear_exact(self):
        # D^{1/2}_C t = t^{1/2} / Gamma(3/2); constant integrand data makes
        # the product integral exact
        f = sampled(IDENT, n=512, deriv=ONE)
        out = caputo_deriv_classical(cf_spec(0.5), f)
        expected = np.sqrt(f.grid) / math.gamma(1.5)
        assert np.max(np.abs(out.values.values - expected)) < 1e-13

    def test_caputo_of_quadratic_exact(self):
        # D^{1/2}_C t^2 = 2 t^{3/2} / Gamma(5/2); linear data, still exact
        f = sampled(lambda t: np.asarray(t) ** 2, n=512, deriv=lambda t: 2 * np.asarray(t))
        out = caputo_deriv_classical(cf_spec(0.5), f)
        expected = 2.0 * f.grid ** 1.5 / math.gamma(2.5)
        assert np.max(np.abs(out.values.values - expected)) < 1e-12

    def test_rl_of_constant_power_law(self):
        # D^{1/2}_RL 1 = t^{-1/2} / Gamma(1/2), checked away from the
        # singular left endpoint where the finite difference can follow it
        f = sampled(ONE, n=1024)
        out = rl_deriv_classical(cf_spec(0.5), f)
        keep = f.grid >= 0.25
        expected = f.grid[keep] ** -0.5 / math.gamma(0.5)
        rel = np.abs(out.values.values[keep] - expected) / expected
        assert np.max(rel) < 1e-5

    def test_needs_enough_panels(self):
        f = sampled(ONE, n=12)
        with pytest.raises(DegenerateGrid):
            rl_deriv_classical(cf_spec(0.5), f)

    def test_caputo_log_warp(self):
        # psi = ln t: D_C of f(t) = ln t is (ln t)^{1/2} / Gamma(3/2),
        # since f is linear in psi
        f = sampled(np.log, a=1.0, b=math.e, n=512, deriv=lambda t: 1.0 / np.asarray(t))
        spec = cf_spec(0.5, interval=(1.0, math.e), warp=log_warp())
        out = caputo_deriv_classical(spec, f)
        expected = np.sqrt(np.log(f.grid)) / math.gamma(1.5)
        assert np.max(np.abs(out.values.values - expected)) < 1e-12


# --- kernel table fast path ------------------------------------------------------


def test_toeplitz_and_fresh_rows_agree():
    # a callable order with constant value defeats the constant-order
    # detection, forcing per-row kernel evaluation; results must match the
    # Toeplitz table bit-for-bit within roundoff
    fast = cf_spec(0.6, gamma=0.5, beta=0.5)
    slow = KernelSpec(gamma=0.5, beta=0.5,
                      order=OrderFunction.from_callable(lambda t: 0.6, 0.6, 0.6),
                      warp=identity_warp(), norm=NormalizationFunction.one(),
                      interval=(0.0, 1.0))
    f = sampled(np.sin, n=96)
    for op in (aux_integral_1, aux_integral_2):
        a = op(fast, f).values.values
        b = op(slow, f).values.values
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("beta", [0.6, None])
def test_table_rows_are_kernel_values(beta):
    # psi = ln t is not uniformly spaced, so every row is evaluated afresh;
    # it must be exactly what the public vectorized evaluator returns
    interval = (1.0, 3.0)
    spec = KernelSpec(gamma=0.7 if beta else None, beta=beta,
                      order=OrderFunction.from_expr("0.3 + 0.2*t", interval=interval),
                      warp=log_warp(), norm=NormalizationFunction.one(),
                      interval=interval)
    grid = uniform_grid(*interval, 64)
    table = _KernelTable(spec, grid)
    for i in range(grid.size):
        assert np.array_equal(table.row(i), kernel_values(spec, grid[i], grid[: i + 1]))


def _history_reference(spec, f, g_nodes, g_mids):
    """O(n^2) trapezoid and midpoint sums of H * g from kernel_values rows."""
    grid, h = f.grid, f.h
    mids = 0.5 * (grid[:-1] + grid[1:])
    trap = np.zeros(grid.size)
    mid = np.zeros(grid.size)
    for i in range(1, grid.size):
        weights = np.ones(i + 1)
        weights[[0, i]] = 0.5
        trap[i] = h * np.sum(weights * kernel_values(spec, grid[i], grid[: i + 1])
                             * g_nodes[: i + 1])
        mid[i] = h * np.sum(kernel_values(spec, grid[i], mids[:i]) * g_mids[:i])
    return trap, mid


def tracked_spec(order="0.3 + 0.2*t"):
    return KernelSpec(gamma=None, beta=None,
                      order=OrderFunction.from_expr(order, interval=(0.0, 1.0)),
                      warp=identity_warp(), norm=NormalizationFunction.one(),
                      interval=(0.0, 1.0))


@pytest.mark.parametrize("case", ["toeplitz", "log_warp", "tracked", "exp", "exp_log_warp",
                                  "soe_log_warp", "soe_variable_order", "soe_tracked"])
def test_history_sums_match_direct_kernel_rows(case):
    # the table's sums (convolutions on the Toeplitz path, the windowed
    # recurrence for the exponential kernel, sums of exponentials for
    # gamma = beta < 1 once n reaches their count, one half-step row per node
    # otherwise) against a direct sum over public kernel values, midpoint
    # sums on a non-uniform warp included
    n = 512 if case.startswith("soe") else 96
    if case == "toeplitz":
        spec = cf_spec(0.6, gamma=0.5, beta=0.5)
    elif case == "log_warp":
        spec = cf_spec(0.4, interval=(1.0, 3.0), gamma=0.7, beta=0.6, warp=log_warp())
    elif case == "exp":
        spec = cf_spec(0.6)
    elif case == "exp_log_warp":
        spec = cf_spec(0.4, interval=(1.0, 3.0), warp=log_warp())
    elif case == "soe_log_warp":
        spec = cf_spec(0.4, interval=(1.0, 3.0), gamma=0.5, beta=0.5, warp=log_warp())
    elif case == "soe_variable_order":
        spec = KernelSpec(gamma=0.6, beta=0.6,
                          order=OrderFunction.from_expr("0.3 + 0.2*t", interval=(0.0, 1.0)),
                          warp=identity_warp(), norm=NormalizationFunction.one(),
                          interval=(0.0, 1.0))
    else:
        spec = tracked_spec()
    if case.startswith("soe"):
        assert _KernelTable(spec, uniform_grid(*spec.interval, n))._soe is not None
    a, b = spec.interval
    f = sampled(np.sin, a, b, n=n, deriv=np.cos)
    mids = 0.5 * (f.grid[:-1] + f.grid[1:])
    f_mid = 0.5 * (f.values[:-1] + f.values[1:])
    fp = f.deriv_values()
    references = {
        aux_integral_1: _history_reference(
            spec, f, spec.warp.deriv_values(f.grid) * f.values,
            spec.warp.deriv_values(mids) * f_mid),
        aux_integral_2: _history_reference(spec, f, fp, 0.5 * (fp[:-1] + fp[1:])),
    }
    for op, (trap, mid) in references.items():
        for scheme, ref in (("product_trapezoid", trap), ("product_midpoint", mid)):
            got = op(spec, f, scheme=scheme).values.values
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("alpha, interval, warp", [
    (0.9, (0.0, 100.0), identity_warp()),  # lam * span = 900 windows
    (0.3, (0.0, 1.0), identity_warp()),    # one window
    (0.9, (1.0, 50.0), log_warp()),
])
def test_exponential_sums_match_long_double_rows(alpha, interval, warp):
    # the exponential kernel's windowed recurrence against direct row sums in
    # long double; scaling psi by lam before differencing costs 4.5e-14 on
    # [0, 100], differencing first about 3e-16
    spec = cf_spec(alpha, interval=interval, warp=warp)
    grid = uniform_grid(*interval, 2048)
    table = _KernelTable(spec, grid)
    x = np.sin(3.0 * grid) + 0.2
    y = np.cos(grid[:-1] + grid[1:])
    psi = table.psih.astype(np.longdouble)
    lam = np.longdouble(alpha) / (1 - np.longdouble(alpha))
    data = np.zeros((psi.size, 2), dtype=np.longdouble)
    data[::2, 0] = x
    data[1::2, 1] = y
    ref = np.array([np.exp(-lam * (psi[2 * i] - psi[: 2 * i + 1])) @ data[: 2 * i + 1]
                    for i in range(grid.size)])
    for got, want in zip(table.sums(x, y), ref.T):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_exponential_caputo_starts_at_exact_zero():
    # on the exponential path node 0's sum is d_0 itself, so the trapezoid
    # end correction cancels it exactly
    for spec, a, b in ((cf_spec(0.7), 0.0, 1.0),
                       (cf_spec(0.7, interval=(1.0, 2.0), warp=log_warp()), 1.0, 2.0)):
        f = sampled(np.cos, a, b, n=200, deriv=lambda t: -np.sin(t))
        for scheme in ("product_trapezoid", "product_midpoint"):
            assert caputo_deriv_ns(spec, f, scheme=scheme).values.values[0] == 0.0


def test_exponential_table_builds_its_toeplitz_base_on_first_row(monkeypatch):
    # the exponential kernel's sums take the recurrence and never read the
    # Toeplitz base, so only the solver's first row() call evaluates it
    calls = []
    real = operators._ml_kernel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(operators, "_ml_kernel", counted)
    grid = uniform_grid(0.0, 1.0, 64)
    table = _KernelTable(cf_spec(0.6), grid)
    table.sums(np.sin(grid), np.cos(grid[1:]))
    assert calls == []
    rows = [table.row(i) for i in (10, 40)]
    assert len(calls) == 1
    for i, row in zip((10, 40), rows):
        assert np.array_equal(row, kernel_values(cf_spec(0.6), grid[i], grid[: i + 1]))


def _soe_cutoff(n=1024):
    """The largest beta (to 0.01) whose rule fits in n terms on [0, 1]: the
    spot check always passes here, so the term count alone decides."""
    alphas = np.linspace(0.05, 0.9, 18)
    with mock.patch.object(mlf, "_SOE_TOL", math.inf):
        fits = [b for b in np.arange(0.70, 0.995, 0.01)
                if mlf._soe_rule(np.full(alphas.size, b), alphas / (1 - alphas),
                                 0.5 / n, 1.0, n) is not None]
    return float(fits[-1])


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, "cutoff"])
def test_soe_weights_match_mittag_leffler(beta):
    # the trapezoid rule in l = ln r against the certified evaluator, over
    # the orders and the psi gaps of an n = 1024 grid on [0, 1]
    if beta == "cutoff":
        beta = _soe_cutoff()
        assert round(beta, 2) >= 0.91
    s_min, span = 0.5 / 1024, 1.0
    alphas = np.linspace(0.05, 0.9, 18)
    lams = alphas / (1 - alphas)
    rule = mlf._soe_rule(np.full(alphas.size, beta), lams, s_min, span, 10**6)
    assert rule is not None
    rates, weights = rule
    s = np.geomspace(s_min, span, 200)
    got = np.exp(-np.outer(s, rates)) @ weights(slice(None))
    for lam, column in zip(lams, got.T):
        want = _ml_neg_array(beta, -lam * s**beta)
        assert np.max(np.abs(column - want) / want) <= mlf._SOE_TOL


def test_soe_routing(monkeypatch):
    # tracked and log-warp sums take the sums of exponentials and evaluate no
    # kernel row; an order reaching beta = 0.95 needs more terms than nodes,
    # and gamma != beta has no such sum, so both take one row per node
    calls = []
    real = operators._ml_kernel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(operators, "_ml_kernel", counted)
    n = 512
    for spec, rows in ((tracked_spec(), 0),
                       (cf_spec(0.4, interval=(1.0, 3.0), gamma=0.5, beta=0.5,
                                warp=log_warp()), 0),
                       (tracked_spec("0.75 + 0.2*t"), n + 1),
                       (cf_spec(0.4, interval=(1.0, 3.0), gamma=0.7, beta=0.6,
                                warp=log_warp()), n + 1)):
        grid = uniform_grid(*spec.interval, n)
        calls.clear()
        _KernelTable(spec, grid).sums(np.sin(grid), np.cos(grid[1:]))
        assert len(calls) == rows
    # so does a spot check that misses
    monkeypatch.setattr(mlf, "_SOE_TOL", 0.0)
    grid = uniform_grid(0.0, 1.0, n)
    calls.clear()
    _KernelTable(tracked_spec(), grid).sums(np.sin(grid), np.cos(grid[1:]))
    assert len(calls) == n + 1


def test_singular_toeplitz_and_rows_agree():
    # the callable constant order defeats the constant-order detection, so
    # the weakly singular operators build one moment row per node instead of
    # convolving with the Toeplitz table
    fast = cf_spec(0.6)
    slow = KernelSpec(gamma=1.0, beta=1.0,
                      order=OrderFunction.from_callable(lambda t: 0.6, 0.6, 0.6),
                      warp=identity_warp(), norm=NormalizationFunction.one(),
                      interval=(0.0, 1.0))
    f = sampled(np.sin, n=96, deriv=np.cos)
    ops = {
        "caputo_classical": (caputo_deriv_classical, {}, 1e-12),
        "rl_classical": (rl_deriv_classical, {}, 1e-11),
        "integral_t": (rl_integral_varorder, {"exponent_at": "t"}, 1e-12),
        "integral_tau": (rl_integral_varorder, {"exponent_at": "tau"}, 1e-12),
    }
    for name, (op, kwargs, rel) in ops.items():
        for scheme in ("product_trapezoid", "product_midpoint"):
            a = op(fast, f, scheme=scheme, **kwargs).values.values
            b = op(slow, f, scheme=scheme, **kwargs).values.values
            assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(a)), (name, scheme)


def _moment_reference(spec, f, exponent_at):
    """O(n^2) product-integration sums of the integral, moments written out.

    Over panel j the weight (psi_i - x)^(mu-1) has integral
    m0 = (U_j^mu - U_{j+1}^mu) / mu, U_j = psi_i - psi_j, and first moment
    about the left end psi_j m1 = U_j m0 - (U_j^(mu+1) - U_{j+1}^(mu+1)) / (mu+1).
    """
    grid = f.grid
    psi = spec.warp.values(grid)
    alphas = spec.order.values(grid)
    mid_alphas = spec.order.values(0.5 * (grid[:-1] + grid[1:]))
    data = f.values
    slope = np.diff(data) / np.diff(psi)
    trap = np.zeros(grid.size)
    mid = np.zeros(grid.size)
    for i in range(1, grid.size):
        mu = mid_alphas[:i] if exponent_at == "tau" else alphas[i]
        u0 = psi[i] - psi[:i]
        u1 = psi[i] - psi[1 : i + 1]
        u1[-1] = 0.0
        m0 = (u0**mu - u1**mu) / mu
        m1 = u0 * m0 - (u0 ** (mu + 1.0) - u1 ** (mu + 1.0)) / (mu + 1.0)
        gamma = math.gamma(alphas[i])
        trap[i] = np.sum(data[:i] * m0 + slope[:i] * m1) / gamma
        mid[i] = np.sum(0.5 * (data[:i] + data[1 : i + 1]) * m0) / gamma
    return trap, mid


@pytest.mark.parametrize("case", ["toeplitz", "log_warp", "variable", "tau"])
def test_product_sums_match_direct_moments(case):
    # the table's moment rows (convolutions on the Toeplitz path, one row per
    # node otherwise) against a direct sum of the exact panel moments
    exponent_at = "tau" if case == "tau" else "t"
    if case == "toeplitz":
        spec = cf_spec(0.6)
    elif case == "log_warp":
        spec = cf_spec(0.4, interval=(1.0, 3.0), warp=log_warp())
    else:
        spec = KernelSpec(gamma=1.0, beta=1.0,
                          order=OrderFunction.from_expr("0.3 + 0.4*t",
                                                        interval=(0.0, 1.0)),
                          warp=identity_warp(), norm=NormalizationFunction.one(),
                          interval=(0.0, 1.0))
    a, b = spec.interval
    f = sampled(np.sin, a, b, n=96, deriv=np.cos)
    trap, mid = _moment_reference(spec, f, exponent_at)
    for scheme, ref in (("product_trapezoid", trap), ("product_midpoint", mid)):
        got = rl_integral_varorder(spec, f, exponent_at=exponent_at,
                                   scheme=scheme).values.values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# --- special-case factory ---------------------------------------------------------


class TestSpecialCases:
    def test_all_names_exposed(self):
        assert set(SPECIAL_CASES) == {
            "variable_ml", "atangana", "yang_machado", "caputo_fabrizio",
            "unit_norm_exp", "log_warp", "sin_warp"}

    def test_caputo_fabrizio_matches_direct_convolution(self):
        spec = make_special_case("caputo_fabrizio", alpha=0.5)
        f = sampled(np.sin, n=256, deriv=np.cos)
        out = caputo_deriv_ns(spec, f).values.values
        oracle = 2.0 * exp_kernel_convolution_oracle(f.grid, np.cos(f.grid), 1.0)
        assert np.max(np.abs(out - oracle)) < 1e-12

    def test_yang_machado_same_kernel_as_caputo_fabrizio(self):
        ym = make_special_case("yang_machado", alpha=0.3)
        cf = make_special_case("caputo_fabrizio", alpha=0.3)
        assert ym.gamma == cf.gamma == 1.0
        assert ym.beta == cf.beta == 1.0
        f = sampled(np.exp, n=64, deriv=np.exp)
        assert np.array_equal(aux_integral_1(ym, f).values.values,
                              aux_integral_1(cf, f).values.values)

    def test_atangana_collapses_orders(self):
        spec = make_special_case("atangana", alpha=0.7)
        assert spec.gamma == 0.7 and spec.beta == 0.7

    def test_variable_ml_at_constant_order_is_atangana(self):
        # a constant order makes tracked gamma and beta constant, so both
        # specs take the Toeplitz table and must agree bit for bit
        tracked = make_special_case("variable_ml", alpha=0.5)
        fixed = make_special_case("atangana", alpha=0.5)
        f = sampled(np.sin, n=128, deriv=np.cos)
        for op in (caputo_deriv_ns, rl_deriv_ns):
            assert np.array_equal(op(tracked, f).values.values,
                                  op(fixed, f).values.values)
        solutions = [solve_fde(FdeProblem(spec=spec, rhs=lambda t, u: -u ** 3 - u,
                                          initial=1.0, grid_n=128)).solution.values
                     for spec in (tracked, fixed)]
        assert np.array_equal(*solutions)

    def test_atangana_rejects_variable_order(self):
        order = OrderFunction.from_expr("0.5 + 0.1*t", interval=(0.0, 1.0))
        with pytest.raises(InvalidParam):
            make_special_case("atangana", alpha=order)

    def test_variable_ml_tracks_order(self):
        order = OrderFunction.from_expr("0.4 + 0.2*t", interval=(0.0, 1.0))
        spec = make_special_case("variable_ml", alpha=order)
        assert spec.gamma is None and spec.beta is None
        with pytest.raises(InvalidParam):
            make_special_case("variable_ml", alpha=order, gamma=0.5)

    def test_unit_norm_exp_rejects_custom_normalization(self):
        with pytest.raises(InvalidParam):
            make_special_case("unit_norm_exp", alpha=0.5,
                              M=NormalizationFunction.one())
        spec = make_special_case("unit_norm_exp", alpha=0.5)
        assert spec.norm.fn(0.37) == 1.0

    def test_log_warp_needs_positive_start(self):
        with pytest.raises(InvalidParam):
            make_special_case("log_warp", alpha=0.5, interval=(0.0, 1.0))
        spec = make_special_case("log_warp", alpha=0.5, interval=(1.0, 2.0))
        assert spec.warp.fn(math.e) == pytest.approx(1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParam):
            make_special_case("grunwald", alpha=0.5)

    def test_scalar_alpha_accepted(self):
        spec = make_special_case("caputo_fabrizio", alpha=0.25)
        assert spec.order.is_constant
        assert spec.alpha_at(0.5) == 0.25
