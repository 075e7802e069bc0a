"""Operator pipeline against closed forms computed independently below.

Every frozen expected value here comes straight from textbook formulas
(power-function integrals of power kernels, exponential convolutions), not
from the code under test.
"""

import decimal
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
    warp_from_expr,
)
from fracvar.errors import (
    DegenerateGrid,
    InvalidParam,
    NonConvergent,
    SingularOrder,
)
from fracvar import mlf, operators
from fracvar.mlf import _ml_neg_array
from fracvar.operators import _DEGREES, SCHEMES, SPECIAL_CASES, _KernelTable


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
    # the Toeplitz table's convolutions against the same table summing one
    # freshly evaluated kernel row per node
    grid = uniform_grid(0.0, 1.0, 96)
    fast, slow = (_KernelTable(cf_spec(0.6, gamma=0.5, beta=0.5), grid) for _ in range(2))
    assert fast.path == "toeplitz"
    slow.path = "rows"
    x, y = np.sin(grid), np.cos(grid[1:])
    for a, b in zip(fast.sums(x, y), slow.sums(x, y)):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


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


def tracked_log_spec(order="0.2 + 0.1*t"):
    """A tracked order on psi = ln t over [1, 3] (0.3..0.5 by default, as
    tracked_spec): its rows are not Toeplitz, so it keeps the SOE sums."""
    return KernelSpec(gamma=None, beta=None,
                      order=OrderFunction.from_expr(order, interval=(1.0, 3.0)),
                      warp=log_warp(), norm=NormalizationFunction.one(), interval=(1.0, 3.0))


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
                          order=OrderFunction.from_expr("0.2 + 0.1*t", interval=(1.0, 3.0)),
                          warp=log_warp(), norm=NormalizationFunction.one(),
                          interval=(1.0, 3.0))
    elif case == "soe_tracked":
        spec = tracked_log_spec()
    else:
        spec = tracked_spec()
    if case.startswith("soe"):
        assert _KernelTable(spec, uniform_grid(*spec.interval, n)).path == "soe"
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


@pytest.mark.parametrize("order, gamma, interval, warp", [
    ("0.3 + 0.2*t", None, (0.1, 1.0), log_warp()),   # tracked
    ("0.75 + 0.2*t", None, (0.1, 1.0), log_warp()),  # tracked, K = 463
    ("0.4", 0.5, (1.0, 3.0), log_warp()),                 # one rule for every node
])
def test_soe_midpoint_sums_match_long_double_rows(order, gamma, interval, warp):
    # the midpoint sums of a multi-rate rule, _exp_sums on the half-step
    # grid, against long-double sums of the public kernel values at the
    # panel midpoints
    spec = KernelSpec(gamma=gamma, beta=gamma,
                      order=OrderFunction.from_expr(order, interval=interval), warp=warp,
                      norm=NormalizationFunction.one(), interval=interval)
    grid = uniform_grid(*interval, 2048)
    table = _KernelTable(spec, grid)
    assert table.path == "soe" and table._rule[1] is not None
    y = np.cos(grid[:-1] + grid[1:])
    mids = 0.5 * (grid[:-1] + grid[1:])
    ref = np.zeros(grid.size, dtype=np.longdouble)
    for i in range(1, grid.size):
        ref[i] = kernel_values(spec, grid[i], mids[:i]).astype(np.longdouble) @ y[:i]
    got = table.sums(None, y)[1]
    assert np.max(np.abs(got - ref)) <= 2e-14 * np.max(np.abs(ref))


def test_exponential_caputo_starts_at_exact_zero():
    # on the exponential path node 0's sum is d_0 itself, so the trapezoid
    # end correction cancels it exactly
    for spec, a, b in ((cf_spec(0.7), 0.0, 1.0),
                       (cf_spec(0.7, interval=(1.0, 2.0), warp=log_warp()), 1.0, 2.0)):
        f = sampled(np.cos, a, b, n=200, deriv=lambda t: -np.sin(t))
        for scheme in ("product_trapezoid", "product_midpoint"):
            assert caputo_deriv_ns(spec, f, scheme=scheme).values.values[0] == 0.0


def test_exponential_table_sums_and_marches_without_kernel_rows(monkeypatch):
    # the exponential kernel's sums and march take the recurrence of its
    # exact rule (one rate lam, weights None for w = 1), so neither evaluates
    # a kernel row; row() still gives the kernel values
    calls = []
    real = operators._ml_kernel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(operators, "_ml_kernel", counted)
    grid = uniform_grid(0.0, 1.0, 64)
    table = _KernelTable(cf_spec(0.6), grid)
    rates, weights = table._rule
    assert table.path == "soe" and rates.tolist() == [0.6 / (1.0 - 0.6)] and weights is None
    table.sums(np.sin(grid), np.cos(grid[1:]))
    march = table.march()
    next(march)
    for du in np.diff(np.sin(grid))[:-1]:
        march.send(float(du))
    assert calls == []
    for i in (10, 40):
        assert np.array_equal(table.row(i), kernel_values(cf_spec(0.6), grid[i], grid[: i + 1]))


def test_exact_rule_marches_on_floats_as_its_vector_state(monkeypatch):
    # the exponential kernel's march keeps its one rate on Python floats; the
    # same rule given as unit weights runs the vector state of certified
    # rules, and both yield the same floats, over several blocks of nodes
    monkeypatch.setattr(operators, "_BLOCK", 100)
    n = 512
    table = _KernelTable(cf_spec(0.7, interval=(1.0, 3.0), warp=log_warp()),
                         uniform_grid(1.0, 3.0, n))
    rates, weights = table._rule
    assert table.path == "soe" and rates.size == 1 and weights is None
    psi = table.psih[::2]
    steps = np.random.default_rng(1).standard_normal(n).tolist()
    yields = []
    for march in (table.march(),
                  operators._soe_march(psi, rates, lambda nodes: lambda ks: np.ones(
                      (1, np.arange(n + 1)[nodes].size)))):
        yields.append([march.send(None)] + [march.send(du) for du in steps[:-1]])
    assert yields[0] == yields[1]


@pytest.mark.parametrize("m", [97, 257, 1025, 2048, 2113, 4097, 8193, 32769])
def test_lower_convolve_matches_long_double(m):
    # the Toeplitz path's truncated product (real FFTs against a spectrum
    # made once) against direct long-double sums, on a kernel-like row and
    # signed data; above 8193 points every 16th output and the last one are
    # checked, to keep the O(m^2) reference short
    rng = np.random.default_rng(m)
    a = np.exp(-np.linspace(0.0, 3.0, m)) * (1.0 + 0.1 * rng.random(m))
    b = rng.standard_normal(m)
    got = operators._lower_product(a)(b)
    assert got.shape == (m,)
    al, bl = a.astype(np.longdouble), b.astype(np.longdouble)
    outputs = np.arange(m) if m <= 8193 else np.append(np.arange(0, m, 16), m - 1)
    want = np.array([al[i::-1] @ bl[: i + 1] for i in outputs])
    assert np.max(np.abs(got[outputs] - want)) <= 1e-14 * np.max(np.abs(want))


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
    got = np.exp(-np.outer(s, rates)) @ weights(slice(None))(slice(None))
    for lam, column in zip(lams, got.T):
        want = _ml_neg_array(beta, -lam * s**beta)
        assert np.max(np.abs(column - want) / want) <= mlf._SOE_TOL


def test_soe_routing(monkeypatch):
    # tracked and log-warp sums take the sums of exponentials and evaluate no
    # kernel row; an order reaching beta = 0.99 needs more terms than nodes,
    # even with the slow terms folded, and gamma != beta has no such sum, so
    # both take one row per node
    calls = []
    real = operators._ml_kernel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(operators, "_ml_kernel", counted)
    n = 512
    for spec, rows in ((tracked_log_spec(), 0),
                       (cf_spec(0.4, interval=(1.0, 3.0), gamma=0.5, beta=0.5,
                                warp=log_warp()), 0),
                       (tracked_log_spec("0.69 + 0.1*t"), n + 1),
                       (cf_spec(0.4, interval=(1.0, 3.0), gamma=0.7, beta=0.6,
                                warp=log_warp()), n + 1)):
        grid = uniform_grid(*spec.interval, n)
        calls.clear()
        _KernelTable(spec, grid).sums(np.sin(grid), np.cos(grid[1:]))
        assert len(calls) == rows
    # so does a spot check that misses
    monkeypatch.setattr(mlf, "_SOE_TOL", 0.0)
    grid = uniform_grid(1.0, 3.0, n)
    calls.clear()
    _KernelTable(tracked_log_spec(), grid).sums(np.sin(grid), np.cos(grid[1:]))
    assert len(calls) == n + 1


def test_soe_rule_refused_when_its_reference_does_not_converge(monkeypatch):
    # the spot check's reference raising NonConvergent refuses the rule, so
    # a tracked order takes one row per node
    def refuse(beta, z, tol=1e-12):
        raise NonConvergent("reference refused")

    grid = uniform_grid(1.0, 3.0, 512)
    assert _KernelTable(tracked_log_spec(), grid).path == "soe"
    monkeypatch.setattr(mlf, "_ml_neg_array", refuse)
    assert _KernelTable(tracked_log_spec(), grid).path == "rows"


def test_singular_toeplitz_and_rows_agree():
    # the weakly singular Toeplitz table (constant order on psi = t) against
    # the same table summing one freshly built moment row per node, for the
    # exponents of the classical derivatives and of the integral at t and tau
    n = 96
    grid = uniform_grid(0.0, 1.0, n)
    x, y = np.sin(grid), np.cos(grid[1:])
    for name, mus in (("classical", np.full(n + 1, 0.4)),
                      ("integral_t", np.full(n + 1, 0.6)),
                      ("integral_tau", np.full(n, 0.6))):
        fast, slow = (_KernelTable(cf_spec(0.6), grid, mus) for _ in range(2))
        assert fast.path == "toeplitz", name
        slow.path = "rows"
        for a, b in zip(fast.sums(x, y), slow.sums(x, y)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


def _moment_reference(spec, f, exponent_at):
    """O(n^2) product-integration sums of the integral, from the exact panel
    moments in long double (_long_double_product_sums)."""
    grid = f.grid
    alphas = spec.order.values(grid)
    per_panel = exponent_at == "tau"
    mus = spec.order.values(0.5 * (grid[:-1] + grid[1:])) if per_panel else alphas
    trap, mid = _long_double_product_sums(spec.warp.values(grid), f.values, mus, per_panel,
                                          range(1, grid.size))
    gammas = np.array([math.gamma(a) for a in alphas[1:]])
    return np.r_[0.0, trap / gammas], np.r_[0.0, mid / gammas]


@pytest.mark.parametrize("case", ["toeplitz", "log_warp", "variable", "tau"])
def test_product_sums_match_direct_moments(case):
    # the table's moment rows (convolutions on the Toeplitz path) and the
    # sums of exponentials (the other cases) against a direct sum of the
    # exact panel moments
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


@pytest.mark.parametrize("nu", [0.0, 0.05, 0.3, 0.6, 0.95])
def test_power_rule_matches_powers(nu):
    # the trapezoid rule in l = ln r for s^(-nu), slow terms folded, against
    # the closed form over the psi gaps of an n = 2048 grid on [0, 1]
    s_min, span = 1.0 / 2048, 1.0
    rule = mlf._power_rule(np.array([nu]), s_min, span, 2048)
    assert rule is not None
    rates, weights = rule
    assert rates.size <= 80 and rates[0] == 0.0
    s = np.geomspace(s_min, span, 200)
    got = np.exp(-np.outer(s, rates)) @ weights([0])(slice(None))[:, 0]
    assert np.max(np.abs(got * s**nu - 1.0)) <= mlf._SOE_TOL


def _power_rule_bound(nu, span, K):
    """The relative error bound of _power_rule's docstring, terms (i)-(v), for
    one nu (so nu_min = nu) and a rule of K rates."""
    h = math.pi**2 / math.log(4.0 / mlf._SOE_EPS)
    y = np.linspace(1e-6, 0.5 * math.pi, 10**5, endpoint=False)
    truncation = float(np.min(2.0 * np.cos(y) ** -nu / np.expm1(2.0 * math.pi * y / h)))
    g = math.gamma(1.0 + nu)
    lump = (h * nu / -math.expm1(-h * nu) if nu > 0.0 else 1.0) / g
    left = lump * 0.5 * mlf._SOE_EPS
    x = 40.0 * math.exp(h)
    right = 2.0 * h * nu / g * x**nu * math.exp(-x)
    slow = math.exp(nu * h) / g
    fold = 2.0**-26 / math.factorial(14) * slow
    lebesgue = 1.0 + 2.0 / math.pi * math.log(14.0)
    rounding = (K + 3) * 0.5 * np.finfo(float).eps * (1.0 + truncation + lebesgue * slow)
    return truncation + left + right + fold + rounding


@pytest.mark.parametrize("n", [16, 2048, 131072])
@pytest.mark.parametrize("nu", [0.0, 0.01, 0.5, 0.99, 1.0 - 1e-12])
def test_power_rule_error_within_its_proven_bound(nu, n):
    # the docstring's bound holds at 10^4 log-spaced s in [1/n, 1], against
    # s^(-nu) in long double, and is itself within _SOE_TOL
    s_min, span = 1.0 / n, 1.0
    rates, weights = mlf._power_rule(np.array([nu]), s_min, span, 10**6)
    bound = _power_rule_bound(nu, span, rates.size)
    assert bound <= mlf._SOE_TOL
    s = np.geomspace(s_min, span, 10**4)
    got = np.exp(-np.outer(s, rates)) @ weights([0])(slice(None))[:, 0]
    err = np.abs(got.astype(np.longdouble) * s.astype(np.longdouble) ** nu - 1.0)
    assert float(np.max(err)) <= bound


@pytest.mark.parametrize("nus", [[-0.1], [1.0], [0.5, 1.0], [0.2, -1e-12, 0.4]])
def test_power_rule_refuses_exponents_off_its_domain(nus):
    assert mlf._power_rule(np.array(nus), 1.0 / 512, 1.0, 512) is None


def test_power_rule_bound_within_tolerance_up_to_its_rate_limit():
    # term (v) of the bound grows with K: within _SOE_TOL at _POWER_TERMS
    # rates for every nu, past it one rate later as nu -> 1
    for nu in (0.0, 0.01, 0.5, 0.9, 0.99, 1.0 - 1e-12):
        assert _power_rule_bound(nu, 1.0, mlf._POWER_TERMS) <= mlf._SOE_TOL, nu
    assert _power_rule_bound(1.0 - 1e-12, 1.0, mlf._POWER_TERMS + 1) > mlf._SOE_TOL


def test_steep_warp_past_the_power_rule_limit_takes_accurate_rows(monkeypatch):
    # psi = t^12 on [0.001, 1] at n = 1024 spans 3e32 node steps: its power
    # rule would need 301 rates, past _POWER_TERMS, so the integral takes
    # rows. Its first panels are up to 1e-36 wide at distances near 1, where
    # the closed-form first moments cancel (long double misses by 2e-3, so
    # the reference sums in 60-digit decimals); _moments' series keeps both
    # schemes at roundoff
    n = 1024
    spec = _order_spec("0.4 + 0.3*t", interval=(0.001, 1.0), warp=warp_from_expr("t^12"))
    grid = uniform_grid(0.001, 1.0, n)
    mus = spec.order.values(grid)
    table = _KernelTable(spec, grid, mus)
    assert table.path == "rows"
    with monkeypatch.context() as m:
        m.setattr(mlf, "_POWER_TERMS", 10**6)
        assert _KernelTable(spec, grid, mus)._rule[0].size == 301
    psi = table.psih[::2]
    data = np.sin(grid)
    got = operators._product_sums(spec, grid, data, mus)
    nodes = [64, 300, 700, 944, n]
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        want = _long_double_product_sums(psi, data, mus, False, nodes, decimal.Decimal)
    want = [w.astype(float) for w in want]
    for scheme, g, w in zip(SCHEMES, got, want):
        err = np.max(np.abs(g[nodes] - w)) / np.max(np.abs(w))
        assert err <= 1e-13, (scheme, float(err))


def _rows_built(monkeypatch):
    """A list that grows by one per table row the operators build."""
    rows = []
    real = operators._KernelTable._row

    def counted(self, i, stride):
        rows.append(i)
        return real(self, i, stride)

    monkeypatch.setattr(operators._KernelTable, "_row", counted)
    return rows


def _order_spec(order, interval=(0.0, 1.0), warp=None):
    return KernelSpec(gamma=1.0, beta=1.0,
                      order=OrderFunction.from_expr(order, interval=interval),
                      warp=warp or identity_warp(), norm=NormalizationFunction.one(),
                      interval=interval)


def test_power_soe_routing(monkeypatch):
    # variable orders (exponent at t and at tau) and a constant order on the
    # log warp take the sums of exponentials and build no moment row
    rows = _rows_built(monkeypatch)
    n = 256
    for spec in (_order_spec("0.3 + 0.4*t"),
                 _order_spec("0.4", interval=(1.0, 3.0), warp=log_warp())):
        a, b = spec.interval
        f = sampled(np.sin, a, b, n=n, deriv=np.cos)
        for op, kwargs in ((rl_integral_varorder, {"exponent_at": "t"}),
                           (rl_integral_varorder, {"exponent_at": "tau"}),
                           (caputo_deriv_classical, {}), (rl_deriv_classical, {})):
            op(spec, f, **kwargs)
            assert rows == [], (op.__name__, kwargs)
    # so does an order reaching 1 (mu = 1 is the rule's rate-0 term), while
    # mu > 1 has no such rule
    f = sampled(np.sin, n=n, deriv=np.cos)
    rl_integral_varorder(_order_spec("0.5 + 0.5*t"), f)
    assert rows == []
    spec = _order_spec("0.4", interval=(1.0, 3.0), warp=log_warp())
    grid = uniform_grid(1.0, 3.0, n)
    operators._product_sums(spec, grid, np.sin(grid), np.linspace(1.1, 1.3, n + 1))
    assert len(rows) == n + 1


def _long_double_product_sums(psi, data, mus, per_panel, nodes, number=np.longdouble):
    """Trapezoid and midpoint product sums at the given nodes, from the exact
    panel moments in long double, or in the scalar type number: over panel
    j, with U_j = psi_i - psi_j, m0 = (U_j^mu - U_j+1^mu) / mu and the first
    moment about the midpoint
    m1 = (U_j + U_j+1) m0 / 2 - (U_j^(mu+1) - U_j+1^(mu+1)) / (mu+1)."""
    psi, data, mus = (np.array([number(x) for x in np.asarray(v, dtype=float).tolist()])
                      for v in (psi, data, mus))
    g = (data[:-1] + data[1:]) / 2
    slope = np.diff(data) / np.diff(psi)
    trap, mid = [], []
    for i in nodes:
        U = psi[i] - psi[: i + 1]
        mu = mus[:i] if per_panel else mus[i]
        p0, p1 = U[:-1] ** mu, U[1:] ** mu
        m0 = (p0 - p1) / mu
        m1 = (U[:-1] + U[1:]) / 2 * m0 - (p0 * U[:-1] - p1 * U[1:]) / (mu + 1)
        mid.append(np.sum(g[:i] * m0))
        trap.append(mid[-1] + np.sum(slope[:i] * m1))
    return np.array(trap), np.array(mid)


@pytest.mark.parametrize("case", ["variable", "tau", "log_warp", "reaching_one"])
def test_soe_product_sums_match_long_double_moments(case, monkeypatch):
    # the sums of exponentials at n = 2048 (rows measure 1.5e-15 to 1.1e-14
    # here) for the data and exponents of the integral and of both classical
    # derivatives, in both schemes, against direct long-double moments at
    # every node up to 32 and every 16th after it
    rows = _rows_built(monkeypatch)
    n = 2048
    if case == "log_warp":
        spec = _order_spec("0.4", interval=(1.0, 3.0), warp=log_warp())
    elif case == "reaching_one":
        spec = _order_spec("0.5 + 0.5*t")
    else:
        spec = _order_spec("0.3 + 0.4*t")
    a, b = spec.interval
    grid = uniform_grid(a, b, n)
    psi = spec.warp.values(grid)
    alphas = spec.order.values(grid)
    nodes = np.unique(np.r_[1:33, 32:n:16, n])
    f = np.sin(grid)
    inputs = {"caputo_classical": (np.cos(grid) / spec.warp.deriv_values(grid), 1.0 - alphas),
              "rl_classical": (f, 1.0 - alphas)}
    if case == "tau":
        inputs = {"integral": (f, spec.order.values(0.5 * (grid[:-1] + grid[1:])))}
    elif case == "reaching_one":
        # the integral's exponent reaches mu = 1 at t = 1
        inputs = {"integral": (f, alphas)}
    else:
        inputs["integral"] = (f, alphas)
    for name, (data, mus) in inputs.items():
        got = operators._product_sums(spec, grid, data, mus)
        want = _long_double_product_sums(psi, data, mus, case == "tau", nodes)
        for scheme, g, w in zip(SCHEMES, got, want):
            err = np.max(np.abs(g[nodes] - w)) / np.max(np.abs(w))
            assert err <= 1e-13, (name, scheme, float(err))
    assert rows == []


@pytest.mark.parametrize("kernel", [1.0, 0.5], ids=["exp", "toeplitz"])
@pytest.mark.parametrize("order", [
    OrderFunction.from_callable(lambda t: 0.6, 0.6, 0.6),
    OrderFunction.from_expr("0.6 + 0*t", interval=(0.0, 1.0)),
], ids=["callable", "expr"])
def test_constant_valued_orders_match_the_constant_order(order, kernel):
    # the tables route on the sampled orders, so an order that is 0.6 at
    # every node takes the constant order's path, whatever its form, and
    # gives the same bits
    def spec(o):
        return KernelSpec(gamma=kernel, beta=kernel, order=o, warp=identity_warp(),
                          norm=NormalizationFunction.one(), interval=(0.0, 1.0))

    got, want = spec(order), spec(OrderFunction.constant(0.6))
    f = sampled(np.sin, n=128, deriv=np.cos)
    for op, kwargs in ((aux_integral_1, {}), (aux_integral_2, {}), (rl_deriv_ns, {}),
                       (caputo_deriv_ns, {}), (rl_deriv_classical, {}),
                       (caputo_deriv_classical, {}), (rl_integral_varorder, {}),
                       (rl_integral_varorder, {"exponent_at": "tau"})):
        for scheme in SCHEMES:
            assert np.array_equal(op(got, f, scheme=scheme, **kwargs).values.values,
                                  op(want, f, scheme=scheme, **kwargs).values.values), (
                op.__name__, kwargs, scheme)
    solutions = [solve_fde(FdeProblem(spec=s, rhs=lambda t, u: -u, initial=1.0,
                                      grid_n=128)).solution.values for s in (got, want)]
    assert np.array_equal(*solutions)


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


# --- stacks of functions --------------------------------------------------------


ALL_OPERATORS = (aux_integral_1, aux_integral_2, rl_deriv_ns, caputo_deriv_ns,
                 rl_integral_varorder, rl_deriv_classical, caputo_deriv_classical)


def _stack_case(path):
    """(spec, n, paths of the bounded and the weakly singular tables)."""
    log = dict(interval=(1.0, 3.0), warp=log_warp())
    if path == "exp":
        # soe on the exponential kernel's exact rule
        return cf_spec(0.6), 96, ("soe", "toeplitz")
    if path == "exp_log":
        return cf_spec(0.6, **log), 96, ("soe", "soe")
    if path == "toeplitz":
        return cf_spec(0.6, gamma=0.5, beta=0.5), 96, ("toeplitz", "toeplitz")
    if path == "soe":
        return cf_spec(0.4, gamma=0.5, beta=0.5, **log), 512, ("soe", "soe")
    if path == "rows":
        return cf_spec(0.4, gamma=0.7, beta=0.6, **log), 96, ("rows", "soe")
    if path == "interpolated":
        # Toeplitz rows interpolated in the order on psi = t, for a tracked
        # gamma = beta and for the exponents of the weakly singular family
        return tracked_spec(), 512, ("toeplitz", "toeplitz")
    # the power SOE of a variable order on the log warp (tracked gamma =
    # beta for the bounded kernel)
    return tracked_log_spec(), 512, ("soe", "soe")


@pytest.mark.parametrize("block", [None, 512])
@pytest.mark.parametrize("path", ["exp", "exp_log", "toeplitz", "soe", "rows", "power_soe",
                                  "interpolated"])
def test_stacked_rows_equal_single_calls_bit_for_bit(path, block, monkeypatch):
    # every operator on a stack of functions gives, in each row, exactly what
    # it gives that function alone; a small _BLOCK cuts the stack into
    # several chunks of _exp_sums and its rates into more blocks. Stacked or
    # alone, cross_scheme is |trapezoid - midpoint| of the two schemes'
    # values, bit for bit, though one of them is summed only when it is read
    if block is not None:
        monkeypatch.setattr(operators, "_BLOCK", block)
    spec, n, (bounded, singular) = _stack_case(path)
    a, b = spec.interval
    grid = uniform_grid(a, b, n)
    table = _KernelTable(spec, grid)
    assert table.path == bounded
    if path == "exp":
        assert table._rule[0].size == 1 and table._rule[1] is None
    variable = path in ("power_soe", "interpolated")
    mus = 1.0 - spec.order.values(grid) if variable else np.full(n + 1, 0.5)
    assert _KernelTable(spec, grid, mus).path == singular
    if path == "interpolated":
        assert table._lagrange.shape[0] > 1
    fns = ((np.sin, np.cos), (np.exp, np.exp), (lambda t: t * t, lambda t: 2.0 * t),
           (lambda t: np.cos(3.0 * t), lambda t: -3.0 * np.sin(3.0 * t)),
           (lambda t: 1e3 * np.sin(t + 1.0), lambda t: 1e3 * np.cos(t + 1.0)))
    singles = [sampled(fn, a, b, n, deriv=deriv) for fn, deriv in fns]
    stack = GridFunction(grid=grid, values=np.array([f.values for f in singles]),
                         derivs=np.array([f.derivs for f in singles]))

    def both(f):
        results = [op(spec, f, scheme=scheme) for scheme in SCHEMES]
        gap = np.abs(results[0].values.values - results[1].values.values)
        for result in results:
            assert np.array_equal(result.cross_scheme, gap), (op, result.scheme)
        return results

    for op in ALL_OPERATORS:
        whole = both(stack)
        for k, f in enumerate(singles):
            for stacked, alone in zip(whole, both(f)):
                assert stacked.values.values.shape == stack.values.shape
                assert np.array_equal(stacked.values.values[k], alone.values.values), (op, k)
                assert np.array_equal(stacked.cross_scheme[k], alone.cross_scheme), (op, k)


@pytest.mark.parametrize("path", ["exp", "toeplitz", "soe", "power_soe", "interpolated"])
def test_second_scheme_summed_only_when_the_estimate_is_read(path, monkeypatch):
    # a bounded-kernel call sums its own scheme's column alone, the node
    # column of _exp_sums (on the n + 1 nodes) or of the Toeplitz products
    # for the trapezoid rule and the midpoint column (_exp_sums on the
    # 2n + 1 points of the half-step grid) for the midpoint rule; the first
    # read of the estimate sums the other column, and later reads sum nothing
    spec, n, _ = _stack_case(path)
    summed = []
    real_sums, real_product = operators._exp_sums, operators._lower_product

    def exp_sums(psi, rates, weights, x, factors=None):
        summed.append("mid" if psi.size == 2 * n + 1 else "node")
        return real_sums(psi, rates, weights, x, factors)

    def lower_product(a):
        product = real_product(a)

        def lower(b):
            summed.append("node" if b.shape[-1] == n + 1 else "mid")
            return product(b)

        return lower

    monkeypatch.setattr(operators, "_exp_sums", exp_sums)
    monkeypatch.setattr(operators, "_lower_product", lower_product)
    a, b = spec.interval
    f = sampled(np.sin, a, b, n, deriv=np.cos)
    for scheme, own, other in zip(SCHEMES, ("node", "mid"), ("mid", "node")):
        summed.clear()
        result = caputo_deriv_ns(spec, f, scheme=scheme)
        assert summed == [own], scheme
        assert result.quad_error_estimate == np.max(result.cross_scheme)
        assert summed == [own, other], scheme


def test_rows_make_both_schemes_in_one_pass(monkeypatch):
    # on "rows" the first sum builds each kernel row once for both schemes,
    # and reading the estimate builds none again
    spec, n, _ = _stack_case("rows")
    built = []
    real_row = _KernelTable._row

    def row(self, i, stride):
        built.append(i)
        return real_row(self, i, stride)

    monkeypatch.setattr(_KernelTable, "_row", row)
    a, b = spec.interval
    f = sampled(np.sin, a, b, n, deriv=np.cos)
    for scheme in SCHEMES:
        built.clear()
        result = caputo_deriv_ns(spec, f, scheme=scheme)
        assert built == list(range(n + 1)), scheme
        assert result.quad_error_estimate == np.max(result.cross_scheme)
        assert built == list(range(n + 1)), scheme


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tracked_rule_folded_once_per_table(scheme, monkeypatch):
    # the rule's weights at nodes 1..n are folded on the table's first sum;
    # the deferred second scheme reads the same fold
    folds = []
    real_rule = operators._soe_rule

    def soe_rule(*args):
        rates, weights = real_rule(*args)

        def counted(cols):
            folds.append(cols)
            return weights(cols)

        return rates, counted

    monkeypatch.setattr(operators, "_soe_rule", soe_rule)
    spec = tracked_log_spec()
    f = sampled(np.sin, 1.0, 3.0, n=256, deriv=np.cos)
    assert _KernelTable(spec, f.grid).path == "soe"
    result = caputo_deriv_ns(spec, f, scheme=scheme)
    assert folds == [slice(1, None)]
    assert result.quad_error_estimate > 0.0
    assert folds == [slice(1, None)]


def test_stacked_rows_equal_single_calls_on_rows_after_a_refused_rule(monkeypatch):
    # a spot check that misses sends the kernel family to rows, and a refused
    # power rule the weakly singular one; stacked rows still match single calls
    monkeypatch.setattr(mlf, "_SOE_TOL", 0.0)
    monkeypatch.setattr(operators, "_power_rule", lambda *args: None)
    spec = tracked_log_spec()
    grid = uniform_grid(1.0, 3.0, 64)
    assert _KernelTable(spec, grid).path == "rows"
    assert _KernelTable(spec, grid, 1.0 - spec.order.values(grid)).path == "rows"
    singles = [sampled(fn, 1.0, 3.0, n=64) for fn in (np.sin, np.exp, np.cos)]
    stack = GridFunction(grid=grid, values=np.array([f.values for f in singles]))
    for op in ALL_OPERATORS:
        whole = op(spec, stack).values.values
        for k, f in enumerate(singles):
            assert np.array_equal(whole[k], op(spec, f).values.values), (op, k)


def test_stacked_table_sums_match_row_by_row():
    # _KernelTable.sums takes x (m, n + 1) and y (m, n), a zero midpoint
    # row included
    spec = cf_spec(0.4, interval=(1.0, 3.0), gamma=0.5, beta=0.5, warp=log_warp())
    grid = uniform_grid(1.0, 3.0, 512)
    table = _KernelTable(spec, grid)
    x = np.array([np.sin(grid), np.cos(3.0 * grid), grid])
    y = np.array([np.cos(grid[1:]), np.zeros(512), np.sqrt(grid[1:])])
    nodes, mids = table.sums(x, y)
    for k in range(3):
        one_nodes, one_mids = table.sums(x[k], y[k])
        assert np.array_equal(nodes[k], one_nodes)
        assert np.array_equal(mids[k], one_mids)


def test_operator_result_rejects_an_unknown_scheme():
    f = sampled(np.sin, n=16, deriv=np.cos)
    with pytest.raises(InvalidParam, match="unknown scheme 'simpson'"):
        operators.OperatorResult(values=f, scheme="simpson", other=lambda: f.values)


def test_nan_other_scheme_gives_no_estimate():
    f = sampled(np.sin, n=16, deriv=np.cos)
    result = operators.OperatorResult(values=f, scheme=SCHEMES[0],
                                      other=lambda: np.full(f.values.shape, np.nan))
    with pytest.raises(InvalidParam, match="quad_error_estimate must be >= 0"):
        result.quad_error_estimate


@pytest.mark.parametrize("name, kwargs, message", [
    ("atangana", {"gamma": 0.5}, "atangana fixes gamma = beta = alpha"),
    ("atangana", {"beta": 0.5}, "atangana fixes gamma = beta = alpha"),
    ("yang_machado", {"alpha": "0.5 + 0.1*t"}, "yang_machado requires a constant order"),
    ("caputo_fabrizio", {"alpha": "0.5 + 0.1*t"}, "caputo_fabrizio requires a constant order"),
    ("yang_machado", {"gamma": 0.5}, "yang_machado fixes gamma = beta = 1"),
    ("caputo_fabrizio", {"beta": 0.5}, "caputo_fabrizio fixes gamma = beta = 1"),
    ("unit_norm_exp", {"gamma": 0.5}, "unit_norm_exp fixes gamma = beta = 1"),
    ("unit_norm_exp", {"beta": 0.5}, "unit_norm_exp fixes gamma = beta = 1"),
])
def test_special_case_refusals(name, kwargs, message):
    kwargs = {"alpha": 0.5, **kwargs}
    if isinstance(kwargs["alpha"], str):
        kwargs["alpha"] = OrderFunction.from_expr(kwargs["alpha"], interval=(0.0, 1.0))
    with pytest.raises(InvalidParam, match=f"^{message}$"):
        make_special_case(name, **kwargs)


# every named kernel with its defaults (alpha 0.5; log_warp needs a > 0):
# gamma, beta, the warp label and the normalization label
@pytest.mark.parametrize("name, kwargs, gamma, beta, warp", [
    ("variable_ml", {}, None, None, "t"),
    ("atangana", {}, 0.5, 0.5, "t"),
    ("yang_machado", {}, 1.0, 1.0, "t"),
    ("caputo_fabrizio", {}, 1.0, 1.0, "t"),
    ("unit_norm_exp", {}, 1.0, 1.0, "t"),
    ("log_warp", {"interval": (1.0, 2.0)}, 1.0, 1.0, "ln(t)"),
    ("sin_warp", {}, 1.0, 1.0, "sin(t)"),
    ("log_warp", {"interval": (1.0, 2.0), "gamma": 0.7, "beta": 0.6}, 0.7, 0.6, "ln(t)"),
    ("sin_warp", {"gamma": 0.7, "beta": 0.6}, 0.7, 0.6, "sin(t)"),
])
def test_named_kernel_specs(name, kwargs, gamma, beta, warp):
    spec = make_special_case(name, 0.5, **kwargs)
    assert (spec.gamma, spec.beta) == (gamma, beta)
    assert spec.warp.label == warp
    assert spec.norm.label == "1"
    assert spec.interval == kwargs.get("interval", (0.0, 1.0))
    assert spec.order.is_constant and spec.alpha_at(spec.interval[0]) == 0.5


_VARIABLE = OrderFunction.from_expr("0.5 + 0.1*t", interval=(0.0, 1.0))


@pytest.mark.parametrize("name, kwargs, message", [
    ("variable_ml", {"gamma": 1.0}, "variable_ml fixes gamma and beta to the order itself"),
    ("variable_ml", {"beta": 0.5}, "variable_ml fixes gamma and beta to the order itself"),
    ("unit_norm_exp", {"M": NormalizationFunction.one()},
     "unit_norm_exp fixes M to 1; do not pass M"),
    ("log_warp", {"interval": (0.0, 1.0)}, "log_warp requires a > 0"),
    ("grunwald", {}, "unknown special case 'grunwald'; choose from ('variable_ml', "
     "'atangana', 'yang_machado', 'caputo_fabrizio', 'unit_norm_exp', 'log_warp', "
     "'sin_warp')"),
    # precedence: the order before gamma and beta, M before gamma and beta
    ("atangana", {"alpha": _VARIABLE, "gamma": 0.5}, "atangana requires a constant order"),
    ("caputo_fabrizio", {"alpha": _VARIABLE, "beta": 0.5},
     "caputo_fabrizio requires a constant order"),
    ("unit_norm_exp", {"M": NormalizationFunction.one(), "gamma": 0.5},
     "unit_norm_exp fixes M to 1; do not pass M"),
    ("log_warp", {"interval": (0.0, 1.0), "gamma": 0.7}, "log_warp requires a > 0"),
])
def test_named_kernel_refusals_exactly(name, kwargs, message):
    with pytest.raises(InvalidParam) as exc:
        make_special_case(name, **{"alpha": 0.5, **kwargs})
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["yang_machado", "caputo_fabrizio", "unit_norm_exp"])
def test_kernels_fixed_at_one_accept_a_passed_one(name):
    spec = make_special_case(name, 0.5, gamma=1.0, beta=1)
    assert (spec.gamma, spec.beta) == (1.0, 1.0)


# RL-type derivatives of f = t against closed forms at 2e-7 relative: tight
# enough that a 1e-6 relative error in a prefactor or in the finite
# difference that takes the derivative of the history integral shows
@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_rl_ns_of_linear_exponential_kernel(alpha):
    # D_rl t = (1/alpha) (1 - exp(-alpha t / (1 - alpha))) for M = 1, gamma = beta = 1
    f = sampled(IDENT, n=4096, deriv=ONE)
    out = rl_deriv_ns(cf_spec(alpha), f).values.values
    t = f.grid[1:]
    expected = (1.0 - np.exp(-alpha * t / (1.0 - alpha))) / alpha
    assert np.max(np.abs(out[1:] - expected) / expected) < 2e-7


@pytest.mark.parametrize("alpha", [0.3, 0.6])
def test_rl_classical_of_linear(alpha):
    # D^alpha_RL t = t^(1 - alpha) / Gamma(2 - alpha), away from the left end
    f = sampled(IDENT, n=2048, deriv=ONE)
    out = rl_deriv_classical(cf_spec(alpha), f).values.values
    keep = f.grid >= 0.5
    expected = f.grid[keep] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    assert np.max(np.abs(out[keep] - expected) / expected) < 2e-7


# --- Toeplitz rows interpolated in the exponent ----------------------------------

TRACKED_ORDERS = ["0.5 + 0.2*t", "0.3 + 0.65*t", "0.75 + 0.24*t"]


def _interpolated(table):
    """The number of base rows of a Toeplitz table."""
    assert table.path == "toeplitz"
    return table._nodes.shape[0]


_NEW_POINTS = (9, 8, 16, 32)  # the points each nested Chebyshev-Lobatto set adds


def _counted_kernel_calls(patch):
    """(rows, values per row) of every _ml_kernel call of the operators."""
    calls = []
    real = operators._ml_kernel

    def counted(spec, alpha, dpsi):
        calls.append((np.size(alpha), dpsi.size))
        return real(spec, alpha, dpsi)

    patch.setattr(operators, "_ml_kernel", counted)
    return calls


def test_interpolated_rows_routing(monkeypatch):
    # a constant order keeps one base row; a tracked order reaching 0.99,
    # a tracked beta alone and the integral's exponents at tau take rows at
    # Chebyshev points of the exponent, and build no SOE rule; with every
    # set of points refused, past 65 of them, the tables fall back to the
    # SOE rule or to rows
    n = 512
    grid = uniform_grid(0.0, 1.0, n)
    table = _KernelTable(cf_spec(0.6, gamma=0.5, beta=0.5), grid)
    assert _interpolated(table) == 1 and table._lagrange is None
    beta_alone = KernelSpec(gamma=0.7, beta=None, order=tracked_spec().order,
                            warp=identity_warp(), norm=NormalizationFunction.one(),
                            interval=(0.0, 1.0))
    order = tracked_spec("0.4 + 0.3*t").order
    panels = order.values(0.5 * (grid[:-1] + grid[1:]))
    with monkeypatch.context() as patch:
        for rule in ("_soe_rule", "_power_rule"):
            patch.setattr(operators, rule, lambda *args: pytest.fail("rule built"))
        assert _interpolated(_KernelTable(tracked_spec("0.5 + 0.2*t"), grid)) > 1
        assert _interpolated(_KernelTable(tracked_spec("0.75 + 0.24*t"), grid)) in (9, 17, 33, 65)
        assert _interpolated(_KernelTable(beta_alone, grid)) > 1
        table = _KernelTable(cf_spec(0.6), grid, panels)
        assert _interpolated(table) > 1
        assert table._lagrange.shape == (table._nodes.shape[0], n + 1)

    calls = _counted_kernel_calls(monkeypatch)
    monkeypatch.setattr(operators, "_SOE_TOL", 0.0)
    assert _KernelTable(tracked_spec("0.75 + 0.24*t"), grid).path == "rows"
    # 65 base rows of n + 1 values, one call per set of points, which also
    # takes the set's two check rows
    assert calls == [(k + 2, n + 1) for k in _NEW_POINTS]
    assert _KernelTable(tracked_spec("0.5 + 0.2*t"), grid).path == "soe"
    assert _KernelTable(beta_alone, grid).path == "rows"
    assert _KernelTable(cf_spec(0.6), grid, panels).path == "soe"


def test_kernel_midpoint_half_built_only_when_read(monkeypatch):
    # a Toeplitz kernel table evaluates the node halves of its base rows
    # (and of the interpolation's check rows, two per set of points, in the
    # set's one call) when it is built, and their midpoint halves in one
    # call on the first midpoint sum only
    n = 256
    f = sampled(np.sin, n=n, deriv=np.cos)
    for spec in (cf_spec(0.6, gamma=0.5, beta=0.5), tracked_spec()):
        m = _interpolated(_KernelTable(spec, f.grid))
        with monkeypatch.context() as patch:
            calls = _counted_kernel_calls(patch)
            result = caputo_deriv_ns(spec, f)
            sets = _NEW_POINTS[: _DEGREES.index(m - 1) + 1] if m > 1 else ()
            assert calls == ([(k + 2, n + 1) for k in sets] if sets else [(1, n + 1)])
            assert sum(sets) == (m if m > 1 else 0)
            calls.clear()
            assert result.quad_error_estimate > 0.0
            assert calls == [(m, n)]


def _rows_cached(monkeypatch):
    """Force every table of the operators onto rows, as when no rule or
    interpolation is accepted, and build each half-step row once: node
    rows are its even entries."""
    monkeypatch.setattr(operators, "_chebyshev_rows", lambda *args: None)
    monkeypatch.setattr(operators, "_soe_rule", lambda *args: None)
    monkeypatch.setattr(operators, "_power_rule", lambda *args: None)
    cache = {}
    real = _KernelTable._row

    def row(self, i, stride):
        key = (self.n, i, self._per_panel, None if self._kernel else self._mus.tobytes())
        if key not in cache:
            cache[key] = real(self, i, 1)
        return cache[key][::stride]

    monkeypatch.setattr(_KernelTable, "_row", row)


@pytest.mark.parametrize("n", [512, 2048])
@pytest.mark.parametrize("order", TRACKED_ORDERS)
def test_interpolated_rows_match_rows(order, n, monkeypatch):
    # a tracked order on psi = t: caputo_ns, the integral rl_ns
    # differentiates (aux_integral_1), both schemes, and the solve on
    # interpolated Toeplitz rows against the same on one kernel row per
    # node, within 1e-12 of the largest value of the rows. rl_ns takes d/dt
    # of that integral by a stencil of gain 4 / h, which also carries the
    # rows' own rounding: the SOE sums of 0.5..0.7 are 7.6e-12 from rows at
    # n = 2048, and these rows 8.4e-12. So rl_ns is held to 2e-11, while the
    # integrals it differentiates agree within 2e-14.
    spec = tracked_spec(order)
    f = sampled(lambda t: np.sin(3.0 * t), n=n, deriv=lambda t: 3.0 * np.cos(3.0 * t))
    problem = FdeProblem(spec=spec, rhs=lambda t, u: -u ** 3 - u + math.sin(math.pi * t),
                         initial=1.0, grid_n=n)
    ops = (caputo_deriv_ns, aux_integral_1, rl_deriv_ns)

    def outputs():
        values = [op(spec, f, scheme=scheme).values.values for op in ops for scheme in SCHEMES]
        return values + [solve_fde(problem).solution.values]

    assert _interpolated(_KernelTable(spec, f.grid)) > 1
    fast = outputs()
    _rows_cached(monkeypatch)
    assert _KernelTable(spec, f.grid).path == "rows"
    bounds = [1e-12] * 4 + [2e-11] * 2 + [1e-12]
    for k, (got, want, bound) in enumerate(zip(fast, outputs(), bounds)):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), k


@pytest.mark.parametrize("n", [512, 2048])
def test_interpolated_moments_match_rows(n, monkeypatch):
    # the variable-order integral (exponent at t and at tau) and both
    # classical derivatives on interpolated Toeplitz moment rows against
    # one moment row per node, within 1e-12 of the largest value; the
    # classical RL derivative, d/dt of its integral, within 2e-11
    # (test_interpolated_rows_match_rows; 1.3e-12 at n = 2048)
    spec = _order_spec("0.45 + 0.2*t")
    f = sampled(np.sin, n=n, deriv=np.cos)
    calls = [(rl_integral_varorder, {"exponent_at": "t"}, 1e-12),
             (rl_integral_varorder, {"exponent_at": "tau"}, 1e-12),
             (caputo_deriv_classical, {}, 1e-12), (rl_deriv_classical, {}, 2e-11)]

    def outputs():
        return [op(spec, f, scheme=scheme, **kwargs).values.values
                for op, kwargs, _ in calls for scheme in SCHEMES]

    grid = f.grid
    alphas = spec.order.values(grid)
    for mus in (alphas, spec.order.values(0.5 * (grid[:-1] + grid[1:])), 1.0 - alphas):
        assert _interpolated(_KernelTable(spec, grid, mus)) > 1
    fast = outputs()
    _rows_cached(monkeypatch)
    bounds = [bound for *_, bound in calls for _ in SCHEMES]
    for k, (got, want, bound) in enumerate(zip(fast, outputs(), bounds)):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), k


@pytest.mark.parametrize("n", [2048, 8192])
@pytest.mark.parametrize("exponent_at", ["t", "tau"])
def test_interpolated_integral_matches_the_power_rule(exponent_at, n, monkeypatch):
    # the bench's variable-order integral: interpolated rows against the
    # sums of exponentials of the power rule, within 1e-13 of the largest
    # value, in both schemes
    spec = _order_spec("0.4 + 0.3*t")
    f = sampled(lambda t: 1.0 - 0.5 * t + 0.3 * t ** 3, n=n)
    got = [rl_integral_varorder(spec, f, exponent_at=exponent_at, scheme=scheme).values.values
           for scheme in SCHEMES]
    monkeypatch.setattr(operators, "_chebyshev_rows", lambda *args: None)
    grid = f.grid
    mus = spec.order.values(0.5 * (grid[:-1] + grid[1:])) if exponent_at == "tau" else None
    assert _KernelTable(spec, grid, spec.order.values(grid) if mus is None else mus).path == "soe"
    for scheme, g in zip(SCHEMES, got):
        want = rl_integral_varorder(spec, f, exponent_at=exponent_at, scheme=scheme).values.values
        assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want)), scheme
