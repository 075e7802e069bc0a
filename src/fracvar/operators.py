"""The six nonlocal operators, on uniform grids.

Two numerical backbones cover all of them:

* The bounded-kernel family (aux_integral_1/2 and the derivatives built on
  them) integrates H(t, tau) against the data with composite trapezoid
  weights; a midpoint variant exists for cross-checking, and the reported
  quad_error_estimate is the sup difference between the two. Both sums, and
  the solver's residual, come from one half-step kernel table (nodes and
  panel midpoints): a single 1-d Mittag-Leffler table and two convolutions
  when the order is constant and psi is uniformly spaced (Toeplitz
  structure; tracked gamma/beta are then constant too), else one kernel
  evaluation per output node.

* The weakly singular family (the variable-order integral and the classical
  derivatives) substitutes x = psi(tau) and integrates the power singularity
  exactly against piecewise-linear data (product integration), so the
  endpoint singularity costs no accuracy.

Outer d/dt steps use second-order central differences with one-sided stencils
at the interval ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGrid, InvalidParam, QuadratureFailure
from .grids import GridFunction, fd_deriv
from .kernel import (
    KernelSpec,
    NormalizationFunction,
    OrderFunction,
    WarpFunction,
    _alphas_checked,
    _ml_kernel,
    _prefactors,
    identity_warp,
    log_warp,
    sin_warp,
)

SCHEMES = ("product_trapezoid", "product_midpoint")


@dataclass(frozen=True)
class OperatorResult:
    """Operator values under one scheme, with the cross-scheme estimate.

    cross_scheme holds |trapezoid - midpoint| per node; quad_error_estimate
    is its maximum.
    """

    values: GridFunction
    cross_scheme: np.ndarray
    scheme: str

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidParam(f"unknown scheme {self.scheme!r}")
        if not (self.quad_error_estimate >= 0.0):
            raise InvalidParam("quad_error_estimate must be >= 0")

    @property
    def quad_error_estimate(self) -> float:
        return float(np.max(self.cross_scheme))


def _check_inputs(spec: KernelSpec, f: GridFunction, scheme: str) -> None:
    if scheme not in SCHEMES:
        raise InvalidParam(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    a, b = spec.interval
    slop = 1e-12 * max(1.0, b - a)
    if abs(f.a - a) > slop or abs(f.b - b) > slop:
        raise InvalidParam(
            f"grid interval [{f.a}, {f.b}] does not match spec interval [{a}, {b}]"
        )


class _KernelTable:
    """psi on the half-step grid (entry 2j is the node tau_j, entry 2j+1 the
    midpoint m_j of panel j), kernel rows on it, and the history sums."""

    def __init__(self, spec: KernelSpec, grid: np.ndarray):
        self.spec = spec
        self.half = np.empty(2 * grid.size - 1)
        self.half[::2] = grid
        self.half[1::2] = 0.5 * (grid[:-1] + grid[1:])
        self.psih = spec.warp.values(self.half)
        self.alphas = _alphas_checked(spec, grid)
        self._base = None
        steps = np.diff(self.psih)
        uniform = steps.size > 0 and np.max(np.abs(steps - steps[0])) <= 1e-12 * max(
            1.0, abs(steps[0])
        )
        if uniform and spec.order.is_constant:
            half_step = 0.5 * float(self.psih[2] - self.psih[0])
            k = np.arange(self.half.size, dtype=float)
            self._base = _ml_kernel(spec, float(self.alphas[0]), k * half_step)

    def _row(self, i: int, stride: int) -> np.ndarray:
        """H(t_i, .) at half-grid points 0, stride, ..., 2i."""
        if self._base is not None:
            return self._base[2 * i :: -stride]
        dpsi = np.maximum(self.psih[2 * i] - self.psih[: 2 * i + 1 : stride], 0.0)
        return _ml_kernel(self.spec, float(self.alphas[i]), dpsi)

    def row(self, i: int) -> np.ndarray:
        """H(t_i, tau_j) for j = 0..i."""
        return self._row(i, 2)

    def sums(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_{j<=i} H(t_i, tau_j) x_j and sum_{j<i} H(t_i, m_j) y_j, per node i."""
        n = self.alphas.size - 1
        mids = np.zeros(n + 1)
        if self._base is not None:
            mids[1:] = np.convolve(self._base[1::2], y)[:n]
            return np.convolve(self._base[::2], x)[: n + 1], mids
        nodes = np.zeros(n + 1)
        data = np.zeros((2, 2 * n + 1))
        data[0, ::2] = x
        data[1, 1::2] = y
        for i in range(n + 1):
            nodes[i], mids[i] = data[:, : 2 * i + 1] @ self._row(i, 1)
        return nodes, mids


def _trap_mid(table: _KernelTable, x: np.ndarray, y: np.ndarray,
              h: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite trapezoid sums of H * x and midpoint sums of H * y."""
    nodes, mids = table.sums(np.concatenate(([0.5 * x[0]], x[1:])), y)
    # H(t_i, t_i) = 1: the weight-1/2 end at tau_i takes off x_i / 2
    return h * (nodes - 0.5 * x), h * mids


def _finish(grid: np.ndarray, trap: np.ndarray, mid: np.ndarray,
            scheme: str, error_budget: float | None, label: str) -> OperatorResult:
    cross = np.abs(trap - mid)
    estimate = float(np.max(cross))
    if error_budget is not None and estimate > error_budget:
        raise QuadratureFailure(
            f"cross-scheme estimate {estimate:.3e} exceeds budget {error_budget:.3e}"
        )
    chosen = trap if scheme == "product_trapezoid" else mid
    out = GridFunction(grid=grid, values=chosen, label=label)
    return OperatorResult(values=out, cross_scheme=cross, scheme=scheme)


def _aux1_both(spec: KernelSpec, f: GridFunction,
               table: _KernelTable) -> tuple[np.ndarray, np.ndarray]:
    dpsih = spec.warp.deriv_values(table.half)
    f_mid = 0.5 * (f.values[:-1] + f.values[1:])
    return _trap_mid(table, dpsih[::2] * f.values, dpsih[1::2] * f_mid, f.h)


def _aux2_both(spec: KernelSpec, f: GridFunction,
               table: _KernelTable) -> tuple[np.ndarray, np.ndarray]:
    fp = f.deriv_values()
    fp_mid = 0.5 * (fp[:-1] + fp[1:])
    return _trap_mid(table, fp, fp_mid, f.h)


def aux_integral_1(spec: KernelSpec, f: GridFunction, *,
                   scheme: str = "product_trapezoid",
                   error_budget: float | None = None) -> OperatorResult:
    """Integral of psi'(tau) H(t, tau) f(tau) from a to t, per node."""
    _check_inputs(spec, f, scheme)
    trap, mid = _aux1_both(spec, f, _KernelTable(spec, f.grid))
    return _finish(f.grid, trap, mid, scheme, error_budget, f"I1[{f.label}]")


def aux_integral_2(spec: KernelSpec, f: GridFunction, *,
                   scheme: str = "product_trapezoid",
                   error_budget: float | None = None) -> OperatorResult:
    """Integral of H(t, tau) f'(tau) from a to t, per node."""
    _check_inputs(spec, f, scheme)
    trap, mid = _aux2_both(spec, f, _KernelTable(spec, f.grid))
    return _finish(f.grid, trap, mid, scheme, error_budget, f"I2[{f.label}]")


def rl_deriv_ns(spec: KernelSpec, f: GridFunction, *,
                scheme: str = "product_trapezoid",
                error_budget: float | None = None) -> OperatorResult:
    """Bounded-kernel RL-type derivative: prefactor/psi' * d/dt of aux_integral_1."""
    _check_inputs(spec, f, scheme)
    table = _KernelTable(spec, f.grid)
    inner_t, inner_m = _aux1_both(spec, f, table)
    factors = _prefactors(spec, table.alphas) / spec.warp.deriv_values(f.grid)
    trap = factors * fd_deriv(inner_t, f.h)
    mid = factors * fd_deriv(inner_m, f.h)
    return _finish(f.grid, trap, mid, scheme, error_budget, f"D_rl[{f.label}]")


def caputo_deriv_ns(spec: KernelSpec, f: GridFunction, *,
                    scheme: str = "product_trapezoid",
                    error_budget: float | None = None) -> OperatorResult:
    """Bounded-kernel Caputo-type derivative: prefactor * aux_integral_2."""
    _check_inputs(spec, f, scheme)
    table = _KernelTable(spec, f.grid)
    trap, mid = _aux2_both(spec, f, table)
    factors = _prefactors(spec, table.alphas)
    return _finish(f.grid, factors * trap, factors * mid, scheme, error_budget,
                   f"D_c[{f.label}]")


# --- weakly singular family ---------------------------------------------------


def _power_moments(U: np.ndarray, mu) -> tuple[np.ndarray, np.ndarray]:
    """Exact panel moments of (psi(t) - x)^(mu-1) against linear data.

    U holds psi(t) - psi(tau_j) for j = 0..i (decreasing to 0). Returns
    (m0, m1) per panel, where m0 integrates the weight and m1 integrates
    (x - x_j) times the weight. mu may be a scalar or a per-panel array.
    """
    mu = np.asarray(mu, dtype=float)
    P0 = U[:-1] ** mu
    P1 = U[1:] ** mu
    m0 = (P0 - P1) / mu
    Q0 = U[:-1] ** (mu + 1.0)
    Q1 = U[1:] ** (mu + 1.0)
    m1 = U[:-1] * m0 - (Q0 - Q1) / (mu + 1.0)
    return m0, m1


def _product_sums(psis: np.ndarray, data: np.ndarray,
                  mu_at) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over [psi_0, psi_i] of (psi_i - x)^(mu-1) g(x) dx, per node i.

    g is interpolated from data: piecewise linear for the trapezoid sums,
    piecewise constant at panel means for the midpoint sums; both come from
    one set of panel moments per node. mu_at(i) is the exponent at node i, a
    scalar or one value per panel. The weight's integrable singularity at
    x = psi_i is handled exactly.
    """
    slope = np.diff(data) / np.diff(psis)
    g_mid = 0.5 * (data[:-1] + data[1:])
    trap = np.zeros(psis.size)
    mid = np.zeros(psis.size)
    for i in range(1, psis.size):
        U = psis[i] - psis[: i + 1]
        U[-1] = 0.0
        m0, m1 = _power_moments(U, mu_at(i))
        trap[i] = np.sum(data[:i] * m0 + slope[:i] * m1)
        mid[i] = np.sum(g_mid[:i] * m0)
    return trap, mid


def _gammas(xs: np.ndarray) -> np.ndarray:
    return np.array([math.gamma(float(x)) for x in xs])


def rl_integral_varorder(spec: KernelSpec, f: GridFunction, *,
                         exponent_at: str = "t",
                         scheme: str = "product_trapezoid",
                         error_budget: float | None = None) -> OperatorResult:
    """Variable-order integral with respect to psi.

    With exponent_at="t" (the default) the order alpha(t) enters both the
    exponent and the Gamma prefactor, which keeps the two consistent.
    exponent_at="tau" reproduces the mixed convention where the exponent
    follows alpha(tau) (frozen per panel at its time midpoint) while the
    prefactor still follows alpha(t). Identical for constant orders.
    """
    _check_inputs(spec, f, scheme)
    if exponent_at not in ("t", "tau"):
        raise InvalidParam(f"exponent_at must be 't' or 'tau', got {exponent_at!r}")
    grid = f.grid
    alphas = spec.order.values(grid)
    if np.min(alphas) <= 0.0:
        raise InvalidParam("order must stay positive for the integral")
    if exponent_at == "tau":
        mid_alphas = spec.order.values(0.5 * (grid[:-1] + grid[1:]))

        def mu_at(i):
            return mid_alphas[:i]
    else:
        def mu_at(i):
            return float(alphas[i])
    trap, mid = _product_sums(spec.warp.values(grid), f.values, mu_at)
    scales = 1.0 / _gammas(alphas)
    return _finish(grid, scales * trap, scales * mid, scheme, error_budget,
                   f"I[{f.label}]")


def rl_deriv_classical(spec: KernelSpec, f: GridFunction, *,
                       scheme: str = "product_trapezoid",
                       error_budget: float | None = None) -> OperatorResult:
    """Classical RL-type derivative: differentiate the weakly singular integral.

    Inner integral of psi'(tau) (psi(t)-psi(tau))^(-alpha(t)) f(tau) per node
    (product integration in x = psi(tau)), then d/dt by finite differences,
    then division by Gamma(1-alpha(t)) psi'(t).
    """
    _check_inputs(spec, f, scheme)
    if f.n < 16:
        raise DegenerateGrid(f"classical derivative needs n >= 16, got {f.n}")
    grid = f.grid
    mus = 1.0 - _alphas_checked(spec, grid)
    inner_t, inner_m = _product_sums(spec.warp.values(grid), f.values,
                                     lambda i: float(mus[i]))
    factors = 1.0 / (_gammas(mus) * spec.warp.deriv_values(grid))
    trap = factors * fd_deriv(inner_t, f.h)
    mid = factors * fd_deriv(inner_m, f.h)
    return _finish(grid, trap, mid, scheme, error_budget, f"D_rl_cl[{f.label}]")


def caputo_deriv_classical(spec: KernelSpec, f: GridFunction, *,
                           scheme: str = "product_trapezoid",
                           error_budget: float | None = None) -> OperatorResult:
    """Classical Caputo-type derivative against the power kernel.

    Integrates (psi(t)-psi(tau))^(-alpha(t)) f'(tau) dtau / Gamma(1-alpha(t)).
    After substituting x = psi(tau) this is the product integral of
    f'(tau(x)) / psi'(tau(x)), which is also exactly the standard
    psi-Caputo form (the psi' from the measure cancels the 1/psi' in
    d f/d psi).
    """
    _check_inputs(spec, f, scheme)
    grid = f.grid
    mus = 1.0 - _alphas_checked(spec, grid)
    data = f.deriv_values() / spec.warp.deriv_values(grid)
    trap, mid = _product_sums(spec.warp.values(grid), data, lambda i: float(mus[i]))
    scales = 1.0 / _gammas(mus)
    return _finish(grid, scales * trap, scales * mid, scheme, error_budget,
                   f"D_c_cl[{f.label}]")


# --- special-case factory -----------------------------------------------------

SPECIAL_CASES = (
    "variable_ml",
    "atangana",
    "yang_machado",
    "caputo_fabrizio",
    "unit_norm_exp",
    "log_warp",
    "sin_warp",
)


def _as_order(alpha) -> OrderFunction:
    if isinstance(alpha, OrderFunction):
        return alpha
    return OrderFunction.constant(float(alpha))


def make_special_case(name: str, alpha, M: NormalizationFunction | None = None,
                      interval=(0.0, 1.0), *, gamma: float | None = None,
                      beta: float | None = None) -> KernelSpec:
    """KernelSpec for a named special case of the bounded-kernel derivatives.

    variable_ml      Mittag-Leffler order and exponent both track alpha(t).
    atangana         constant alpha, gamma = beta = alpha, psi = t.
    yang_machado     constant alpha, gamma = beta = 1, psi = t (RL form).
    caputo_fabrizio  constant alpha, gamma = beta = 1, psi = t (Caputo form).
    unit_norm_exp    M forced to 1, gamma = beta = 1, psi = t.
    log_warp         psi = ln t (needs a > 0); gamma/beta default to 1.
    sin_warp         psi = sin t on intervals with cos t > 0; defaults as above.

    yang_machado and caputo_fabrizio build the same kernel; they differ only
    in which derivative form (rl_deriv_ns vs caputo_deriv_ns) the name refers
    to.
    """
    if name not in SPECIAL_CASES:
        raise InvalidParam(f"unknown special case {name!r}; choose from {SPECIAL_CASES}")
    order = _as_order(alpha)
    norm = M if M is not None else NormalizationFunction.one()
    warp: WarpFunction = identity_warp()

    if name == "variable_ml":
        if gamma is not None or beta is not None:
            raise InvalidParam("variable_ml fixes gamma and beta to the order itself")
        gamma_v = beta_v = None
    elif name == "atangana":
        if not order.is_constant:
            raise InvalidParam("atangana requires a constant order")
        if gamma is not None or beta is not None:
            raise InvalidParam("atangana fixes gamma = beta = alpha")
        gamma_v = beta_v = float(order.fn(interval[0]))
    elif name in ("yang_machado", "caputo_fabrizio"):
        if not order.is_constant:
            raise InvalidParam(f"{name} requires a constant order")
        if gamma not in (None, 1.0) or beta not in (None, 1.0):
            raise InvalidParam(f"{name} fixes gamma = beta = 1")
        gamma_v = beta_v = 1.0
    elif name == "unit_norm_exp":
        if M is not None:
            raise InvalidParam("unit_norm_exp fixes M to 1; do not pass M")
        if gamma not in (None, 1.0) or beta not in (None, 1.0):
            raise InvalidParam("unit_norm_exp fixes gamma = beta = 1")
        gamma_v = beta_v = 1.0
    else:
        gamma_v = 1.0 if gamma is None else float(gamma)
        beta_v = 1.0 if beta is None else float(beta)
        if name == "log_warp":
            if interval[0] <= 0.0:
                raise InvalidParam("log_warp requires a > 0")
            warp = log_warp()
        else:
            warp = sin_warp()

    return KernelSpec(gamma=gamma_v, beta=beta_v, order=order, warp=warp,
                      norm=norm, interval=(float(interval[0]), float(interval[1])))
