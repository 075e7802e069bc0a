"""The six nonlocal operators, on uniform grids.

Every operator is a history sum over one half-step table (nodes and panel
midpoints, one weight row per output node), which also gives the solver its
residual. Each operator is computed under a trapezoid and a midpoint scheme;
the reported quad_error_estimate is the sup difference between the two. Two
row builders fill the table:

* The bounded-kernel family (aux_integral_1/2 and the derivatives built on
  them): the kernel values H(t_i, .), taken with composite trapezoid weights
  at the nodes and midpoint weights at the panel midpoints.

* The weakly singular family (the variable-order integral and the classical
  derivatives) substitutes x = psi(tau) and takes exact moments of the power
  weight against piecewise-linear data (product integration), so the
  endpoint singularity costs no accuracy.

The table sums by one of four paths, chosen from the spec and the warp:

* Exponential kernel (beta = gamma = 1, constant order, any warp): H factors
  as exp(-lam psi(t)) exp(lam psi(tau)), so both sums come from one exact
  recurrence on the half-step grid (_exp_sums with the single rate lam),
  O(n) with about log2 n numpy passes at most. Error: 3e-16 to 3e-15 sup
  relative against long-double direct sums at n = 2048.
* Otherwise, constant order on a uniformly spaced psi: the rows are Toeplitz
  (tracked gamma/beta are then constant too), and one row and two
  convolutions serve every node.
* Otherwise, gamma = beta < 1 at every node (a tracked order, variable_ml,
  or a constant order on the log, sin or expression warps): the certified
  sum-of-exponentials rule of mlf (_soe_rule), H_i(s) ~ sum_k w_ik
  exp(-r_k s) on rates shared by every node. Each sum is then the exact
  diagonal (H = 1) plus sum_k w_ik times K decayed running sums
  (_exp_sums): O(nK) with K about 360 at n = 1024. Rows run when the rule
  is refused or would need more than n rates.
* Otherwise one row per output node, O(n^2) kernel evaluations: each sum is
  a dot product, as accurate as the rows.

row(i), the solver march's kernel row, is the same on every path.

Outer d/dt steps use second-order central differences with one-sided stencils
at the interval ends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGrid, InvalidParam
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
from .mlf import _soe_rule

SCHEMES = ("product_trapezoid", "product_midpoint")
_BLOCK = 1 << 15     # rate-source pairs per temporary of _exp_sums


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
    midpoint m_j of panel j), one weight row per node on it, and the history
    sums.

    row_fn(i, dpsi) returns node i's weights at half-grid points 0, stride,
    ..., 2i, given dpsi = psi(t_i) - psi at those points. The default is the
    kernel row H(t_i, .); the weakly singular operators pass exact power
    moments (_product_sums). When the order is constant and psi is uniformly
    spaced the rows are Toeplitz: the last row at exact multiples of the half
    step, reversed, serves every node. That base is built on first use, so
    the exponential kernel's sums, which never read it, build none.
    sums() takes one of the four paths in the module docstring (exponential,
    Toeplitz, sum of exponentials, rows); the sum-of-exponentials rule is
    built and spot-checked on the first sums() call and falls back to rows
    when it cannot be certified. row() is the same on all of them.
    """

    def __init__(self, spec: KernelSpec, grid: np.ndarray, row_fn=None):
        self.n = grid.size - 1
        self.half = np.empty(2 * grid.size - 1)
        self.half[::2] = grid
        self.half[1::2] = 0.5 * (grid[:-1] + grid[1:])
        self.psih = spec.warp.values(self.half)
        self._lam = self._spec = None
        if row_fn is None:
            self._spec = spec
            alphas = self.alphas = _alphas_checked(spec, grid)
            if spec.beta == spec.gamma == 1.0 and spec.order.is_constant:
                self._lam = float(alphas[0]) / (1.0 - float(alphas[0]))

            def row_fn(i, dpsi):
                return _ml_kernel(spec, float(alphas[i]), dpsi)
        self._row_fn = row_fn
        steps = np.diff(self.psih)
        uniform = steps.size > 0 and np.max(np.abs(steps - steps[0])) <= 1e-12 * max(
            1.0, abs(steps[0])
        )
        self._toeplitz = bool(uniform and spec.order.is_constant)

    @functools.cached_property
    def _base(self) -> np.ndarray | None:
        """The Toeplitz base row, or None off the Toeplitz path."""
        if not self._toeplitz:
            return None
        half_step = 0.5 * float(self.psih[2] - self.psih[0])
        k = np.arange(self.half.size - 1, -1, -1, dtype=float)
        return self._row_fn(self.n, k * half_step)[::-1]

    def _row(self, i: int, stride: int) -> np.ndarray:
        """Node i's weights at half-grid points 0, stride, ..., 2i."""
        if self._base is not None:
            return self._base[2 * i :: -stride]
        dpsi = np.maximum(self.psih[2 * i] - self.psih[: 2 * i + 1 : stride], 0.0)
        return self._row_fn(i, dpsi)

    def row(self, i: int) -> np.ndarray:
        """H(t_i, tau_j) for j = 0..i (kernel rows, the default row_fn)."""
        return self._row(i, 2)

    @functools.cached_property
    def _soe(self):
        """(rates, weights at nodes 1..n) of mlf's sum-of-exponentials rule for
        the kernel rows, or None (rows): None unless gamma = beta at every node and the
        rule holds with at most n rates."""
        spec = self._spec
        if spec is None:
            return None
        alphas = self.alphas
        betas = alphas if spec.beta is None else np.full(alphas.size, float(spec.beta))
        gammas = alphas if spec.gamma is None else np.full(alphas.size, float(spec.gamma))
        if not np.array_equal(betas, gammas):
            return None
        return _soe_rule(betas, alphas / (1.0 - alphas), float(np.min(np.diff(self.psih))),
                         float(self.psih[-1] - self.psih[0]), self.n, slice(1, None))

    def sums(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_{j<=i} w_i(tau_j) x_j and sum_{j<i} w_i(m_j) y_j, per node i."""
        if self._lam is not None:
            return _exp_sums(self.psih, x, y, np.array([self._lam]))
        n = self.n
        mids = np.zeros(n + 1)
        if self._base is not None:
            mids[1:] = np.convolve(self._base[1::2], y)[:n]
            return np.convolve(self._base[::2], x)[: n + 1], mids
        if self._soe is not None:
            return _exp_sums(self.psih, x, y, *self._soe)
        nodes = np.zeros(n + 1)
        data = np.zeros((2, 2 * n + 1))
        data[0, ::2] = x
        data[1, 1::2] = y
        for i in range(n + 1):
            nodes[i], mids[i] = data[:, : 2 * i + 1] @ self._row(i, 1)
        return nodes, mids


def _exp_sums(psi: np.ndarray, x: np.ndarray, y: np.ndarray, rates: np.ndarray,
              weights=None) -> tuple[np.ndarray, np.ndarray]:
    """x_i + sum_k w_ik T0_ik and sum_k w_ik T1_ik per node i, on the half-step
    grid psi (nodes at even entries), where

        T0_ik = sum_{j<i} exp(-r_k (psi_2i - psi_2j)) x_j,
        T1_ik = sum_{j<i} exp(-r_k (psi_2i - psi_2j+1)) y_j.

    weights(ks) gives w (one row per rate) at nodes 1..n for rates[ks], which
    ascend; None means w = 1. Rates are taken in blocks of _BLOCK // (2n).
    Within a block the sources j split into rows of W, where W - 1 node
    steps decay by no more than 1/e at the fastest rate. In a row ending at
    reference R, with e(p) = exp(-r (R - psi_p)), T at node j+1 is a
    cumulative sum of e(source) * data plus the carry from the previous
    row's reference, all divided by e(psi_2j+2). The carries are the linear
    recurrence of the row ends, solved by doubling: the decay across 2^m
    rows is one exp of a psi difference, never a product of rounded decays,
    so a term carried across the grid meets at most log2(rows) rounded
    factors. psi is differenced before it meets r, so no far-from-zero psi
    adds roundoff.
    """
    n = x.size - 1
    nodes, mids = np.array(x, dtype=float), np.zeros(n + 1)
    gap = float(np.max(psi[2::2] - psi[:-2:2]))
    block = max(1, _BLOCK // (2 * n))
    width = None
    for lo in range(0, rates.size, block):
        r = rates[lo:lo + block, None, None]
        fastest = float(r[-1, 0, 0]) * gap
        W = n if fastest * n <= 1.0 else 1 + int(1.0 / fastest)
        if W != width:
            width, rows = W, -(-n // W)
            pad = rows * W - n
            # row q: sources j = qW..qW+W-1 (node j and midpoint j), targets
            # the nodes j+1, reference the row's last target
            tgt = np.append(psi[2::2], np.full(pad, psi[-1])).reshape(rows, W)
            ref = tgt[:, -1:]
            a_tgt = ref - tgt
            a_mid = ref - np.append(psi[1::2], np.full(pad, psi[-1])).reshape(rows, W)
            data = np.zeros((2, 1, rows * W))
            data[0, 0, :n] = x[:-1]
            data[1, 0, :n] = y
            data = data.reshape(2, 1, rows, W)
            refs = np.append(psi[0], ref)
            steps = (refs[1:] - refs[:-1])[None]
        # axes: column (node data, midpoint data), rate, row, source in row
        e_tgt = np.exp(-r * a_tgt)
        carry = np.exp(-r[..., 0] * steps)
        S = np.empty((2, r.size, rows, W))
        # the node source j sits at target j-1, or at the previous reference
        S[0, :, :, 0] = carry
        S[0, :, :, 1:] = e_tgt[..., :-1]
        np.exp(-r * a_mid, out=S[1])
        S *= data
        np.cumsum(S, axis=-1, out=S)
        # V[..., q] = the sums at refs[q], V[..., 0] = 0 at node 0
        V = np.zeros((2, r.size, rows + 1))
        V[..., 1:] = S[..., -1]
        V[..., 1:] += carry * V[..., :-1]
        span = 2
        while span <= rows:
            V[..., span:] += np.exp(-r[..., 0] * (refs[span:] - refs[:-span])) * V[..., :-span]
            span *= 2
        S += (carry * V[..., :-1])[..., None]
        S /= e_tgt
        S = S.reshape(2, r.size, rows * W)[..., :n]
        if weights is None:
            T = S[:, 0]
        else:
            T = np.einsum("cki,ki->ci", S, weights(slice(lo, lo + block)))
        nodes[1:] += T[0]
        mids[1:] += T[1]
    return nodes, mids


def _trap_mid(table: _KernelTable, x: np.ndarray, y: np.ndarray,
              h: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite trapezoid sums of H * x and midpoint sums of H * y."""
    nodes, mids = table.sums(np.concatenate(([0.5 * x[0]], x[1:])), y)
    # H(t_i, t_i) = 1: the weight-1/2 end at tau_i takes off x_i / 2
    return h * (nodes - 0.5 * x), h * mids


def _finish(grid: np.ndarray, trap: np.ndarray, mid: np.ndarray,
            scheme: str, label: str) -> OperatorResult:
    cross = np.abs(trap - mid)
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
                   scheme: str = "product_trapezoid") -> OperatorResult:
    """Integral of psi'(tau) H(t, tau) f(tau) from a to t, per node."""
    _check_inputs(spec, f, scheme)
    trap, mid = _aux1_both(spec, f, _KernelTable(spec, f.grid))
    return _finish(f.grid, trap, mid, scheme, f"I1[{f.label}]")


def aux_integral_2(spec: KernelSpec, f: GridFunction, *,
                   scheme: str = "product_trapezoid") -> OperatorResult:
    """Integral of H(t, tau) f'(tau) from a to t, per node."""
    _check_inputs(spec, f, scheme)
    trap, mid = _aux2_both(spec, f, _KernelTable(spec, f.grid))
    return _finish(f.grid, trap, mid, scheme, f"I2[{f.label}]")


def rl_deriv_ns(spec: KernelSpec, f: GridFunction, *,
                scheme: str = "product_trapezoid") -> OperatorResult:
    """Bounded-kernel RL-type derivative: prefactor/psi' * d/dt of aux_integral_1."""
    _check_inputs(spec, f, scheme)
    table = _KernelTable(spec, f.grid)
    inner_t, inner_m = _aux1_both(spec, f, table)
    factors = _prefactors(spec, table.alphas) / spec.warp.deriv_values(f.grid)
    trap = factors * fd_deriv(inner_t, f.h)
    mid = factors * fd_deriv(inner_m, f.h)
    return _finish(f.grid, trap, mid, scheme, f"D_rl[{f.label}]")


def caputo_deriv_ns(spec: KernelSpec, f: GridFunction, *,
                    scheme: str = "product_trapezoid") -> OperatorResult:
    """Bounded-kernel Caputo-type derivative: prefactor * aux_integral_2."""
    _check_inputs(spec, f, scheme)
    table = _KernelTable(spec, f.grid)
    trap, mid = _aux2_both(spec, f, table)
    factors = _prefactors(spec, table.alphas)
    return _finish(f.grid, factors * trap, factors * mid, scheme, f"D_c[{f.label}]")


# --- weakly singular family ---------------------------------------------------


def _product_sums(spec: KernelSpec, grid: np.ndarray, data: np.ndarray,
                  mu_at) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over [psi_0, psi_i] of (psi_i - x)^(mu-1) g(x) dx, per node i.

    mu = mu_at(i) is a scalar or one value per panel. Node i's table row holds
    exact moments of the weight: entry 2j its integral over panel j, entry
    2j+1 its first moment about the panel midpoint, entry 2i zero, so the
    integrable singularity at x = psi_i costs no accuracy. g is interpolated
    from data: piecewise constant at panel means for the midpoint sums,
    piecewise linear for the trapezoid sums. On a panel the linear g is its
    mean plus slope * (x - midpoint), so the trapezoid sum is the midpoint sum
    plus the slopes against the first moments.
    """

    def moments(i: int, dpsi: np.ndarray) -> np.ndarray:
        U = dpsi[::2].copy()  # powers of a strided view are about 20 % slower
        u0, u1 = U[:-1], U[1:]
        mu = mu_at(i)
        m0 = (u0**mu - u1**mu) / mu
        out = np.zeros(dpsi.size)
        out[:-1:2] = m0
        q = (u0 ** (mu + 1.0) - u1 ** (mu + 1.0)) / (mu + 1.0)
        out[1::2] = 0.5 * (u0 + u1) * m0 - q
        return out

    table = _KernelTable(spec, grid, moments)
    g_mid = 0.5 * (data[:-1] + data[1:])
    slope = np.diff(data) / np.diff(table.psih[::2])
    mid, corr = table.sums(np.append(g_mid, 0.0), slope)
    return mid + corr, mid


def _gammas(xs: np.ndarray) -> np.ndarray:
    return np.array([math.gamma(float(x)) for x in xs])


def rl_integral_varorder(spec: KernelSpec, f: GridFunction, *,
                         exponent_at: str = "t",
                         scheme: str = "product_trapezoid") -> OperatorResult:
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
    trap, mid = _product_sums(spec, grid, f.values, mu_at)
    scales = 1.0 / _gammas(alphas)
    return _finish(grid, scales * trap, scales * mid, scheme, f"I[{f.label}]")


def rl_deriv_classical(spec: KernelSpec, f: GridFunction, *,
                       scheme: str = "product_trapezoid") -> OperatorResult:
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
    inner_t, inner_m = _product_sums(spec, grid, f.values, lambda i: float(mus[i]))
    factors = 1.0 / (_gammas(mus) * spec.warp.deriv_values(grid))
    trap = factors * fd_deriv(inner_t, f.h)
    mid = factors * fd_deriv(inner_m, f.h)
    return _finish(grid, trap, mid, scheme, f"D_rl_cl[{f.label}]")


def caputo_deriv_classical(spec: KernelSpec, f: GridFunction, *,
                           scheme: str = "product_trapezoid") -> OperatorResult:
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
    trap, mid = _product_sums(spec, grid, data, lambda i: float(mus[i]))
    scales = 1.0 / _gammas(mus)
    return _finish(grid, scales * trap, scales * mid, scheme, f"D_c_cl[{f.label}]")


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
