"""The six nonlocal operators, on uniform grids.

Every operator is a history sum over one half-step table (nodes and panel
midpoints, one weight row per output node), which also gives the solver its
residual. Each operator is computed under a trapezoid and a midpoint scheme;
the reported quad_error_estimate is the sup difference between the two.
Every operator makes its OperatorResult in _result, from its sums and a post
step (prefactors, and d/dt for the derivatives of an integral), which
finishes the scheme asked for and, the first time the estimate is read, the
other one. The bounded-kernel operators sum only the scheme asked for (both
on "rows", _history) and the other one then, from the same table; the weakly
singular family sums both in one pass (_product_sums), and only the other
scheme's post step waits. Two row builders fill the table:

* The bounded-kernel family (aux_integral_1/2 and the derivatives built on
  them): the kernel values H(t_i, .), taken with composite trapezoid weights
  at the nodes and midpoint weights at the panel midpoints.

* The weakly singular family (the variable-order integral and the classical
  derivatives) substitutes x = psi(tau) and takes exact moments of the power
  weight against piecewise-linear data (product integration), so the
  endpoint singularity costs no accuracy.

The table sums on one of three paths, which it picks once, when it is built,
from the values it sums alone: the sampled orders (or the exponents mu of the
weakly singular family), the spec's gamma and beta, and psi on the half-step
grid. No declared property of the order enters.

* "soe" first for the exponential kernel (beta = gamma = 1 and every sampled
  alpha equal, any warp): H = exp(-lam (psi(t) - psi(tau))) is its own sum of
  exponentials, the exact rule of one rate lam with weight 1 (weights None),
  so both sums come from one exact recurrence (_exp_sums), O(n) with about
  log2 n numpy passes at most. Error: 3e-16 to 3e-15 sup relative against
  long-double direct sums at n = 2048.
* Otherwise "toeplitz" on a uniformly spaced psi, where the rows at one
  exponent are Toeplitz. Every sampled exponent equal (alpha, or mu; tracked
  gamma/beta are then constant too): one base row and a convolution per sum
  made serve every node, truncated to the n + 1 outputs kept: real FFTs
  against the row's node or midpoint spectrum, made by the sum that reads it
  (_lower_product), O(n log n). A kernel row's midpoint half is evaluated
  only then, by the first midpoint sum. Error: within 1e-14 of long-double
  direct sums, relative to the largest sum. A sampled exponent that varies (a
  tracked order, a tracked gamma or beta alone, a variable alpha under a
  fixed kernel, the weakly singular exponents at t or at tau) takes m base
  rows at Chebyshev-Lobatto points of the exponent (ln lam for kernel rows,
  mu for moments; m = 9, 17, 33 or 65), and node i's row is
  sum_m L_m(e) g_m with the barycentric weights L_m at the node's exponent,
  or at each source's for panel exponents. A sum is then m truncated FFT
  products of one stack row, combined at the targets or with the data
  weighted at the sources, O(m n log n). The points are certified as an
  SOE rule is, within _SOE_TOL, on the history sums of data 1
  (_chebyshev_rows: their last Chebyshev coefficient in the exponent, and
  direct rows at two sampled exponents), and are tried before any rule is
  built: they are taken when certified and their m (2n + 1) values are at
  most the (n + 1)^2 values of "rows". Refused past m = 65, or by that
  budget (small n), they leave the table to "soe" or "rows". Tracked
  0.5..0.7 on psi = t takes m = 17, 0.3..0.95 and 0.75..0.99 take m = 33;
  the integral of order 0.4 + 0.3 t, m = 17. Each set of points is one
  evaluation, its two check rows included, and a kernel table's midpoint
  halves one more (one Mittag-Leffler call over rows, one beta each): the
  tracked 0.5..0.7 table at n = 1024 makes 2 calls, not 19, and a
  caputo_ns call on it takes about 6.5 ms in-process, against 7.1-7.8.
* Otherwise "soe" on a rule of mlf (the Mittag-Leffler rule spot-checked,
  the power rule bounded by the proof in its docstring), with rates shared
  by every node and the slow ones (r span <= 1) folded into 14, so K is
  about 60 and the sums cost O(nK) (_exp_sums). On a uniformly spaced psi
  only where interpolated Toeplitz rows are refused.
  - gamma = beta < 1 at every node (a tracked order, variable_ml, or a
    constant order on the log, sin or expression warps): _soe_rule,
    H_i(s) ~ sum_k w_ik exp(-r_k s). Each sum is the exact diagonal (H = 1)
    plus sum_k w_ik times K decayed running sums.
  - The weakly singular family (_power_sums): _power_rule for s^(mu-1),
    where every mu lies in (0, 1] (alpha for the integral, 1 - alpha >= 1e-12
    for the classical derivatives). Each node keeps the exact moments of its
    last panel; the earlier panels enter through closed-form integrals of
    exp(-r (psi_i - x)) against the linear data.
* Otherwise "rows", when no rule applies (gamma != beta) or the rule is
  refused, as when it would need more than n rates, on a psi that is not
  uniformly spaced or where interpolated Toeplitz rows are refused: one row
  per output node, O(n^2) kernel evaluations, each sum a dot product, as
  accurate as the rows.
  Each call of sums() builds the rows again, so the bounded-kernel operators
  make both schemes in their first call (_history) and keep the other. Node
  sums alone (the solver's residual) take node rows, half the kernel values.

_exp_sums takes one layout, columns of data on one grid. Node sums run on the
nodes; a midpoint sum runs on the half-step grid, y at its odd points and
node i's weights at points 2i-1 and 2i, read at the nodes: twice the sources.

Every operator takes one function or a stack of m functions on one grid
(a GridFunction with values of shape (m, n + 1)) and returns values and
cross-scheme estimates of the same shape. One table serves the whole stack,
and each row of the result is, bit for bit, what that function gives alone:
sums() keeps the stack as further data columns of _exp_sums on "soe" (cut
into chunks that bound its temporaries, with a partition of the rates that
does not depend on m), transforms the stack in one FFT call on "toeplitz"
(numpy's FFT takes each row alone, bit for bit) and makes one batched matrix
product per node on "rows".

march() gives the solver the history of kernel rows node by node, on the
same path, with one of two kinds of memory: a state per rate of the
sum-of-exponentials rule (_soe_march; on Python floats for the exact
one-rate rule), or row dots (_row_march), one loop for Toeplitz and kernel
rows. A node dots its near sources with their weights and takes the sources
before its block from a far field. Toeplitz rows dot inside aligned blocks
of _NEAR nodes, and their far field (_toeplitz_far) adds real FFT products
of length 2h for each dyadic block of h sources further back, O(n log^2 n).
With m base rows the near weights are combined per node with its L_m, and
the far field keeps m memories, one per base row, combined at each target:
O(m n log^2 n). Kernel rows dot the whole row and have no far field,
O(n^2). Both FFT products, the sums' truncated one and the march's, are
_circular products against a spectrum made once.

Outer d/dt steps use second-order central differences with one-sided stencils
at the interval ends.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateGrid, InvalidParam, NonConvergent
from .grids import GridFunction, fd_deriv
from .kernel import (
    KernelSpec,
    NormalizationFunction,
    OrderFunction,
    _alphas_checked,
    _ml_kernel,
    _orders,
    _prefactors,
    identity_warp,
    log_warp,
    sin_warp,
)
from .mlf import _SOE_TOL, _power_rule, _soe_rule

SCHEMES = ("product_trapezoid", "product_midpoint")
_BLOCK = 1 << 15     # doubles for a rate block of _exp_sums, and for a chunk of its sums
_FACTOR_TEMPS = 4    # temporaries of _power_sums' factors, per rate and source
_NEAR = 64           # nodes per aligned near-field block of the Toeplitz march
_DEGREES = (8, 16, 32, 64)  # nested Chebyshev-Lobatto point sets of interpolated Toeplitz rows
_NARROW = 1e-4       # panel width / (u_j + u_j+1) below which _moments takes its series
# Taylor coefficients of _phis' phi1, z^1 to z^15
_PHI1_SERIES = [(-1) ** (p + 1) * p / (2.0 * math.factorial(p + 2)) for p in range(1, 16)]


@dataclass(frozen=True)
class OperatorResult:
    """Operator values under one scheme, with the cross-scheme estimate.

    cross_scheme holds |trapezoid - midpoint| per node; quad_error_estimate
    is its maximum. other() gives the other scheme's values, finished by
    _result only then: the bounded-kernel operators sum that scheme then, so
    the first read of either estimate costs one more history sum, and a
    result whose estimate is never read costs none; the weakly singular
    family sums both schemes in one pass, and other() runs only the post
    step (scaling, and the finite difference of rl_deriv_classical). Only
    cross_scheme calls other(), once; the sums of a one-pass pair are
    handed out once each (_result).
    """

    values: GridFunction
    scheme: str
    other: Callable[[], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidParam(f"unknown scheme {self.scheme!r}")

    @functools.cached_property
    def cross_scheme(self) -> np.ndarray:
        # |trapezoid - midpoint|, whichever of them values holds: a - b is
        # exactly -(b - a) in floating point
        cross = self.values.values - self.other()
        np.abs(cross, out=cross)
        if not (np.max(cross) >= 0.0):
            raise InvalidParam("quad_error_estimate must be >= 0")
        return cross

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
    """For spec on the nodes grid: psi on the half-step grid (entry 2j is the
    node tau_j, entry 2j+1 the midpoint m_j of panel j), one weight row per
    node on it, and the history sums.

    The rows are the kernel H(t_i, .) by default. Given mus, the exponents of
    the weakly singular family, they are the exact power moments of
    _moments, and the size of mus says where each exponent sits: mus[i] at
    node i (n + 1 values) or mus[j] on panel j (n values).

    path, set here once from the sampled values alone, is the one way sums(),
    march() and row() run (module docstring), and _rule is the rule of "soe",
    whose weights kernel-row sums fold once per table (_weights):

    * "soe", first, for beta = gamma = 1 and every sampled alpha equal: the
      exact rule (rates [lam], weights None), whatever the warp;
    * "toeplitz" on a uniformly spaced psi: m base rows, each the last row
      at one exponent, at exact multiples of the half step, reversed. Every
      sampled exponent (alpha, or mu) equal gives m = 1, one row that serves
      every node. Otherwise the rows sit at nested Chebyshev-Lobatto points
      of the exponent's coordinate (_chebyshev_rows): ln lam, lam = alpha /
      (1 - alpha), for kernel rows, mu for moments; node i's row is
      sum_m L_m(e) g_m, with the barycentric weights L_m (_lagrange) at the
      targets' exponents for node exponents and at the sources' for panel
      exponents. They are tried first, and taken when certified and their
      values, m (2n + 1), are at most the (n + 1)^2 kernel values of
      "rows"; the rule of "soe" is built only when they are refused;
    * "soe": mlf's rule accepted, _soe_rule for kernel rows with gamma =
      beta at every node, _power_rule for mu, which lies in (0, 1];
    * "rows": none of these, one row per node.

    A kernel base row is built in halves: the node half (_nodes) here, the
    midpoint half (_mids) when a midpoint sum first reads it. A moment row
    is built whole, both halves from the same powers.
    """

    def __init__(self, spec: KernelSpec, grid: np.ndarray, mus: np.ndarray | None = None):
        self.n = n = grid.size - 1
        self.half = np.empty(2 * grid.size - 1)
        self.half[::2] = grid
        self.half[1::2] = 0.5 * (grid[:-1] + grid[1:])
        self.psih = spec.warp.values(self.half)
        self._mus = self._lagrange = None
        self._kernel = mus is None
        self._per_panel = per_panel = mus is not None and mus.size == n
        if mus is None:
            alphas = exponents = self.alphas = _alphas_checked(spec, grid)
            at = lambda alpha, dpsi: _ml_kernel(spec, alpha, dpsi)
            node_exponent = alphas.__getitem__
        else:
            exponents = mus
            widths = np.diff(self.psih[::2])
            at = lambda mu, dpsi: _moments(mu, widths, dpsi)
            node_exponent = lambda i: mus[:i] if per_panel else float(mus[i])
        # no closure refers to self, so a table is freed as soon as it is dropped
        self._at = at
        self._row_fn = lambda i, dpsi: at(node_exponent(i), dpsi)
        same = bool(np.all(exponents == exponents[0]))
        if mus is None and spec.beta == spec.gamma == 1.0 and same:
            self.path, self._rule = "soe", (alphas[:1] / (1.0 - alphas[:1]), None)
            return
        steps = np.diff(self.psih)
        uniform = np.max(np.abs(steps - steps[0])) <= 1e-12 * max(1.0, abs(steps[0]))
        # psi_n - psi at half-grid points 0..2n, for a uniformly spaced psi
        self._dpsi = np.arange(2 * n, -1, -1, dtype=float) * (
            0.5 * float(self.psih[2] - self.psih[0]))
        if same and uniform:
            self.path, self._points = "toeplitz", [node_exponent(n)]
            self._set_base(self._base_rows(self._points[0]))
            return
        if mus is not None:
            # the exponent of panel j, or of node j + 1
            self._mus = mus if per_panel else mus[1:]
        if uniform:
            coords, exponent = ((np.log(alphas / (1.0 - alphas)), _alpha_at) if mus is None
                                else (mus, float))
            rows = _chebyshev_rows(coords, exponents, exponent, self._base_rows, 2 * n + 1,
                                   (n + 1) ** 2)
            if rows is not None:
                points, self._points, base = rows
                self.path, self._lagrange = "toeplitz", _lagrange(points, coords)
                if per_panel:
                    # the last node's zero data has no panel, and takes no weight
                    self._lagrange = np.pad(self._lagrange, ((0, 0), (0, 1)))
                self._set_base(base)
                return
        span = float(self.psih[-1] - self.psih[0])
        if mus is None:
            betas = alphas if spec.beta is None else np.full(alphas.size, float(spec.beta))
            gammas = alphas if spec.gamma is None else np.full(alphas.size, float(spec.gamma))
            self._rule = _soe_rule(betas, alphas / (1.0 - alphas), float(np.min(steps)), span,
                                   self.n) if np.array_equal(betas, gammas) else None
        else:
            self._rule = _power_rule(1.0 - self._mus, float(np.min(np.diff(self.psih[::2]))),
                                     span, self.n)
        self.path = "rows" if self._rule is None else "soe"

    def _base_rows(self, exponents) -> np.ndarray:
        """The base rows, increasing in s, from one evaluation: the node
        halves of kernel rows, or whole moment rows; one row for the last
        node's exponent (node_exponent(n)), or one per entry of a column of
        exponents."""
        rows = self._at(exponents, self._dpsi[:: 2 if self._kernel else 1])
        return rows.reshape(-1, rows.shape[-1])[:, ::-1]

    def _set_base(self, base: np.ndarray) -> None:
        if self._kernel:
            self._nodes = base
        else:
            self._nodes, self._mids = base[:, ::2], base[:, 1::2]

    @functools.cached_property
    def _mids(self) -> np.ndarray:
        """The midpoint half of the kernel base rows, built on first read in
        one evaluation."""
        return self._at(np.reshape(self._points, (-1, 1)), self._dpsi[1::2])[:, ::-1]

    def _row(self, i: int, stride: int) -> np.ndarray:
        """Node i's weights at half-grid points 0, stride, ..., 2i, on "rows"."""
        dpsi = np.maximum(self.psih[2 * i] - self.psih[: 2 * i + 1 : stride], 0.0)
        return self._row_fn(i, dpsi)

    def row(self, i: int) -> np.ndarray:
        """H(t_i, tau_j) for j = 0..i (kernel rows)."""
        if self.path != "toeplitz":
            return self._row(i, 2)
        base = self._nodes[:, i::-1]
        return base[0] if self._lagrange is None else self._lagrange[:, i] @ base

    @functools.cached_property
    def _weights(self):
        """The rule's weights at nodes 1..n, folded once for every sum."""
        weights = self._rule[1]
        return None if weights is None else weights(slice(1, None))

    def _products(self, base: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Toeplitz sums of each row of data (m, k) against one half of the
        base rows, whose spectra are made once per call: one truncated
        product for m = 1; else, one stack row at a time, the m products
        combined at the targets (node exponents) or the data weighted at the
        sources first (panel exponents)."""
        weights = self._lagrange
        if weights is None:
            return _lower_product(base[0])(data)
        k = data.shape[-1]
        product = _lower_product(base)
        out = np.empty(data.shape)
        for sums, d in zip(out, data):
            if self._per_panel:
                sums[:] = product(weights[:, :k] * d).sum(axis=0)
            else:
                sums[:] = np.einsum("mi,mi->i", product(d), weights[:, -k:])
        return out

    def sums(self, x: np.ndarray | None,
             y: np.ndarray | None) -> tuple[np.ndarray | None, np.ndarray | None]:
        """sum_{j<=i} w_i(tau_j) x_j and sum_{j<i} w_i(m_j) y_j, per node i,
        for x of shape (n + 1,) and y of shape (n,), or for each row of a
        stack, x (m, n + 1) and y (m, n). A sum whose data is None is not
        made, and None stands in its place; the weakly singular rows take
        both. Kernel rows on "soe" make the midpoint sums as _exp_sums on the
        half-step grid (module docstring), and every sum reads the weights
        folded once, on the table's first sum."""
        n = self.n
        shape = x.shape if x is not None else y.shape[:-1] + (n + 1,)
        x = None if x is None else x.reshape(-1, n + 1)
        y = None if y is None else y.reshape(-1, n)
        m = int(np.prod(shape[:-1]))
        nodes, mids = None, np.zeros((m, n + 1))
        if self.path == "toeplitz":
            if x is not None:
                nodes = self._products(self._nodes, x)
            if y is not None:
                mids[:, 1:] = self._products(self._mids, y)
        elif self.path == "rows":
            # one data row per sum made: x at the nodes, y at the midpoints;
            # node rows alone when no midpoint sum is made
            stride = 1 if y is not None else 2
            data = np.zeros((m, (x is not None) + (y is not None), 2 * n + 1))
            if x is not None:
                data[:, 0, ::2] = x
            if y is not None:
                data[:, -1, 1::2] = y
            out = np.zeros((data.shape[1], m, n + 1))
            for i in range(n + 1):
                out[..., i] = (data[..., : 2 * i + 1 : stride] @ self._row(i, stride)).T
            nodes, mids = out[0], out[-1]
        elif self._mus is not None:
            rates, weights = self._rule
            nodes, mids = _power_sums(self.psih, x[:, :-1], y, self._mus, rates, weights,
                                      self._per_panel)
        else:
            # kernel rows: x_i (H = 1 on the diagonal) plus _exp_sums on the
            # nodes; the midpoint sums, _exp_sums of y at the odd points of
            # the half-step grid, read at the nodes
            rates, w = self._rule[0], self._weights
            if x is not None:
                nodes = x.copy()
                nodes[:, 1:] += _exp_sums(self.psih[::2], rates, w, x[None, :, :-1])[0]
            if y is not None:
                def halves(ks):  # node i's weights at targets 2i-1 and 2i
                    wk = w(ks)  # one column when every node shares the rule
                    return wk if wk.shape[1] == 1 else np.repeat(wk, 2, axis=1)

                data = np.zeros((1, m, 2 * n))
                data[0, :, 1::2] = y
                mids[:, 1:] = _exp_sums(self.psih, rates, w and halves, data)[0, :, 1::2]
        return (None if x is None else nodes.reshape(shape),
                None if y is None else mids.reshape(shape))

    def march(self):
        """The solver march's memory, node by node, on the path of sums():
        _soe_march on the rule, exact or certified, or _row_march on the
        rows, the Toeplitz ones with their dyadic far field (_toeplitz_far),
        one per base row, combined with the node's weights L_m.

        A generator: for node i = 1..n it yields the Python floats H(t_i, a),
        H(t_i, t_{i-1}) and sum_{j<i-1} c_ij du_j, c_ij = (H(t_i, t_j) +
        H(t_i, t_{j+1})) / 2, then takes du_{i-1} = u_i - u_{i-1} by send().
        """
        if self.path == "soe":
            return _soe_march(self.psih[::2], *self._rule)
        if self.path == "rows":
            return _row_march(self.n, ((float(r[0]), float(r[-2]), 0.5 * (r[:-2] + r[1:-1]))
                                       for r in map(self.row, range(1, self.n + 1))))
        g = self._nodes
        c = 0.5 * (g[:, 1:] + g[:, :-1])
        # node p + 1 takes its near sources p0..p-1, k = p - p0 of them, with
        # c[k], ..., c[1]: the last k entries of the reversed c
        cr = c[:, ::-1].copy()
        weights = None if self._lagrange is None else self._lagrange[:, 1:]
        if weights is None:
            heads, subs = g[0, 1:].tolist(), itertools.repeat(float(g[0, 1]))
            near = itertools.cycle([cr[0, -1 - k : -1] for k in range(_NEAR)])
        else:
            heads = np.einsum("mi,mi->i", weights, g[:, 1:]).tolist()
            subs = (g[:, 1] @ weights).tolist()
            near = (weights[:, p] @ cr[:, -1 - p % _NEAR : -1] for p in range(self.n))
        return _row_march(self.n, zip(heads, subs, near), _toeplitz_far(c, weights))


def _alpha_at(x: float) -> float:
    """alpha = lam / (1 + lam) at ln lam = x, without overflow."""
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0.0 else math.exp(x) / (1.0 + math.exp(x))


def _barycentric(size: int) -> np.ndarray:
    """Barycentric weights of the Chebyshev-Lobatto points: (-1)^k, halved
    at both ends."""
    w = np.where(np.arange(size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    return w


def _lagrange(points: np.ndarray, at: np.ndarray) -> np.ndarray:
    """L_m(at) for the Chebyshev-Lobatto points, one row per point and one
    column per target, by the barycentric formula; a target on a point
    takes the first such point's row alone."""
    d = at[None, :] - points[:, None]
    exact = d == 0.0
    d[exact] = 1.0
    q = _barycentric(points.size)[:, None] / d
    q /= q.sum(axis=0)
    hit = np.flatnonzero(exact.any(axis=0))
    q[:, hit] = 0.0
    q[np.argmax(exact[:, hit], axis=0), hit] = 1.0
    return q


def _chebyshev_rows(coords: np.ndarray, exponents: np.ndarray, exponent, rows, size: int,
                    budget: int):
    """Base rows at nested Chebyshev-Lobatto points of the exponent
    coordinate over [min coords, max coords]: (points, their exponents,
    rows), or None.

    coords are the sampled exponents' coordinates, exponent(x) the exponent
    at coordinate x and rows(es) the base rows at a column of exponents,
    from one evaluation. N + 1 points, N = 8, 16, 32, 64, each set holding the
    last; a set is one rows() call, its new points with its two check rows,
    whose exponents follow from the points alone (a refused set has paid
    for its checks too). The rows are kept in point order in one array, and
    each row's cumulative sums are made once. A set is certified as an SOE
    rule is, within _SOE_TOL, on the history sums of data 1, the cumulative
    sums S(s) of a row, relative to the largest of them at any point:

    * the tail: |c_N(s)| at every s, c_N the last Chebyshev coefficient of
      S(s) in the coordinate, (1/N) sum_k w_k S_k(s) with the barycentric
      weights w_k;
    * direct rows at two sampled exponents, the nearest the middle of the
      first and of the last gap between points, where the exponent is most
      extreme: |S(s)| of the interpolated row less the direct one.

    Sums, not values: a moment row's closed-form differences of powers
    carry rounding that grows with n, which no interpolation removes and
    which the sums of adjacent entries cancel. The rows are refused (None)
    when a set fails, past N = 64, when its values, (N + 1) size, would pass
    budget, or when a row raises NonConvergent.
    """
    top = _DEGREES[-1]
    lo, hi = float(np.min(coords)), float(np.max(coords))
    points = lo + (hi - lo) * (0.5 - 0.5 * np.cos(np.pi * np.arange(top + 1) / top))
    g = sums = None
    try:
        for degree in _DEGREES:
            if (degree + 1) * size > budget:
                return None
            x = points[:: top // degree]
            checks = [int(np.argmin(np.abs(coords - 0.5 * (x[k] + x[k + 1])))) for k in (0, -2)]
            new = x if g is None else x[1::2]  # the last set's points are every other one
            built = rows(np.array([exponent(float(v)) for v in new]
                                  + [float(exponents[i]) for i in checks])[:, None])
            g, added = _interleaved(g, built[: new.size])
            # the new rows' cumulative sums, made in place in their copy
            sums, added = _interleaved(sums, added)
            np.cumsum(added, axis=1, out=added)
            tol = _SOE_TOL * float(np.max(np.abs(sums)))
            if not np.max(np.abs(_barycentric(x.size) @ sums)) / degree <= tol:
                continue
            if all(np.max(np.abs(np.cumsum(_lagrange(x, coords[i : i + 1])[:, 0] @ g - direct)))
                   <= tol for i, direct in zip(checks, built[new.size :])):
                return x, [exponent(float(v)) for v in x], g
    except NonConvergent:
        return None
    return None


def _interleaved(old: np.ndarray | None, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One new array of rows, and the view of new's rows in it: new alone
    when old is None, else old's rows at the even places and new's at the
    odd ones."""
    if old is None:
        out = np.array(new)
        return out, out
    out = np.empty((old.shape[0] + new.shape[0], new.shape[1]))
    out[::2], out[1::2] = old, new
    return out, out[1::2]


def _row_march(n: int, rows, far=None):
    """march() on weight rows. For node i = p + 1, rows yields the floats
    H(t_i, a) and H(t_i, t_{i-1}) and the weights c_ij at the sources
    p0..p-1, which meet the steps in one dot. Without a far field p0 = 0.
    With one, p0 starts each aligned block of _NEAR nodes, and far(p0,
    steps), called there once the steps before p0 are known, gives the
    memory of those sources at the block's targets.
    """
    steps = np.zeros(n)
    stored = memoryview(steps)
    for p, (head, sub, c) in enumerate(rows):
        p0 = p - c.size
        if far is not None and p == p0:
            fars = far(p0, steps)
        near = float(c.dot(steps[p0:p]))
        stored[p] = yield head, sub, near if far is None else fars[p - p0] + near


def _toeplitz_far(c: np.ndarray, weights=None):
    """The far field of _row_march on Toeplitz rows, blocked as in Hairer,
    Lubich and Schlichte (SIAM J. Sci. Stat. Comput. 6(3), 1985).

    With g[m] = H at m node steps and c[k] = (g[k] + g[k+1]) / 2, node i's
    memory is M_p = sum_{j<p} c[p-j] du_j at p = i - 1. Sources and targets
    inside one aligned block of _NEAR nodes meet in the near dot. When a
    block starts at p0 and h = p0 & -p0 is its lowest set bit, the sources
    [p0-h, p0) are convolved with c[:2h] into the targets [p0, p0+h) (a
    _circular product of length 2h, made once per h). Every pair j < p in
    different blocks meets in exactly one such product, so the march costs
    O(n log^2 n) on the exact Toeplitz weights.

    c holds one row per base row; with weights (one row per base row, one
    column per p), target p takes sum_m weights[m, p] M_p of row m, else
    M_p of the one row.
    """
    far = np.zeros(c.shape)  # the part of M_p from earlier blocks
    products = {}

    def block(p0: int, steps: np.ndarray) -> list:
        if p0:
            h = p0 & -p0
            if h not in products:
                products[h] = _circular(c[:, : 2 * h], 2 * h)
            # outputs h..2h-1 of the product of length 2h do not wrap
            far[:, p0 : p0 + h] += products[h](steps[p0 - h : p0])[:, h : h + c.shape[1] - p0]
        near = far[:, p0 : p0 + _NEAR]
        if weights is None:
            return near[0].tolist()
        return np.einsum("mi,mi->i", weights[:, p0 : p0 + _NEAR], near).tolist()

    return block


# The state of node i's memory, at one rate r, is
#     E(i) = sum_{j<i-1} du_j (exp(-r (psi_i - psi_j)) + exp(-r (psi_i - psi_j+1))) / 2,
# so E(i) = D1 E(i-1) + du_{i-2} (D1 + D2) / 2, with D1 = exp(-r (psi_i - psi_i-1))
# and D2 = exp(-r (psi_i - psi_i-2)); at i = 1 du_{-1} = 0 and psi_0 stands in
# for psi_{-1}. Every weight of the memory spans at least one node step,
# inside the range of the sum-of-exponentials rule.


def _soe_march(psi: np.ndarray, rates: np.ndarray, weights):
    """march() on the sum-of-exponentials rule: a state of one entry per rate.
    Decays, weights and H(t_i, a) are taken in blocks of _BLOCK // K nodes.
    The exact rule of the exponential kernel (one rate, weights None for
    w = 1) keeps its state on Python floats, about ten times faster per node
    than a numpy state of one entry, with the same memories bit for bit."""
    n = psi.size - 1
    block = max(1, _BLOCK // rates.size)
    back2 = np.append(psi[0], psi[:-2])
    state = np.zeros(rates.size)
    memory = du = 0.0
    for lo in range(1, n + 1, block):
        hi = min(lo + block, n + 1)
        now = psi[lo:hi]
        d1 = np.exp(np.multiply.outer(psi[lo - 1 : hi - 1] - now, rates))
        half = np.exp(np.multiply.outer(back2[lo - 1 : hi - 1] - now, rates))
        half += d1
        half *= 0.5
        heads = np.exp(np.multiply.outer(psi[0] - now, rates))
        if weights is None:
            for head, d1i, ci in zip(heads[:, 0].tolist(), d1[:, 0].tolist(),
                                     half[:, 0].tolist()):
                memory = d1i * memory + du * ci
                du = yield head, d1i, memory
            continue
        W = np.broadcast_to(np.ascontiguousarray(weights(slice(lo, hi))(slice(None)).T), d1.shape)
        heads = np.einsum("bk,bk->b", W, heads)
        subs = np.einsum("bk,bk->b", W, d1)
        for wi, d1i, ci, head, sub in zip(W, d1, half, heads.tolist(), subs.tolist()):
            state *= d1i
            state += du * ci
            du = yield head, sub, float(wi.dot(state))


def _circular(a: np.ndarray, size: int):
    """b -> the circular convolution of length size of a and b, both
    zero-padded to size, along b's last axis, by real FFTs against a's
    spectrum, made once."""
    spectrum = np.fft.rfft(a, size)
    return lambda b: np.fft.irfft(np.fft.rfft(b, size) * spectrum, size)


def _lower_product(a: np.ndarray):
    """b -> the first m outputs of np.convolve(a, b) along the last axis, m
    the length of both: the _circular product of length L, the least power
    of two at or above 2 (m - 1), truncated, against a's spectrum, made once.
    Only output 2 (m - 1) of the full product can wrap, onto output 0, which
    is therefore set to a[0] b[0]. Rows of a 2-d a and of b broadcast
    against each other."""
    m = a.shape[-1]
    product = _circular(a, 1 << (2 * m - 3).bit_length())

    def lower(b: np.ndarray) -> np.ndarray:
        out = product(b)[..., :m]
        out[..., 0] = a[..., 0] * b[..., 0]
        return out

    return lower


def _exp_sums(psi: np.ndarray, rates: np.ndarray, weights, x: np.ndarray,
              factors=None) -> np.ndarray:
    """sum_k w_ik T_ik per target i = 1..n for each column of data, on the
    grid psi (n + 1 points, sources and targets alike), where

        T_ik = sum_{j<i} exp(-r_k (psi_i - psi_j)) x_kj.

    x (g, m, n) holds g columns for each of the m rows of a stack, at the
    sources j = 0..n-1, shared by every rate, or times factors(ks), of shape
    (g, len(ks), n), for the rates rates[ks] (made per chunk of the stack, so
    that they live no longer than its sums); the result is (g, m, n).
    weights(ks) gives w (one row per rate) at targets 1..n for rates[ks],
    which ascend; None means w = 1.

    Rates are taken in blocks sized from n and the per-rate arrays of one
    row of the stack, so that a block's temporaries for one row stay within
    _BLOCK doubles; the stack is then cut into chunks whose sums stay within
    _BLOCK doubles too. The partition of the rates does not depend on m, so
    each row of a stack gets the sums it gets alone, bit for bit.

    Within a block the sources j split into rows of W, where W - 1 steps of
    psi decay by no more than 1/e at the fastest rate. In a row ending at
    reference R, with e(p) = exp(-r (R - psi_p)), T at target j+1 is a
    cumulative sum of e(source) * data plus the carry from the previous
    row's reference, all divided by e(psi_j+1). The carries are the linear
    recurrence of the row ends, solved by doubling: the decay across 2^m
    rows is one exp of a psi difference, never a product of rounded decays,
    so a term carried across the grid meets at most log2(rows) rounded
    factors. psi is differenced before it meets r, so no far-from-zero psi
    adds roundoff.
    """
    g, m, n = x.shape
    # rates per block: the columns of one row and the target decays, and
    # per-rate factors with the temporaries that form them
    block = max(1, _BLOCK // (n * (g + 1 + (0 if factors is None else g + _FACTOR_TEMPS))))
    out = np.empty((g, m, n))
    gap = float(np.max(np.diff(psi)))
    # psi_0, then the targets 1..n, padded with psi_n for the last row
    points = np.concatenate((psi, np.full(n, psi[-1])))
    width = None
    for lo in range(0, rates.size, block):
        ks = slice(lo, lo + block)
        r = rates[ks, None, None]
        fastest = float(r[-1, 0, 0]) * gap
        W = n if fastest * n <= 1.0 else 1 + int(1.0 / fastest)
        if W != width:
            width, rows = W, -(-n // W)
            # row q: sources j = qW..qW+W-1, targets j+1, reference the
            # row's last target
            refs = points[: rows * W + 1 : W]
            a_tgt = refs[1:, None] - points[1 : rows * W + 1].reshape(rows, W)
            steps = (refs[1:] - refs[:-1])[None]
            step_min = float(steps.min())
        e_tgt = -r * a_tgt
        np.exp(e_tgt, out=e_tgt)
        carry = np.exp(-r[..., 0] * steps)
        w = None if weights is None else weights(ks)
        chunk = max(1, _BLOCK // (g * r.size * n))  # stack rows per S
        for fs in (slice(f0, f0 + chunk) for f0 in range(0, m, chunk)):
            # axes: column, stack row, rate, row, source in row
            S = np.empty((g, x[:, fs].shape[1], r.size, rows, W))
            # source j sits at target j-1, or at the previous reference
            S[..., 0] = carry
            S[..., 1:] = e_tgt[..., :-1]
            flat = S.reshape(S.shape[:3] + (rows * W,))
            flat[..., :n] *= x[:, fs, None]
            if factors is not None:
                flat[..., :n] *= factors(ks)[:, None]
            flat[..., n:] = 0.0
            np.cumsum(S, axis=-1, out=S)
            # V[..., q] = the sums at refs[q], V[..., 0] = 0 at psi_0
            V = np.zeros(S.shape[:3] + (rows + 1,))
            V[..., 1:] = S[..., -1]
            V[..., 1:] += carry * V[..., :-1]
            span = 2
            while span <= rows:
                if float(r[0, 0, 0]) * span * step_min > 746.0:
                    break  # every decay underflows to 0, and so on every longer span
                V[..., span:] += np.exp(-r[..., 0] * (refs[span:] - refs[:-span])) * V[..., :-span]
                span *= 2
            V[..., :-1] *= carry
            S += V[..., :-1, None]
            S /= e_tgt
            terms = flat[..., :n]
            # the first block writes its sums in place
            T = out[:, fs] if lo == 0 else None
            T = terms.sum(axis=2, out=T) if w is None else np.einsum("cfki,ki->cfi", terms, w,
                                                                     out=T)
            if lo > 0:
                out[:, fs] += T
            # free the sums before the next ones are made
            del S, flat, V, terms, T
    return out


def _phis(z: np.ndarray) -> np.ndarray:
    """phi0(z) = int_0^1 e^(-z v) dv = -expm1(-z) / z and
    phi1(z) = int_0^1 e^(-z v) (1/2 - v) dv = (expm1(-z) (1 + z/2) + z) / z^2,
    for z >= 0, stacked on a leading axis. phi1's closed form cancels as
    z -> 0 (its value is about z / 12), so below z = 1/2 it is summed from its
    series sum_{p>=1} (-1)^(p+1) p z^p / (2 (p+2)!), up to the last term above
    1e-17 of the first at the largest such z (the tail is below 1e-18 at
    z = 1/2 with all 15 terms).
    """
    phis = np.empty((2,) + z.shape)
    phi0, phi1 = phis
    np.expm1(-z, out=phi0)
    small = z < 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        if not small.all():
            np.multiply(z, 0.5, out=phi1)
            phi1 += 1.0
            phi1 *= phi0
            phi1 += z
            phi1 /= z
            phi1 /= z
        phi0 /= -z
    phi0[z == 0.0] = 1.0
    zs = z[small]
    if zs.size:
        top = float(zs.max())
        terms = [c for p, c in enumerate(_PHI1_SERIES)
                 if abs(c) * top**p >= 1e-17 * _PHI1_SERIES[0]]
        acc = np.full(zs.shape, terms[-1])
        for coef in terms[-2::-1]:
            acc *= zs
            acc += coef
        acc *= zs
        phi1[small] = acc
    return phis


def _power_sums(psih: np.ndarray, g_mid: np.ndarray, slope: np.ndarray, mus: np.ndarray,
                rates: np.ndarray, weights, per_panel: bool) -> tuple[np.ndarray, np.ndarray]:
    """sums() of the power moments on the SOE rule (rates, weights) for
    s^(mu-1) (mlf._power_rule): the sums against g_mid and against slope, as
    in _product_sums, one row per row of the stacks g_mid and slope (m, n).
    mus[j] is the exponent of node j+1 (per_panel False) or of panel j.

    Node i's last panel keeps its exact moments. On a history panel j <= i-2,
    with h_j its width and z = r h_j, the rate r integrates to
    exp(-r (psi_i - psi_j+1)) h_j (g_mid_j phi0(z) + slope_j h_j phi1(z))
    (_phis): per-rate factors at the source node j+1 of _exp_sums, times the
    rule's weight of mu_j when the exponent follows the panel, while the
    weights of mu_i apply at the targets otherwise.
    """
    psi = psih[::2]
    n = psi.size - 1
    hp = np.diff(psi)
    w = weights(slice(None, -1) if per_panel else slice(None))
    # source j takes panel j - 1; source 0 has no panel, and its data is 0
    widths = np.append(0.0, hp[:-1])
    data = np.zeros((2,) + g_mid.shape)
    data[0, :, 1:] = (hp * g_mid)[:, :-1]
    data[1, :, 1:] = (hp * hp * slope)[:, :-1]

    def factors(ks):
        phis = _phis(np.multiply.outer(rates[ks], widths))
        if per_panel:
            phis[:, :, 1:] *= w(ks)
        return phis

    hist = _exp_sums(psi, rates, None if per_panel else w, data, factors)
    # the last panel: integral and first moment about its midpoint of s^(mu-1)
    m0 = hp**mus / mus
    m1 = hp ** (mus + 1.0) * (1.0 - mus) / (2.0 * mus * (mus + 1.0))
    mid, corr = np.zeros((2, g_mid.shape[0], n + 1))
    mid[:, 1:] = g_mid * m0 + hist[0]
    corr[:, 1:] = slope * m1 + hist[1]
    return mid, corr


def _history(table: _KernelTable, g: np.ndarray, h: float, dpsih: np.ndarray | None = None):
    """scheme -> its sums, made when asked for: the composite trapezoid sums
    of H * x, or the midpoint sums of H * y; on "rows", both in one pass.
    x is g at the nodes and y its panel means, each times psi' when dpsih,
    psi' on the half-step grid, is given: g = f with dpsih for
    aux_integral_1, g = f' without for aux_integral_2."""
    y = g[..., :-1] + g[..., 1:]
    y *= 0.5
    if dpsih is None:
        # a copy of g, which the other scheme may sum after the call returns
        x = np.array(g)
    else:
        x = dpsih[::2] * g
        y *= dpsih[1::2]
    kept = {}

    def sums(scheme: str) -> np.ndarray:
        if scheme not in kept:
            rows = table.path == "rows"
            ends = None
            if rows or scheme == SCHEMES[0]:
                ends = x.copy()
                ends[..., 0] *= 0.5
            nodes, mids = table.sums(ends, y if rows or scheme == SCHEMES[1] else None)
            if nodes is not None:
                # H(t_i, t_i) = 1: the weight-1/2 end at tau_i takes off x_i / 2
                nodes -= 0.5 * x
            kept.update((s, np.multiply(v, h, out=v)) for s, v in zip(SCHEMES, (nodes, mids))
                        if v is not None)
        return kept.pop(scheme)

    return sums


def _result(f: GridFunction, sums, scheme: str, label: str, post=None) -> OperatorResult:
    """The OperatorResult of an operator on f, the one place one is made.

    sums is scheme -> its sums (_history), or the (trapezoid, midpoint) pair
    of one pass (_product_sums), whose sums are handed out once each, as
    _history's are. post, when given, finishes a scheme's sums in place
    (_scaled): the other scheme's post step runs when the estimate is first
    read, as its sum does.
    """
    if not callable(sums):
        sums = dict(zip(SCHEMES, sums)).pop

    def finished(s: str) -> np.ndarray:
        out = sums(s)
        return out if post is None else post(out)

    other = SCHEMES[1 - SCHEMES.index(scheme)]
    out = GridFunction(grid=f.grid, values=finished(scheme), label=label)
    return OperatorResult(values=out, scheme=scheme, other=lambda: finished(other))


def _scaled(factors: np.ndarray, h: float | None = None):
    """_result's post step: d/dt by fd_deriv when h is given, then times
    factors, in place."""
    def post(out: np.ndarray) -> np.ndarray:
        out = out if h is None else fd_deriv(out, h)
        return np.multiply(out, factors, out=out)

    return post


def aux_integral_1(spec: KernelSpec, f: GridFunction, *,
                   scheme: str = "product_trapezoid") -> OperatorResult:
    """Integral of psi'(tau) H(t, tau) f(tau) from a to t, per node."""
    _check_inputs(spec, f, scheme)
    table = _KernelTable(spec, f.grid)
    return _result(f, _history(table, f.values, f.h, spec.warp.deriv_values(table.half)), scheme,
                   f"I1[{f.label}]")


def aux_integral_2(spec: KernelSpec, f: GridFunction, *,
                   scheme: str = "product_trapezoid") -> OperatorResult:
    """Integral of H(t, tau) f'(tau) from a to t, per node."""
    _check_inputs(spec, f, scheme)
    return _result(f, _history(_KernelTable(spec, f.grid), f.deriv_values(), f.h), scheme,
                   f"I2[{f.label}]")


def rl_deriv_ns(spec: KernelSpec, f: GridFunction, *,
                scheme: str = "product_trapezoid") -> OperatorResult:
    """Bounded-kernel RL-type derivative: prefactor/psi' * d/dt of aux_integral_1."""
    _check_inputs(spec, f, scheme)
    table = _KernelTable(spec, f.grid)
    sums = _history(table, f.values, f.h, spec.warp.deriv_values(table.half))
    factors = _prefactors(spec, table.alphas) / spec.warp.deriv_values(f.grid)
    return _result(f, sums, scheme, f"D_rl[{f.label}]", _scaled(factors, f.h))


def caputo_deriv_ns(spec: KernelSpec, f: GridFunction, *,
                    scheme: str = "product_trapezoid") -> OperatorResult:
    """Bounded-kernel Caputo-type derivative: prefactor * aux_integral_2."""
    _check_inputs(spec, f, scheme)
    table = _KernelTable(spec, f.grid)
    return _result(f, _history(table, f.deriv_values(), f.h), scheme, f"D_c[{f.label}]",
                   _scaled(_prefactors(spec, table.alphas)))


# --- weakly singular family ---------------------------------------------------


def _moments(mu, widths: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """The row of _product_sums of node i, given dpsi = psi_i - psi at
    half-grid points 0, 1, ..., 2i and the panel widths w_j = psi_j+1 -
    psi_j: entry 2j the integral of (psi_i - x)^(mu-1) over panel j, entry
    2j+1 its first moment about the panel midpoint, entry 2i zero. mu is a
    float, one exponent per panel (mu[j] on panel j), or a column of
    exponents (shape (m, 1)), which gives one such row per exponent, each
    with its own scalar powers, as alone (kernel._ml_kernel says why).

    The closed form of the first moment cancels, to an error of about
    eps u^(mu+1) at u = psi_i - psi_j, and the slopes of a panel, of order
    1/w_j, carry that error into the sums. So where rho = w_j / (u_j + u_j+1)
    is below _NARROW, the moment is taken from its series about the panel's
    midpoint, at c = (u_j + u_j+1) / 2:
    c^(mu+1) (1 - mu) (2/3) rho^3 (1 + (2 - mu) (3 - mu) rho^2 / 10), whose
    next term is below 1e-16 of it.
    """
    def power(u, e):
        return np.array([u**v for v in e[:, 0].tolist()]) if np.ndim(e) == 2 else u**e

    i = dpsi.size // 2
    U = dpsi[::2].copy()  # powers of a strided view are about 20 % slower
    u0, u1 = U[:-1], U[1:]

    def gaps(e):
        """u0^e - u1^e: one power of U, differenced, unless e is per panel."""
        if np.ndim(e) == 1:
            return power(u0, e) - power(u1, e)
        p = power(U, e)
        return p[..., :-1] - p[..., 1:]

    m0 = gaps(mu) / mu
    out = np.zeros(m0.shape[:-1] + dpsi.shape)
    out[..., :-1:2] = m0
    q = gaps(mu + 1.0) / (mu + 1.0)
    m1 = out[..., 1::2]
    np.subtract(0.5 * (u0 + u1) * m0, q, out=m1)
    twice_c = u0 + u1
    narrow = widths[:i] < _NARROW * twice_c
    if narrow.any():
        rho = widths[:i][narrow] / twice_c[narrow]
        mu = mu[narrow] if np.ndim(mu) == 1 else mu
        m1[..., narrow] = (power(0.5 * twice_c[narrow], mu + 1.0) * (1.0 - mu) * (2.0 / 3.0)
                           * rho**3 * (1.0 + (2.0 - mu) * (3.0 - mu) / 10.0 * rho**2))
    return out


def _product_sums(spec: KernelSpec, grid: np.ndarray, data: np.ndarray,
                  mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over [psi_0, psi_i] of (psi_i - x)^(mu-1) g(x) dx, per node i.

    mu is mus[i] at node i (mus of size n + 1) or mus[j] on panel j (size n).
    g is interpolated from data: piecewise constant at panel means for the
    midpoint sums, piecewise linear for the trapezoid sums. On a panel the
    linear g is its mean plus slope * (x - midpoint), so the trapezoid sum is
    the midpoint sum plus the slopes against the first moments (_moments),
    exact, so the integrable singularity at x = psi_i costs no accuracy. The
    table's path follows the sampled exponents and psi: on a uniformly
    spaced psi, Toeplitz rows, one when every mu is equal, else interpolated
    in mu when they are certified and cost less than rows; else the sums of
    exponentials of _power_sums (O(nK), K about 60) when the rule is
    certified; else rows (O(n^2)). Every mu lies in (0, 1]: alpha or
    1 - alpha, with alpha checked on the grid.
    """
    table = _KernelTable(spec, grid, mus)
    g_mid = 0.5 * (data[..., :-1] + data[..., 1:])
    slope = np.diff(data) / np.diff(table.psih[::2])
    # x is g_mid and a zero for the last node, which has no panel to open
    mid, corr = table.sums(np.concatenate((g_mid, np.zeros_like(data[..., :1])), axis=-1), slope)
    return mid + corr, mid


def _gammas(xs: np.ndarray) -> np.ndarray:
    return np.array(list(map(math.gamma, xs.tolist())))


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
    alphas = _orders(spec, grid)
    mus = _orders(spec, 0.5 * (grid[:-1] + grid[1:])) if exponent_at == "tau" else alphas
    return _result(f, _product_sums(spec, grid, f.values, mus), scheme, f"I[{f.label}]",
                   _scaled(1.0 / _gammas(alphas)))


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
    sums = _product_sums(spec, grid, f.values, mus)
    factors = 1.0 / (_gammas(mus) * spec.warp.deriv_values(grid))
    return _result(f, sums, scheme, f"D_rl_cl[{f.label}]", _scaled(factors, f.h))


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
    return _result(f, _product_sums(spec, grid, data, mus), scheme, f"D_c_cl[{f.label}]",
                   _scaled(1.0 / _gammas(mus)))


# --- special-case factory -----------------------------------------------------

# name -> (gamma = beta, warp, constant order only, refusal when gamma or beta is
# passed). gamma = beta is None to track alpha(t), "alpha" for the constant
# alpha, or 1.0; with no refusal, a passed gamma or beta replaces the 1.0.
_SPECIAL = {
    "variable_ml": (None, identity_warp, False,
                    "variable_ml fixes gamma and beta to the order itself"),
    "atangana": ("alpha", identity_warp, True, "atangana fixes gamma = beta = alpha"),
    "yang_machado": (1.0, identity_warp, True, "yang_machado fixes gamma = beta = 1"),
    "caputo_fabrizio": (1.0, identity_warp, True, "caputo_fabrizio fixes gamma = beta = 1"),
    "unit_norm_exp": (1.0, identity_warp, False, "unit_norm_exp fixes gamma = beta = 1"),
    "log_warp": (1.0, log_warp, False, None),
    "sin_warp": (1.0, sin_warp, False, None),
}
SPECIAL_CASES = tuple(_SPECIAL)


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
    to. Each name is one row of _SPECIAL; the checks run in one order for
    all of them: the name, a constant order, M, gamma and beta (a kernel
    fixed at 1 accepts a passed 1), then a > 0 for the log warp.
    """
    if name not in _SPECIAL:
        raise InvalidParam(f"unknown special case {name!r}; choose from {SPECIAL_CASES}")
    rule, warp, constant, refusal = _SPECIAL[name]
    order = alpha if isinstance(alpha, OrderFunction) else OrderFunction.constant(float(alpha))
    if constant and not order.is_constant:
        raise InvalidParam(f"{name} requires a constant order")
    if name == "unit_norm_exp" and M is not None:
        raise InvalidParam("unit_norm_exp fixes M to 1; do not pass M")
    if refusal and not all(v is None or rule == 1.0 == v for v in (gamma, beta)):
        raise InvalidParam(refusal)
    fixed = float(order.fn(interval[0])) if rule == "alpha" else rule
    gamma_v = fixed if gamma is None else float(gamma)
    beta_v = fixed if beta is None else float(beta)
    if warp is log_warp and interval[0] <= 0.0:
        raise InvalidParam("log_warp requires a > 0")
    return KernelSpec(gamma=gamma_v, beta=beta_v, order=order, warp=warp(),
                      norm=M if M is not None else NormalizationFunction.one(),
                      interval=(float(interval[0]), float(interval[1])))
