"""Kernel core: validated ingredients and the warped Mittag-Leffler kernel.

The kernel of every nonlocal operator in this package is

    H(t, tau) = E_beta( -alpha(t) * (psi(t) - psi(tau))^gamma / (1 - alpha(t)) )

for a variable order alpha(t), an increasing time warp psi, and a
normalization M with M(0) = M(1) = 1. H is bounded: 0 < H <= 1, with
H(t, t) = 1, so none of the derived operators have singular kernels.

Each ingredient is one callable (plus psi') that takes a float or an ndarray
and acts elementwise; values() samples it with one call over an array. Every
kernel value, pointwise or by row, goes through one formula (_ml_kernel).

KernelSpec bundles the ingredients and validates them by sampling at grid
resolution (1,024 panels): order bounds, psi' positivity plus a finite
difference consistency check, and the normalization's endpoint/positivity
constraints. gamma or beta may be None, meaning "track alpha(t) at the active
output node" (each node's kernel row then takes that node's order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr
from .errors import DomainError, InvalidParam, SingularOrder
from .grids import _sample
from .mlf import _ml_neg_array

SINGULAR_ORDER_EPS = 1e-12
_SAMPLES = 1024


def _sample_grid(a: float, b: float, n: int = _SAMPLES) -> np.ndarray:
    return np.linspace(a, b, n + 1)


@dataclass(frozen=True)
class OrderFunction:
    """Variable order alpha(t) with caller-declared bounds.

    The declared bounds live in (0, 1]; the closed right endpoint admits the
    alpha == 1 classical-integral limit. Operators that divide by
    1 - alpha(t) raise SingularOrder when that quantity drops below 1e-12.
    is_constant is derived from the declared bounds; the operators never read
    it, and choose their paths from the sampled orders.
    """

    fn: Callable
    declared_min: float
    declared_max: float
    label: str = "order"

    def __post_init__(self):
        if not (0.0 < self.declared_min <= self.declared_max <= 1.0):
            raise InvalidParam(
                "order bounds must satisfy 0 < min <= max <= 1, got "
                f"[{self.declared_min}, {self.declared_max}]"
            )

    @property
    def is_constant(self) -> bool:
        return self.declared_min == self.declared_max

    @classmethod
    def constant(cls, value: float) -> "OrderFunction":
        value = float(value)
        return cls(
            fn=lambda _t, _v=value: _v,
            declared_min=value,
            declared_max=value,
            label=repr(value),
        )

    @classmethod
    def from_callable(cls, fn, declared_min, declared_max, label="order") -> "OrderFunction":
        return cls(fn=fn, declared_min=float(declared_min),
                   declared_max=float(declared_max), label=label)

    @classmethod
    def from_expr(cls, src: str, interval=None) -> "OrderFunction":
        """Build from expression text in the variable t.

        A constant expression gives a constant order. Otherwise ``interval``
        is required, and the bounds are the extremes of a dense sample over
        it (1,024 panels, the grid KernelSpec validates on).
        """
        node = expr.parse(src, allowed_vars={"t"})
        if not expr.variables(node):
            value = expr.evaluate(node, {})
            return cls.constant(value)
        if interval is None:
            raise InvalidParam("a non-constant order needs an interval")
        samples = expr.evaluate(node, {"t": _sample_grid(*interval)})
        return cls(
            fn=lambda t, _n=node: expr.evaluate(_n, {"t": t}),
            declared_min=float(np.min(samples)),
            declared_max=float(np.max(samples)),
            label=src,
        )

    def values(self, ts: np.ndarray) -> np.ndarray:
        return _sample(self.fn, ts)


@dataclass(frozen=True)
class WarpFunction:
    """Time warp psi with analytic derivative, strictly increasing."""

    fn: Callable
    deriv: Callable
    label: str = "warp"

    def values(self, ts: np.ndarray) -> np.ndarray:
        return _sample(self.fn, ts)

    def deriv_values(self, ts: np.ndarray) -> np.ndarray:
        return _sample(self.deriv, ts)


def identity_warp() -> WarpFunction:
    return WarpFunction(fn=lambda t: t, deriv=lambda t: 1.0, label="t")


def log_warp() -> WarpFunction:
    """psi(t) = ln t; usable on intervals with a > 0."""
    return WarpFunction(fn=np.log, deriv=lambda t: 1.0 / t, label="ln(t)")


def sin_warp() -> WarpFunction:
    """psi(t) = sin t; usable on intervals where cos t > 0."""
    return WarpFunction(fn=np.sin, deriv=np.cos, label="sin(t)")


def warp_from_expr(src: str) -> WarpFunction:
    node = expr.parse(src, allowed_vars={"t"})
    dnode = expr.derivative(node, "t")
    return WarpFunction(
        fn=lambda t, _n=node: expr.evaluate(_n, {"t": t}),
        deriv=lambda t, _d=dnode: expr.evaluate(_d, {"t": t}),
        label=src,
    )


@dataclass(frozen=True)
class NormalizationFunction:
    """Normalization M on [0, 1] with M(0) = M(1) = 1 and M > 0."""

    fn: Callable
    label: str = "M"

    @classmethod
    def one(cls) -> "NormalizationFunction":
        return cls(fn=lambda _a: 1.0, label="1")

    @classmethod
    def from_callable(cls, fn, label="M") -> "NormalizationFunction":
        return cls(fn=fn, label=label)

    @classmethod
    def from_expr(cls, src: str) -> "NormalizationFunction":
        node = expr.parse(src, allowed_vars={"alpha"})
        return cls(fn=lambda a, _n=node: expr.evaluate(_n, {"alpha": a}), label=src)

    def values(self, xs: np.ndarray) -> np.ndarray:
        return _sample(self.fn, xs)


@dataclass(frozen=True)
class KernelSpec:
    """Validated bundle defining the kernel H and its prefactor.

    gamma/beta of None mean the Mittag-Leffler exponent/order track alpha(t)
    at the output node (the variable-order special case).
    """

    gamma: float | None
    beta: float | None
    order: OrderFunction
    warp: WarpFunction
    norm: NormalizationFunction
    interval: tuple[float, float]

    def __post_init__(self):
        a, b = self.interval
        a, b = float(a), float(b)
        object.__setattr__(self, "interval", (a, b))
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise InvalidParam(f"interval must be finite with a < b, got {self.interval}")
        for name, value in (("gamma", self.gamma), ("beta", self.beta)):
            if value is not None and not (0.0 < float(value) <= 1.0):
                raise InvalidParam(f"{name} must lie in (0, 1], got {value}")
        ts = _sample_grid(a, b)
        self._validate_order(ts)
        self._validate_warp(ts)
        self._validate_norm()

    def _validate_order(self, ts: np.ndarray) -> None:
        values = self.order.values(ts)
        if not np.all(np.isfinite(values)):
            raise InvalidParam("order function is not finite on the interval")
        slack = 1e-12
        if np.min(values) < self.order.declared_min - slack or \
                np.max(values) > self.order.declared_max + slack:
            bad = int(np.argmax((values < self.order.declared_min - slack)
                                | (values > self.order.declared_max + slack)))
            raise InvalidParam(
                f"order function exits its declared bounds near t = {ts[bad]:.6g}"
            )

    def _validate_warp(self, ts: np.ndarray) -> None:
        try:
            # a warp that blows up on the interval should fail the finite
            # check below, not spray numpy warnings on the way there
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                psi = self.warp.values(ts)
                dpsi = self.warp.deriv_values(ts)
        except ValueError as exc:
            raise InvalidParam(f"warp undefined on the interval: {exc}") from exc
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))):
            raise InvalidParam("warp or its derivative is not finite on the interval")
        if np.min(dpsi) <= 0.0:
            bad = int(np.argmin(dpsi))
            raise InvalidParam(
                f"warp derivative must be positive; psi'({ts[bad]:.6g}) = {dpsi[bad]:.6g}"
            )
        # finite-difference consistency spot check at a few interior points
        a, b = self.interval
        h = 1e-6 * (b - a)
        probe = np.linspace(a + 2 * h, b - 2 * h, 17)
        fd = (self.warp.values(probe + h) - self.warp.values(probe - h)) / (2 * h)
        claimed = self.warp.deriv_values(probe)
        err = np.max(np.abs(fd - claimed) / np.maximum(1.0, np.abs(claimed)))
        if err > 1e-5:
            raise InvalidParam(
                f"warp derivative disagrees with finite differences (rel err {err:.2e})"
            )

    def _validate_norm(self) -> None:
        values = self.norm.values(_sample_grid(0.0, 1.0))
        for endpoint, value in ((0.0, values[0]), (1.0, values[-1])):
            if abs(value - 1.0) > 1e-12:
                raise InvalidParam(f"normalization must equal 1 at {endpoint}, got {value}")
        if not np.all(np.isfinite(values)) or np.min(values) <= 0.0:
            raise InvalidParam("normalization must be positive and finite on [0, 1]")

    # --- kernel parameters at an output node --------------------------------

    def alpha_at(self, t: float) -> float:
        return float(self.order.fn(t))

    def gamma_at(self, alpha: float) -> float:
        return float(self.gamma) if self.gamma is not None else float(alpha)

    def beta_at(self, alpha: float) -> float:
        return float(self.beta) if self.beta is not None else float(alpha)


def _check_point(spec: KernelSpec, name: str, value: float) -> None:
    a, b = spec.interval
    slop = 1e-12 * max(1.0, b - a)
    if not (a - slop <= value <= b + slop):
        raise DomainError(f"{name} = {value} outside interval [{a}, {b}]")


def _orders(spec: KernelSpec, ts: np.ndarray) -> np.ndarray:
    """alpha over ts; raises InvalidParam where it is not in (0, 1].

    The declared bounds come from a 1024-panel sample, so an order that
    oscillates between its samples can leave (0, 1] on a finer grid: the
    values are checked on the points in use, not against those bounds.
    """
    alphas = spec.order.values(ts)
    bad = int(np.argmin(alphas))
    if alphas[bad] > 0.0:
        bad = int(np.argmax(alphas))
    if not 0.0 < alphas[bad] <= 1.0:
        raise InvalidParam(f"order must stay positive and at most 1; alpha(t) = "
                           f"{alphas[bad]:.6g} at t = {ts[bad]:.6g}")
    return alphas


def _alphas_checked(spec: KernelSpec, ts: np.ndarray) -> np.ndarray:
    """alpha over ts; raises InvalidParam where it is not in (0, 1] and
    SingularOrder where 1 - alpha drops below 1e-12."""
    alphas = _orders(spec, ts)
    one_minus = 1.0 - alphas
    bad = int(np.argmin(one_minus))
    if one_minus[bad] < SINGULAR_ORDER_EPS:
        raise SingularOrder(
            f"1 - alpha(t) = {one_minus[bad]:.3e} below threshold at t = {ts[bad]:.6g}"
        )
    return alphas


def _prefactors(spec: KernelSpec, alphas: np.ndarray) -> np.ndarray:
    return spec.norm.values(alphas) / (1.0 - alphas)


def _ml_kernel(spec: KernelSpec, alpha, dpsi: np.ndarray) -> np.ndarray:
    """H at one output node of order alpha, given dpsi = psi(t) - psi(tau) >= 0;
    for an array of orders, one row of H per order on the same dpsi, from
    one evaluator call. Each row takes its own power of dpsi, with a scalar
    exponent as alone: numpy's power has fast paths (sqrt at 0.5) that an
    array of exponents does not take."""
    alphas = np.ravel(alpha).tolist()
    z = np.empty((len(alphas),) + np.shape(dpsi))
    for row, a in zip(z, alphas):
        np.multiply(-(a / (1.0 - a)), dpsi ** spec.gamma_at(a), out=row)
    betas = [spec.beta_at(a) for a in alphas]
    if np.ndim(alpha) == 0:
        return _ml_neg_array(betas[0], z[0])
    return _ml_neg_array(np.array(betas), z)


def kernel_values(spec: KernelSpec, t: float, taus: np.ndarray) -> np.ndarray:
    """Vectorized H(t, tau) over an array of tau <= t (one output node)."""
    node = np.array([float(t)])
    alpha = float(_alphas_checked(spec, node)[0])
    dpsi = np.maximum(spec.warp.values(node)[0] - spec.warp.values(taus), 0.0)
    return _ml_kernel(spec, alpha, dpsi)


def kernel_eval(spec: KernelSpec, t: float, tau: float) -> float:
    """Evaluate H(t, tau). Requires a <= tau <= t <= b."""
    t, tau = float(t), float(tau)
    _check_point(spec, "t", t)
    _check_point(spec, "tau", tau)
    if tau > t + 1e-12 * max(1.0, spec.interval[1] - spec.interval[0]):
        raise DomainError(f"tau = {tau} exceeds t = {t}")
    return float(kernel_values(spec, t, np.array([tau]))[0])


def kernel_prefactor(spec: KernelSpec, t: float) -> float:
    """M(alpha(t)) / (1 - alpha(t)); raises SingularOrder near alpha = 1."""
    node = np.array([float(t)])
    return float(_prefactors(spec, _alphas_checked(spec, node))[0])
