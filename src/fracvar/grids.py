"""Uniform grids and sampled functions.

Operators consume a GridFunction: samples of f on a uniform grid over
[a, b] with n panels (n + 1 nodes), optionally carrying exact derivative
samples. When derivatives are not supplied, second-order finite differences
stand in (central in the interior, one-sided second order at the ends).

A GridFunction may also hold a stack of m functions on its one grid: values
(and derivs) of shape (m, n + 1), one function per row. Every operation here
and in the operators acts along the last axis, so each row of a stacked
result equals, bit for bit, the result for that row alone.

Callables that produce samples (here and for the kernel ingredients) take a
float or an ndarray and act elementwise; each is called once per array of
points, and a constant result is broadcast to the array's shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid


def uniform_grid(a: float, b: float, n: int) -> np.ndarray:
    if n < 8:
        raise InvalidGrid(f"need at least 8 panels, got {n}")
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise InvalidGrid(f"bad interval [{a}, {b}]")
    return np.linspace(float(a), float(b), int(n) + 1)


def _sample(fn, xs) -> np.ndarray:
    """fn over the whole array xs at once, broadcast to the shape of xs."""
    xs = np.asarray(xs, dtype=float)
    out = np.asarray(fn(xs), dtype=float)
    return out if out.shape == xs.shape else np.broadcast_to(out, xs.shape).copy()


def fd_deriv(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite differences on a uniform grid, along the last axis."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    np.subtract(values[..., 2:], values[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= 2.0 * h
    out[..., 0] = (-3.0 * values[..., 0] + 4.0 * values[..., 1] - values[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * values[..., -1] - 4.0 * values[..., -2] + values[..., -3]) / (2.0 * h)
    return out


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function, or of a stack of functions, on a uniform grid.

    ``values`` has shape (n + 1,), or (m, n + 1) for a stack of m functions.
    ``derivs`` is optional; when present it has the shape of ``values`` and
    must be plausibly the derivative of each row (a crude eyeball check
    rejects gross mismatches like passing f itself as f').
    """

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray | None = None
    label: str = "f"

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 9:
            raise InvalidGrid("grid must be 1-d with at least 8 panels")
        steps = np.diff(grid)
        h = steps[0]
        if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * max(1.0, abs(h)):
            raise InvalidGrid("grid must be uniform and increasing")
        if values.ndim not in (1, 2) or values.shape[-1] != grid.size:
            raise InvalidGrid(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidGrid("values contain non-finite entries")
        if self.derivs is not None:
            derivs = np.asarray(self.derivs, dtype=float)
            object.__setattr__(self, "derivs", derivs)
            if derivs.shape != values.shape:
                raise InvalidGrid("derivs shape does not match values")
            if not np.all(np.isfinite(derivs)):
                raise InvalidGrid("derivs contain non-finite entries")
            self._check_deriv_consistency()

    def _check_deriv_consistency(self) -> None:
        # Compare supplied derivatives against interior central differences.
        # The FD truncation scale is estimated from third differences of the
        # values themselves, so smooth data with genuinely large f'' is not
        # rejected; only order-of-magnitude mismatches are. Each row of a
        # stack takes its own maxima.
        values = self.values.reshape(-1, self.grid.size)
        fd = fd_deriv(values, self.h)[:, 1:-1]
        supplied = self.derivs.reshape(values.shape)[:, 1:-1]
        trunc = np.max(np.abs(np.diff(values, 3)), axis=1) / (6.0 * self.h)
        scale = np.maximum(np.maximum(np.max(np.abs(fd), axis=1),
                                      np.max(np.abs(supplied), axis=1)), 1.0)
        limit = np.maximum(10.0 * trunc + 1e-6 * scale, 0.5 * scale)
        worst = np.max(np.abs(fd - supplied), axis=1)
        if np.any(worst > limit):
            k = int(np.argmax(worst > limit))
            where = f" in row {k}" if self.values.ndim == 2 else ""
            raise InvalidGrid(
                f"supplied derivatives disagree with the sampled values{where} "
                f"(max gap {worst[k]:.3g} vs tolerance {limit[k]:.3g})"
            )

    @property
    def a(self) -> float:
        return float(self.grid[0])

    @property
    def b(self) -> float:
        return float(self.grid[-1])

    @property
    def n(self) -> int:
        return self.grid.size - 1

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def deriv_values(self) -> np.ndarray:
        """Exact derivatives when supplied, else second-order differences."""
        if self.derivs is not None:
            return np.asarray(self.derivs)
        return fd_deriv(self.values, self.h)

    @classmethod
    def from_callable(cls, fn, a: float, b: float, n: int,
                      deriv=None, label: str = "f") -> "GridFunction":
        grid = uniform_grid(a, b, n)
        values = _sample(fn, grid)
        derivs = None if deriv is None else _sample(deriv, grid)
        return cls(grid=grid, values=values, derivs=derivs, label=label)
