"""Uniform grids and sampled functions with derivative consistency checks."""

import numpy as np
import pytest

from fracvar.errors import InvalidGrid
from fracvar.grids import GridFunction, fd_deriv, uniform_grid


def test_uniform_grid_shape_and_endpoints():
    g = uniform_grid(0.0, 2.0, 8)
    assert g.shape == (9,)
    assert g[0] == 0.0 and g[-1] == 2.0


def test_uniform_grid_minimum_panels():
    with pytest.raises(InvalidGrid):
        uniform_grid(0.0, 1.0, 7)


def test_fd_deriv_second_order_on_sine():
    for n in (64, 128):
        g = uniform_grid(0.0, 1.0, n)
        d = fd_deriv(np.sin(g), float(g[1] - g[0]))
        err = np.max(np.abs(d - np.cos(g)))
        assert err < 2.0 / n**2


def test_fd_deriv_exact_on_quadratic():
    g = uniform_grid(-1.0, 1.0, 32)
    d = fd_deriv(g * g, float(g[1] - g[0]))
    assert np.max(np.abs(d - 2 * g)) < 1e-13


class TestGridFunction:
    def test_from_callable_with_supplied_derivative(self):
        f = GridFunction.from_callable(np.exp, 0.0, 1.0, 32, deriv=np.exp)
        assert f.n == 32
        assert f.h == pytest.approx(1.0 / 32)
        assert np.array_equal(f.deriv_values(), np.exp(f.grid))

    def test_from_callable_samples_the_whole_grid_in_one_call(self):
        seen = []

        def fn(t):
            seen.append(np.shape(t))
            return np.cos(t)

        f = GridFunction.from_callable(fn, 0.0, 1.0, 32, deriv=lambda t: -np.sin(t))
        assert seen == [(33,)]
        assert np.array_equal(f.values, np.cos(f.grid))
        # a constant result is broadcast to the grid
        c = GridFunction.from_callable(lambda t: 2.0, 0.0, 1.0, 32, deriv=lambda t: 0.0)
        assert c.values.shape == c.derivs.shape == (33,)
        assert np.all(c.values == 2.0) and np.all(c.derivs == 0.0)

    def test_fd_fallback_when_deriv_missing(self):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 64)
        assert np.max(np.abs(f.deriv_values() - np.cos(f.grid))) < 1e-3

    def test_rejects_nonuniform_grid(self):
        g = np.concatenate([np.linspace(0, 0.5, 6), np.linspace(0.6, 1.0, 6)])
        with pytest.raises(InvalidGrid):
            GridFunction(grid=g, values=np.zeros(12))

    def test_rejects_decreasing_grid(self):
        with pytest.raises(InvalidGrid):
            GridFunction(grid=np.linspace(1.0, 0.0, 16), values=np.zeros(16))

    def test_rejects_too_few_nodes(self):
        with pytest.raises(InvalidGrid):
            GridFunction(grid=np.linspace(0, 1, 5), values=np.zeros(5))

    def test_rejects_nonfinite_values(self):
        g = uniform_grid(0.0, 1.0, 16)
        vals = np.ones(17)
        vals[3] = np.inf
        with pytest.raises(InvalidGrid):
            GridFunction(grid=g, values=vals)

    def test_rejects_inconsistent_supplied_derivative(self):
        g = uniform_grid(0.0, 1.0, 64)
        with pytest.raises(InvalidGrid):
            GridFunction(grid=g, values=np.sin(g), derivs=np.zeros(g.size))

    def test_accepts_exact_supplied_derivative(self):
        g = uniform_grid(0.0, 1.0, 64)
        f = GridFunction(grid=g, values=np.sin(g), derivs=np.cos(g))
        assert f.a == 0.0 and f.b == 1.0


class TestStacks:
    def test_fd_deriv_acts_along_the_last_axis(self):
        g = uniform_grid(0.0, 1.0, 64)
        h = float(g[1] - g[0])
        rows = np.array([np.sin(g), g**3, np.exp(g)])
        whole = fd_deriv(rows, h)
        for k in range(3):
            assert np.array_equal(whole[k], fd_deriv(rows[k], h))

    def test_accepts_a_stack_with_consistent_rows(self):
        g = uniform_grid(0.0, 1.0, 64)
        f = GridFunction(grid=g, values=np.array([np.sin(g), 1e6 * np.cos(g)]),
                         derivs=np.array([np.cos(g), -1e6 * np.sin(g)]))
        assert f.n == 64 and f.values.shape == (2, 65)
        assert np.array_equal(f.deriv_values(), f.derivs)

    def test_rejects_a_stack_row_whose_derivs_disagree(self):
        # f itself passed as f' in row 1; with maxima over the whole stack,
        # row 0's scale of 1e6 would hide the gap of about 1 in row 1
        g = uniform_grid(0.0, 1.0, 64)
        values = np.array([1e6 * np.sin(g), np.sin(g) + 2.0])
        derivs = np.array([1e6 * np.cos(g), np.sin(g) + 2.0])
        with pytest.raises(InvalidGrid, match="row 1"):
            GridFunction(grid=g, values=values, derivs=derivs)
        # each row alone: the first passes, the second fails
        GridFunction(grid=g, values=values[0], derivs=derivs[0])
        with pytest.raises(InvalidGrid):
            GridFunction(grid=g, values=values[1], derivs=derivs[1])

    def test_rejects_stacks_of_the_wrong_shape(self):
        g = uniform_grid(0.0, 1.0, 16)
        with pytest.raises(InvalidGrid):
            GridFunction(grid=g, values=np.zeros((2, 16)))
        with pytest.raises(InvalidGrid):
            GridFunction(grid=g, values=np.zeros((2, 2, 17)))
        with pytest.raises(InvalidGrid):
            GridFunction(grid=g, values=np.zeros((2, 17)), derivs=np.zeros(17))


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)])
def test_uniform_grid_rejects_a_bad_interval(a, b):
    with pytest.raises(InvalidGrid, match="bad interval"):
        uniform_grid(a, b, 16)


def test_non_finite_derivs_rejected():
    grid = uniform_grid(0.0, 1.0, 16)
    derivs = np.ones(grid.size)
    derivs[3] = np.nan
    with pytest.raises(InvalidGrid, match="derivs contain non-finite entries"):
        GridFunction(grid=grid, values=grid.copy(), derivs=derivs)
