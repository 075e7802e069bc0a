"""Implicit solver for the bounded-kernel Caputo-type equation.

The linear oracle: with the exponential kernel (alpha constant, gamma =
beta = 1, M = 1) and compatibility correction on, the equation
D_c u = lam u collapses to the scalar ODE
(1/(1-alpha) - lam ... ) -- worked through: u' = alpha lam u /
(1 - (1-alpha) lam), so u(t) = u0 exp(alpha lam t / (1 - (1-alpha) lam)).
At alpha = 1/2, lam = -1 that is u0 exp(-t/3).
"""

import math

import numpy as np
import pytest

from fracvar import (
    FdeProblem,
    GridFunction,
    LinearBound,
    OrderFunction,
    check_comparison,
    comparison_cases,
    kernel_prefactor,
    kernel_values,
    make_special_case,
    sandwich_check,
    solve_fde,
    uniform_grid,
    uniqueness_probe,
)
from fracvar.errors import (
    BoundViolation,
    HypothesisViolation,
    InvalidParam,
    NewtonDivergence,
)
from fracvar import fde, operators
from fracvar.fde import MAX_NEWTON, NEWTON_TOL, _solve_node
from fracvar.kernel import KernelSpec, NormalizationFunction, identity_warp
from fracvar.operators import _KernelTable

CF = make_special_case("caputo_fabrizio", alpha=0.5, interval=(0.0, 1.0))


def linear_oracle(t, u0=1.0, lam=-1.0, alpha=0.5):
    rate = alpha * lam / (1.0 - (1.0 - alpha) * lam)
    return u0 * np.exp(rate * np.asarray(t))


class TestLinearClosedForm:
    def test_decay_solution(self):
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u, initial=1.0, grid_n=1024)
        report = solve_fde(problem)
        expected = linear_oracle(report.solution.grid)
        assert abs(report.solution.values[-1] - math.exp(-1.0 / 3.0)) < 1e-5
        assert np.max(np.abs(report.solution.values - expected)) < 1e-5
        assert report.corrected

    def test_refinement_improves_by_three(self):
        def err(n):
            problem = FdeProblem(spec=CF, rhs=lambda t, u: -u, initial=1.0, grid_n=n)
            sol = solve_fde(problem).solution
            return np.max(np.abs(sol.values - linear_oracle(sol.grid)))

        assert err(512) < err(256) / 3.0

    def test_zero_rhs_keeps_solution_constant(self):
        problem = FdeProblem(spec=CF, rhs=lambda t, u: 0.0, initial=0.7, grid_n=64)
        sol = solve_fde(problem).solution
        assert np.max(np.abs(sol.values - 0.7)) < 1e-13

    def test_residual_certification_reported(self):
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u + math.sin(t),
                             initial=0.0, grid_n=256)
        report = solve_fde(problem)
        assert report.residual_norm < 1e-9
        assert int(np.max(report.newton_iters)) <= 5

    def test_deterministic_reruns(self):
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u ** 3 - u,
                             initial=1.0, grid_n=128)
        one = solve_fde(problem).solution.values
        two = solve_fde(problem).solution.values
        assert np.array_equal(one, two)


SOE_SPEC = make_special_case("log_warp", alpha=0.4, interval=(1.0, 2.0), gamma=0.5, beta=0.5)


def _march_route(spec, n):
    """The path of the solver's kernel table: toeplitz, soe or rows, and
    "soe exact" for soe on the exponential kernel's exact rule (one rate,
    weights None for w = 1)."""
    table = _KernelTable(spec, uniform_grid(*spec.interval, n))
    if table.path == "soe" and table._rule[1] is None:
        assert table._rule[0].size == 1
        return "soe exact"
    return table.path


@pytest.mark.parametrize("spec, n, route", [
    (make_special_case("atangana", alpha=0.5, interval=(0.0, 1.0)), 128, "toeplitz"),
    (make_special_case("log_warp", alpha=0.4, interval=(1.0, 2.0), gamma=0.7, beta=0.6),
     128, "rows"),
    (make_special_case("log_warp", alpha=0.4, interval=(1.0, 2.0)), 128, "soe exact"),
    # at n = 128 this rule would need more rates than nodes and take rows
    (SOE_SPEC, 512, "soe"),
], ids=["toeplitz", "log_warp", "exp_log_warp", "soe_log_warp"])
@pytest.mark.parametrize("corrected", [True, False])
def test_residual_matches_direct_collocation(spec, n, route, corrected, monkeypatch):
    # D_h u(t_i) = P_i sum_j c_ij (u_j - u_{j-1}) recomputed node by node from
    # public kernel rows, independent of the solver's history sums
    def rhs(t, u):
        return -u ** 3 - u + math.sin(math.pi * t)

    def direct(report):
        grid, u = report.solution.grid, report.solution.values
        f0 = rhs(float(grid[0]), 1.0)
        gaps, scaled = [], []
        for i in range(1, grid.size):
            row = kernel_values(spec, grid[i], grid[: i + 1])
            c = 0.5 * (row[:-1] + row[1:])
            P = kernel_prefactor(spec, grid[i])
            dh = P * float(np.dot(c, np.diff(u[: i + 1])))
            target = rhs(float(grid[i]), float(u[i])) - (row[0] * f0 if corrected else 0.0)
            gaps.append(abs(dh - target))
            scaled.append(gaps[-1] / max(1.0, abs(target), P))
        return max(gaps), max(scaled)

    assert _march_route(spec, n) == route
    problem = FdeProblem(spec=spec, rhs=rhs, initial=1.0, grid_n=n)
    # Newton stops at a scaled residual of NEWTON_TOL, so the reported norm
    # sits near 1e-10 by default and must be the same maximum
    report = solve_fde(problem, compat_correction=corrected)
    assert report.residual_norm < 10.0 * NEWTON_TOL
    assert abs(direct(report)[1] - report.residual_norm) < 1e-12
    monkeypatch.setattr(fde, "NEWTON_TOL", 1e-13)
    tight = solve_fde(problem, compat_correction=corrected)
    assert direct(tight)[0] < 1e-12


def test_march_passes_rhs_python_floats():
    # numpy scalars from the solution array would make every Newton iterate,
    # and so every rhs call, run on numpy scalar arithmetic
    seen = set()

    def rhs(t, u):
        seen.add((type(t), type(u)))
        return -u ** 3 - u + math.sin(math.pi * t)

    for spec, n in ((CF, 64), (make_special_case("atangana", alpha=0.5, interval=(0.0, 1.0)), 64),
                    (SOE_SPEC, 512)):
        solve_fde(FdeProblem(spec=spec, rhs=rhs, initial=1.0, grid_n=n))
    assert _march_route(SOE_SPEC, 512) == "soe"
    assert seen == {(float, float)}


def _cubic(t, u):
    return -u ** 3 - u + math.sin(math.pi * t)


@pytest.mark.parametrize("spec, route", [
    (CF, "soe exact"),
    (make_special_case("atangana", alpha=0.5, interval=(0.0, 1.0)), "toeplitz"),
    (SOE_SPEC, "soe"),
], ids=["exp", "toeplitz", "soe"])
@pytest.mark.parametrize("rhs", [lambda t, u: -1.3 * u, _cubic], ids=["linear", "cubic"])
def test_solve_makes_three_rhs_calls_per_node(rhs, spec, route, request):
    # on the warm secant slope each node costs two calls in the nodal solve
    # and one in the residual certification; f(a, u0) and node 1's central
    # difference add three (a central-difference slope per step made five),
    # on each route of the march
    if rhs is _cubic and route != "soe exact":
        request.applymarker(pytest.mark.xfail(strict=True, reason=(
            "gamma = beta = 1/2: the first 166 (Toeplitz) or 360 (soe) of the 4096 nodes "
            "take a second secant step on the cubic, 12461 or 12654 calls in all")))
    n = 4096
    assert _march_route(spec, n) == route
    calls = []

    def counted(t, u):
        calls.append(u)
        return rhs(t, u)

    problem = FdeProblem(spec=spec, rhs=counted, initial=1.0, grid_n=n)
    calls.clear()  # the problem's own finiteness check samples rhs too
    solve_fde(problem)
    assert len(calls) <= 3 * n + 3


def test_stale_slope_takes_a_fresh_one(monkeypatch):
    # the u-slope of rhs jumps from -1 to -40 at t = 0.5: the previous node's
    # slope overshoots there, and the solver must recover without bisection
    # and land where a tight Newton tolerance does
    def rhs(t, u):
        return -u if t < 0.5 else -40.0 * u

    problem = FdeProblem(spec=CF, rhs=rhs, initial=1.0, grid_n=4096)
    report = solve_fde(problem)
    jump = int(np.searchsorted(problem.grid(), 0.5))  # node index of t >= 0.5
    assert int(np.max(report.newton_iters)) <= MAX_NEWTON
    assert report.newton_iters[jump - 1] > 2  # the warm step failed there
    monkeypatch.setattr(fde, "NEWTON_TOL", 1e-13)
    tight = solve_fde(problem).solution.values
    u = report.solution.values
    assert np.max(np.abs(u - tight)) <= 1e-12 * np.max(np.abs(tight))


@pytest.mark.parametrize("spec, route", [
    (make_special_case("log_warp", alpha=0.6, interval=(1.0, 3.0)), "soe exact"),
    (make_special_case("log_warp", alpha=0.5, interval=(1.0, 2.0), gamma=0.5, beta=0.5), "soe"),
    (make_special_case("variable_ml", alpha=OrderFunction.from_expr("0.5 + 0.2*t",
                                                                    interval=(0.0, 1.0))),
     "soe"),
    (make_special_case("atangana", alpha=0.5, interval=(0.0, 1.0)), "toeplitz"),
], ids=["exp_log_warp", "soe_log_warp", "soe_tracked", "toeplitz"])
def test_march_matches_rows_march(spec, route, monkeypatch):
    # the march on its own path against one kernel row per node
    n = 2048
    assert _march_route(spec, n) == route
    problem = FdeProblem(spec=spec, rhs=lambda t, u: -u ** 3 - u + math.sin(math.pi * t),
                         initial=1.0, grid_n=n)
    fast = solve_fde(problem).solution.values
    monkeypatch.setattr(_KernelTable, "march", _rows_march)
    rows = solve_fde(problem).solution.values
    assert np.max(np.abs(fast - rows)) <= 1e-11 * np.max(np.abs(rows))


def _rows_march(table):
    """The march as one kernel row and one O(i) dot per node, on any path:
    the O(n^2) reference."""
    steps = np.zeros(table.n)
    for i in range(1, table.n + 1):
        row = table.row(i)
        c = 0.5 * (row[:-1] + row[1:])
        steps[i - 1] = yield (float(row[0]), float(row[i - 1]),
                              float(c[: i - 1] @ steps[: i - 1]))


def _march_yields(table, reference):
    """The yields of table.march() and of the reference march for one random
    sequence of steps, as two (n, 3) arrays. The march's first two floats
    must be H(t_i, a) and H(t_i, t_{i-1}) of the table's rows, exactly."""
    n = table.n
    steps = np.random.default_rng(n).standard_normal(n).tolist()
    yields = []
    for march in (table.march(), reference):
        out = [march.send(None)]
        out += [march.send(du) for du in steps[:-1]]
        yields.append(np.array(out))
    rows = [table.row(i) for i in range(1, n + 1)]
    assert np.array_equal(yields[0][:, :2], [(row[0], row[-2]) for row in rows])
    return yields


def _direct_dot_march(g):
    """The Toeplitz march as one O(i) dot per node: the reference for the
    blocked march, with c_ij = (g[i-j-1] + g[i-j]) / 2."""
    n = g.size - 1
    c = 0.5 * (g[1:] + g[:-1])
    steps = np.zeros(n)
    for i in range(1, n + 1):
        steps[i - 1] = yield float(g[i]), float(g[1]), float(c[i - 1 : 0 : -1] @ steps[: i - 1])


@pytest.mark.parametrize("n", [40, 130, 1000, 4099, 8192])
@pytest.mark.parametrize("gamma, beta", [(0.5, 0.5), (0.7, 0.6)])
def test_blocked_toeplitz_march_matches_direct_dots(gamma, beta, n, monkeypatch):
    # the blocked march (aligned near-field blocks of 64 nodes, far-field
    # products on dyadic blocks) against one dot per node: the memories for
    # one random sequence of steps, then the solutions; n = 40 is near field
    # only, 130 has only far-field products of h = 64 and 128, and 4099
    # leaves a partial last block
    spec = KernelSpec(gamma=gamma, beta=beta, order=OrderFunction.constant(0.4),
                      warp=identity_warp(), norm=NormalizationFunction.one(),
                      interval=(0.0, 1.0))
    table = _KernelTable(spec, uniform_grid(0.0, 1.0, n))
    assert table.path == "toeplitz"
    blocked, direct = _march_yields(table, _direct_dot_march(table._base[::2]))
    assert np.array_equal(blocked[:, :2], direct[:, :2])
    assert np.max(np.abs(blocked[:, 2] - direct[:, 2])) <= 1e-13 * np.max(np.abs(direct[:, 2]))

    problem = FdeProblem(spec=spec, rhs=lambda t, u: -u ** 3 - u + math.sin(math.pi * t),
                         initial=1.0, grid_n=n)
    monkeypatch.setattr(fde, "NEWTON_TOL", 1e-13)
    fast = solve_fde(problem).solution.values
    monkeypatch.setattr(_KernelTable, "march", lambda self: _direct_dot_march(self._base[::2]))
    slow = solve_fde(problem).solution.values
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


ROWS_SPEC = make_special_case("log_warp", alpha=0.4, interval=(1.0, 2.0), gamma=0.7, beta=0.6)


@pytest.mark.parametrize("n", [40, 130, 1000])
def test_rows_march_matches_direct_dots(n, monkeypatch):
    # the same loop on rows takes no far field and one dot per node, so its
    # memories and the solution are the reference's exactly
    table = _KernelTable(ROWS_SPEC, uniform_grid(1.0, 2.0, n))
    assert table.path == "rows"
    march, direct = _march_yields(table, _rows_march(table))
    assert np.array_equal(march, direct)
    problem = FdeProblem(spec=ROWS_SPEC, rhs=_cubic, initial=1.0, grid_n=n)
    fast = solve_fde(problem).solution.values
    monkeypatch.setattr(_KernelTable, "march", _rows_march)
    assert np.array_equal(fast, solve_fde(problem).solution.values)


def test_rows_solve_evaluates_node_rows_only(monkeypatch):
    # n (n + 3) / 2 kernel values in the march and (n + 1) (n + 2) / 2 in the
    # residual certification, which sums nodes alone: no half-step rows
    n, count = 128, []
    real = operators._ml_kernel

    def counted(spec, alpha, s):
        count.append(np.size(s))
        return real(spec, alpha, s)

    monkeypatch.setattr(operators, "_ml_kernel", counted)
    assert _march_route(ROWS_SPEC, n) == "rows"
    count.clear()
    solve_fde(FdeProblem(spec=ROWS_SPEC, rhs=_cubic, initial=1.0, grid_n=n))
    assert sum(count) == n * (n + 3) // 2 + (n + 1) * (n + 2) // 2 == 16769


class TestCompatibilityCorrection:
    def test_raw_mode_jumps_on_incompatible_data(self):
        # f(a, u0) = -1 != 0: the discrete equation as written forces an
        # immediate drop toward 2/3 of u0 on the first node
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u, initial=1.0, grid_n=512)
        raw = solve_fde(problem, compat_correction=False)
        corrected = solve_fde(problem)
        assert raw.solution.values[1] < 0.75
        assert corrected.solution.values[1] > 0.95
        assert not raw.corrected
        assert raw.compat_gap == pytest.approx(1.0)

    def test_modes_agree_for_compatible_data(self):
        # u0 = 0 and f(a, 0) = 0: nothing to correct
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u + t, initial=0.0,
                             grid_n=256)
        raw = solve_fde(problem, compat_correction=False).solution.values
        cor = solve_fde(problem).solution.values
        assert np.max(np.abs(raw - cor)) < 1e-12
        assert solve_fde(problem).compat_gap == 0.0


class TestValidationAndFailure:
    def test_grid_floor(self):
        with pytest.raises(InvalidParam):
            FdeProblem(spec=CF, rhs=lambda t, u: -u, initial=1.0, grid_n=8)

    def test_rhs_must_be_finite(self):
        with pytest.raises(InvalidParam):
            FdeProblem(spec=CF, rhs=lambda t, u: float("nan"), initial=1.0,
                       grid_n=64)

    def test_discontinuous_rhs_fails_certification(self):
        # a jump in u leaves no root for the implicit step; the safeguarded
        # search lands on the jump and the residual check must refuse it
        problem = FdeProblem(spec=CF,
                             rhs=lambda t, u: 10.0 if u < 0.5 else -10.0,
                             initial=0.0, grid_n=64)
        with pytest.raises(NewtonDivergence):
            solve_fde(problem)

    def test_nan_in_the_certification_fails_it(self):
        # the last rhs call certifies node n; a NaN there is no residual
        # below the bound, so the certification must refuse it, not report it
        def problem(rhs):
            return FdeProblem(spec=CF, rhs=rhs, initial=1.0, grid_n=64)

        clean = []
        solve_fde(problem(lambda t, u: clean.append(t) or -u))
        assert clean[-1] == 1.0

        calls = []

        def rhs(t, u):
            calls.append(t)
            return math.nan if len(calls) == len(clean) else -u

        with pytest.raises(NewtonDivergence, match="residual certification failed") as exc:
            solve_fde(problem(rhs))
        assert exc.value.node == 64

    def test_nodal_solver_falls_back_to_bisection(self):
        # x + 1 = x^3 + x: at the start 0 the slope 1 - (3x^2 + 1) vanishes
        # (its central difference is about -1e-14), so the step on that fresh
        # slope is thrown to |x| ~ 1e14; the root x = 1 must come from the
        # bracket search, which leaves no slope
        tol = 1e-12
        root, iters, dr = _solve_node(lambda t, x: x ** 3 + x, 0.0, 1.0, 0.0, 1.0,
                                      0.0, tol, 1)
        assert abs(root - 1.0) <= tol
        assert iters > MAX_NEWTON
        assert dr is None

    def test_nodal_solver_without_a_bracket_diverges(self):
        # x = x^2 + x + 1 has no real root: g = -(x^2 + 1) < 0 everywhere, so
        # Newton stops on its zero slope at 0 and the bracket grows 64 times
        # without a sign change
        with pytest.raises(NewtonDivergence, match="no bracket") as exc:
            _solve_node(lambda t, x: x * x + x + 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1e-10, 3)
        assert exc.value.node == 3

    def test_bisection_that_cannot_close_its_bracket_stalls(self):
        # g(x) = x from 1e50 brackets [0, 2e50] at once; with tol 0 and the
        # root at 0, 200 halvings leave a bracket near 1e-10, far above the
        # 1e-15 width that would end the search
        with pytest.raises(NewtonDivergence, match="bisection stalled") as exc:
            fde._bisect(lambda x: x, 1e50, 0.0, 7)
        assert exc.value.node == 7

    def test_nodal_solver_leaves_newton_after_a_useless_step(self):
        # the same equation: the first step lands near 1e14 and raises |g|
        # from 1 to 1e42, so the bracket search starts at once instead of
        # after all MAX_NEWTON steps
        calls = []

        def rhs(t, x):
            calls.append(x)
            return x ** 3 + x

        root, iters, _ = _solve_node(rhs, 0.0, 1.0, 0.0, 1.0, 0.0, 1e-12, 1)
        assert abs(root - 1.0) <= 1e-12
        assert iters > MAX_NEWTON
        assert len(calls) < 100


class TestComparison:
    def test_negative_constant_is_applicable_and_clean(self):
        grid = uniform_grid(0.0, 1.0, 128)
        u = GridFunction(grid=grid, values=np.full(grid.size, -1.0),
                         derivs=np.zeros(grid.size))
        q = GridFunction(grid=grid, values=np.ones(grid.size))
        report = check_comparison(CF, u, q)
        assert report.applicable
        assert report.violations == 0

    def test_positive_function_fails_the_inequality_hypothesis(self):
        grid = uniform_grid(0.0, 1.0, 128)
        u = GridFunction(grid=grid, values=np.ones(grid.size),
                         derivs=np.zeros(grid.size))
        q = GridFunction(grid=grid, values=np.ones(grid.size))
        report = check_comparison(CF, u, q)
        assert not report.applicable

    def test_q_hypotheses_enforced(self):
        grid = uniform_grid(0.0, 1.0, 128)
        u = GridFunction(grid=grid, values=-np.ones(grid.size),
                         derivs=np.zeros(grid.size))
        with pytest.raises(HypothesisViolation):
            check_comparison(CF, u, GridFunction(grid=grid,
                                                 values=-np.ones(grid.size)))
        q0 = np.ones(grid.size)
        q0[0] = 0.0
        with pytest.raises(HypothesisViolation):
            check_comparison(CF, u, GridFunction(grid=grid, values=q0))

    def test_generated_cases_never_violate(self):
        clean = 0
        for u, q in comparison_cases(CF, n=256, count=25, seed=3):
            report = check_comparison(CF, u, q)
            assert report.applicable
            assert report.violations == 0
            clean += 1
        assert clean == 25

    def test_stacked_check_gives_the_reports_of_single_checks(self):
        # one stacked Caputo call serves every case, applicable or not
        grid = uniform_grid(0.0, 1.0, 128)
        pairs = [(u.values, q.values) for u, q in comparison_cases(CF, n=128, count=5, seed=2)]
        pairs.append((np.ones(grid.size), np.ones(grid.size)))
        us, qs = (GridFunction(grid=grid, values=np.array(column)) for column in zip(*pairs))
        stacked = check_comparison(CF, us, qs)
        assert [rep.applicable for rep in stacked] == [True] * 5 + [False]
        assert stacked == [check_comparison(CF, GridFunction(grid=grid, values=uv),
                                            GridFunction(grid=grid, values=qv))
                           for uv, qv in pairs]

    def test_generator_is_deterministic(self):
        first = [u.values.copy() for u, _ in comparison_cases(CF, n=128, count=3,
                                                              seed=11)]
        second = [u.values.copy() for u, _ in comparison_cases(CF, n=128, count=3,
                                                               seed=11)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 16, 17, 45])
    def test_first_cases_do_not_depend_on_the_count(self, k):
        # a larger count only draws further blocks: its first k cases are
        # the cases of count = k
        want = list(comparison_cases(CF, n=128, count=k, seed=7))
        got = list(comparison_cases(CF, n=128, count=100, seed=7))[:k]
        assert len(want) == k
        for (u, q), (wu, wq) in zip(got, want):
            assert np.array_equal(u.values, wu.values) and np.array_equal(q.values, wq.values)

    @pytest.mark.parametrize("seed", [0, 450])
    def test_every_case_meets_the_hypotheses(self, seed):
        for u, q in comparison_cases(CF, n=256, count=100, seed=seed):
            assert np.min(q.values) > 1e-3
            report = check_comparison(CF, u, q)
            assert report.applicable and report.violations == 0
            assert report.max_inequality <= 0.0

    @pytest.mark.parametrize("count", [1, 3])
    def test_generator_stalls_before_candidate_fifty_times_count(self, count, monkeypatch):
        # an operator that admits nothing: the generator raises once the
        # stall guard is spent, and no candidate past it reaches the operator
        real = fde.caputo_deriv_ns
        rows = []

        def admits_nothing(spec, u):
            result = real(spec, u)
            values = result.values.values.reshape(-1, u.grid.size)
            rows.append(values.shape[0])
            values[:] = 1e300
            return result

        monkeypatch.setattr(fde, "caputo_deriv_ns", admits_nothing)
        with pytest.raises(InvalidParam, match="stalled"):
            list(comparison_cases(CF, n=64, count=count, seed=0))
        assert rows and max(rows) <= fde._DRAWS
        assert 0 < sum(rows) <= 50 * count

    def test_stall_guard_counts_single_candidates(self, monkeypatch):
        # only the k-th candidate that reaches the operator is admitted;
        # count = 1 allows 50 draws, whatever the block size
        real = fde.caputo_deriv_ns

        def outcome(k, draws):
            seen = [0]

            def one_admitted(spec, u):
                result = real(spec, u)
                rows = result.values.values.reshape(-1, u.grid.size)
                rows[:] = 1e300
                if seen[0] < k <= seen[0] + rows.shape[0]:
                    rows[k - 1 - seen[0]] = -1e300
                seen[0] += rows.shape[0]
                return result

            monkeypatch.setattr(fde, "caputo_deriv_ns", one_admitted)
            monkeypatch.setattr(fde, "_DRAWS", draws)
            try:
                return len(list(comparison_cases(CF, n=64, count=1, seed=0)))
            except InvalidParam:
                return "stalled"

        single = {k: outcome(k, 1) for k in range(40, 56)}
        assert set(single.values()) == {1, "stalled"}
        for k, want in single.items():
            assert outcome(k, 16) == want, k


class TestUniqueness:
    def test_dissipative_rhs_reconverges(self):
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u ** 3 - u,
                             initial=1.0, grid_n=256)
        report = uniqueness_probe(problem, perturbations=4, seed=0)
        assert report.runs == 5
        assert report.max_divergence < 1e-8
        assert report.max_slope <= 1e-9

    @pytest.mark.parametrize("name, interval, alpha", [
        ("log_warp", (1.0, 2.0), 0.5),
        ("variable_ml", (0.0, 1.0), "0.4 + 0.2*t"),
    ])
    def test_reconverges_off_the_toeplitz_path(self, name, interval, alpha):
        if isinstance(alpha, str):
            alpha = OrderFunction.from_expr(alpha, interval=interval)
        spec = make_special_case(name, alpha=alpha, interval=interval)
        problem = FdeProblem(spec=spec, rhs=lambda t, u: -u ** 3 - u + math.sin(t),
                             initial=1.0, grid_n=128)
        report = uniqueness_probe(problem, perturbations=3, seed=5)
        assert report.runs == 4
        assert report.max_divergence < 1e-8

    @pytest.mark.parametrize("perturbations", [1, 3])
    def test_one_generator_per_perturbation(self, perturbations, monkeypatch):
        # every start of perturbation k comes from one generator, not one
        # generator per node
        made = []
        real = np.random.default_rng

        def counted(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u ** 3 - u,
                             initial=1.0, grid_n=256)
        report = uniqueness_probe(problem, perturbations=perturbations, seed=2)
        assert len(made) == perturbations
        assert report.runs == perturbations + 1 and report.max_divergence < 1e-8

    def test_increasing_rhs_rejected(self):
        problem = FdeProblem(spec=CF, rhs=lambda t, u: u, initial=1.0,
                             grid_n=64)
        with pytest.raises(HypothesisViolation):
            uniqueness_probe(problem, perturbations=2, seed=0)


class TestSandwich:
    def test_degenerate_bounds_pin_the_solution(self):
        # rhs is itself linear: both comparison problems are the original
        # problem, so the enclosure is equality
        grid = uniform_grid(0.0, 1.0, 256)
        h = GridFunction(grid=grid, values=0.3 * np.cos(grid))
        problem = FdeProblem(spec=CF,
                             rhs=lambda t, u: -u + 0.3 * math.cos(t),
                             initial=0.2, grid_n=256)
        report = sandwich_check(problem, LinearBound(-1.0, h), LinearBound(-1.0, h))
        assert report.bound_check.violations == 0
        gap = np.max(np.abs(report.bound_check.upper.values
                            - report.bound_check.lower.values))
        assert gap < 1e-12
        assert np.max(np.abs(report.solution.values
                             - report.bound_check.upper.values)) < 1e-9

    def test_proper_enclosure(self):
        grid = uniform_grid(0.0, 1.0, 512)
        up = GridFunction(grid=grid, values=np.full(grid.size, 0.5))
        lo = GridFunction(grid=grid, values=np.full(grid.size, -0.5))
        problem = FdeProblem(spec=CF,
                             rhs=lambda t, u: -u + 0.5 * math.sin(t),
                             initial=0.0, grid_n=512)
        report = sandwich_check(problem, LinearBound(-1.0, lo), LinearBound(-1.0, up))
        assert report.bound_check.violations == 0
        assert np.all(report.bound_check.upper.values
                      >= report.solution.values - 1e-9)

    def test_rhs_outside_the_corridor_is_a_hypothesis_violation(self):
        grid = uniform_grid(0.0, 1.0, 64)
        up = GridFunction(grid=grid, values=np.zeros(grid.size))
        lo = GridFunction(grid=grid, values=np.full(grid.size, -1.0))
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u + 1.0,
                             initial=0.0, grid_n=64)
        with pytest.raises(HypothesisViolation):
            sandwich_check(problem, LinearBound(-1.0, lo), LinearBound(-1.0, up))

    def test_rhs_below_the_lower_bound_is_a_hypothesis_violation(self):
        grid = uniform_grid(0.0, 1.0, 64)
        up = GridFunction(grid=grid, values=np.zeros(grid.size))
        lo = GridFunction(grid=grid, values=np.ones(grid.size))
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u, initial=0.0, grid_n=64)
        with pytest.raises(HypothesisViolation, match="undercuts the lower"):
            sandwich_check(problem, LinearBound(-1.0, lo), LinearBound(-1.0, up))

    def test_enclosure_failure_is_a_bound_violation(self):
        # a kick of 5 at node 130 only: the hypotheses are sampled at every
        # 4th node and hold there, but u leaves the corridor v = 0 at 130
        n = 256
        grid = uniform_grid(0.0, 1.0, n)
        zero = GridFunction(grid=grid, values=np.zeros(grid.size))
        problem = FdeProblem(spec=CF,
                             rhs=lambda t, u: -u + (5.0 if round(t * n) == 130 else 0.0),
                             initial=0.0, grid_n=n)
        with pytest.raises(BoundViolation) as exc:
            sandwich_check(problem, LinearBound(-1.0, zero), LinearBound(-1.0, zero))
        assert exc.value.node == 130

    def test_lam_must_be_negative(self):
        grid = uniform_grid(0.0, 1.0, 64)
        h = GridFunction(grid=grid, values=np.zeros(grid.size))
        with pytest.raises(InvalidParam):
            LinearBound(0.0, h)

    def test_bound_grid_must_match(self):
        h = GridFunction(grid=uniform_grid(0.0, 1.0, 32),
                         values=np.zeros(33))
        problem = FdeProblem(spec=CF, rhs=lambda t, u: -u, initial=0.0,
                             grid_n=64)
        with pytest.raises(InvalidParam):
            sandwich_check(problem, LinearBound(-1.0, h), LinearBound(-1.0, h))


def test_solve_report_rejects_a_negative_residual():
    grid = uniform_grid(0.0, 1.0, 16)
    with pytest.raises(InvalidParam, match="residual_norm must be >= 0"):
        fde.SolveReport(solution=GridFunction(grid=grid, values=np.zeros(grid.size)),
                        newton_iters=np.zeros(16, dtype=int), residual_norm=-1e-3,
                        compat_gap=0.0, corrected=True, scales=np.ones(16))


def test_comparison_needs_u_and_q_on_one_grid():
    grid = uniform_grid(0.0, 1.0, 128)
    u = GridFunction(grid=grid, values=-np.ones(grid.size), derivs=np.zeros(grid.size))
    q = GridFunction(grid=uniform_grid(0.0, 2.0, 128), values=np.ones(grid.size))
    with pytest.raises(InvalidParam, match="u and q must share one grid"):
        check_comparison(CF, u, q)


def test_uniqueness_probe_needs_a_perturbation():
    problem = FdeProblem(spec=CF, rhs=lambda t, u: -u, initial=1.0, grid_n=64)
    with pytest.raises(InvalidParam, match="need at least one perturbation"):
        uniqueness_probe(problem, perturbations=0)
