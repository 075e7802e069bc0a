"""Verification suites: each check passes under its canonical configuration."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fracvar import (
    KernelSpec,
    caputo_deriv_ns,
    kernel_eval,
    kernel_prefactor,
    rl_deriv_ns,
    NormalizationFunction,
    OrderFunction,
    SUITE_NAMES,
    SuiteConfig,
    default_suite_run,
    identity_warp,
    standard_corpus,
)
from fracvar import analysis, fde
from fracvar.analysis import (
    check_axiom_limits,
    check_boundedness,
    check_comparison_suite,
    check_limit_interchange,
    check_lipschitz,
    check_max_point,
    check_vanish_at_a,
)
from fracvar.errors import InvalidParam
from fracvar.grids import GridFunction, uniform_grid
from fracvar.kernel import _ml_kernel
from fracvar.operators import _KernelTable, make_special_case


def spec_for(alpha, gamma=1.0, beta=1.0):
    return KernelSpec(gamma=gamma, beta=beta,
                      order=OrderFunction.constant(alpha),
                      warp=identity_warp(),
                      norm=NormalizationFunction.one(),
                      interval=(0.0, 1.0))


def test_suite_names_fixed():
    assert SUITE_NAMES == ("boundedness", "lipschitz", "limit_interchange",
                           "axiom_limits", "max_point", "vanish_at_a",
                           "comparison")


def test_corpus_is_deterministic_per_seed():
    a = standard_corpus(seed=5, random_count=3)
    b = standard_corpus(seed=5, random_count=3)
    c = standard_corpus(seed=6, random_count=3)
    probe = 0.37
    assert [f.fn(probe) for f in a] == [f.fn(probe) for f in b]
    assert a[-1].fn(probe) != c[-1].fn(probe)
    # six fixed functions lead every corpus
    assert [f.label for f in a[:6]] == ["one", "t", "t^2", "sin_pi_t",
                                        "cos_t", "exp_t"]


@pytest.mark.parametrize("seed", [0, 3, 107])
def test_corpus_array_calls_match_float_calls(seed):
    ts = np.linspace(-0.5, 2.0, 101)
    for tf in standard_corpus(seed, 8):
        for fn in (tf.fn, tf.deriv):
            whole = np.broadcast_to(np.asarray(fn(ts), dtype=float), ts.shape)
            single = np.array([fn(float(t)) for t in ts])
            assert np.all(np.abs(whole - single) <= 1e-15 * np.abs(single)), tf.label


@pytest.mark.parametrize("n", [64, 1024])
def test_corpus_stacks_match_each_function_alone(n):
    # the suites sample the corpus in stacks, the trigonometric polynomials
    # from one table of harmonics per grid; each row is what on() gives for
    # its function alone, bit for bit, and every stack stays within the budget
    tfs = standard_corpus(seed=9, random_count=20)
    rows = 0
    for lo, f in analysis._corpus_stacks(tfs, 0.0, 1.0, n):
        assert f.values.size <= max(analysis._STACK, n + 1)
        for k in range(f.values.shape[0]):
            alone = tfs[lo + k].on(0.0, 1.0, n)
            assert np.array_equal(f.values[k], alone.values), tfs[lo + k].label
            assert np.array_equal(f.derivs[k], alone.derivs), tfs[lo + k].label
        rows += f.values.shape[0]
    assert rows == len(tfs)


@pytest.mark.parametrize("n", [64, 1024])
def test_grid_samples_match_fn_and_deriv(n):
    # on() takes one product per polynomial against a table of harmonics,
    # fn and deriv sum term by term: they agree at the nodes to a few
    # rounding errors of the sum of |coefficients| (times j pi for deriv)
    eps = np.finfo(float).eps
    jpi = np.arange(1, 7) * math.pi
    for tf in standard_corpus(seed=4, random_count=12):
        f = tf.on(0.0, 1.0, n)
        assert f.values.shape == f.derivs.shape == (n + 1,)
        if tf.harmonics is None:
            continue
        a_sin, a_cos = tf.harmonics[0][:6], tf.harmonics[0][6:]
        value_scale = np.sum(np.abs(a_sin) + np.abs(a_cos))
        deriv_scale = np.sum(jpi * (np.abs(a_sin) + np.abs(a_cos)))
        assert np.max(np.abs(f.values - tf.fn(f.grid))) <= 32 * eps * value_scale, tf.label
        assert np.max(np.abs(f.derivs - tf.deriv(f.grid))) <= 32 * eps * deriv_scale, tf.label


def test_corpus_derivatives_are_consistent():
    for tf in standard_corpus(seed=2, random_count=2):
        g = tf.on(0.0, 1.0, 128)   # GridFunction validates supplied derivs
        assert g.n == 128


class TestIndividualChecks:
    def test_boundedness_canonical(self):
        cfg = SuiteConfig(spec=spec_for(0.9),
                          test_functions=standard_corpus(seed=1, random_count=6),
                          n=256)
        report = check_boundedness(cfg)
        assert report.passed
        assert report.cases_run == 24  # 12 functions x 2 operators
        assert any("bound factor" in note for note in report.notes)

    def test_boundedness_proven_bound_is_nearly_reached(self):
        # a step of f near b drives both derivatives past 1.9 P ||f||, the
        # factor-1 estimate, yet they stay within the proven bounds
        spec = spec_for(0.9)
        tf = analysis.TestFunction(
            "tanh", lambda t: np.tanh(1000.0 * (t - 0.97)),
            lambda t: 1000.0 * (1.0 - np.tanh(1000.0 * (t - 0.97)) ** 2))
        f = tf.on(0.0, 1.0, 8192)
        norm = kernel_prefactor(spec, 1.0) * np.max(np.abs(f.values))
        for op, proven in ((caputo_deriv_ns, 2.0),
                           (rl_deriv_ns, 2.0 - kernel_eval(spec, 1.0, 0.0))):
            sup = np.max(np.abs(op(spec, f).values.values))
            assert sup > 1.9 * norm, op.__name__
            assert sup <= proven * norm, op.__name__
        report = check_boundedness(SuiteConfig(spec, (tf,), n=8192))
        assert report.passed
        assert any("largest factor-1 ratio 1.9" in note for note in report.notes)

    def test_lipschitz_stability(self):
        cfg = SuiteConfig(spec=spec_for(0.5),
                          test_functions=standard_corpus(seed=4, random_count=2),
                          n=256)
        report = check_lipschitz(cfg)
        assert report.passed
        assert any("theta" in note for note in report.notes)

    def test_limit_interchange_identity_warp(self):
        # the suite sums 16 Taylor terms: the final-gap tolerance expects
        # the Taylor tail to be down at roundoff, which 8 terms are not
        cfg = SuiteConfig(spec=spec_for(0.5),
                          test_functions=standard_corpus(seed=0, random_count=0),
                          n=256)
        report = check_limit_interchange(cfg)
        assert report.passed

    def test_axiom_limits(self):
        cfg = SuiteConfig(spec=spec_for(0.5, gamma=0.5, beta=0.5),
                          test_functions=standard_corpus(seed=0, random_count=1),
                          n=256)
        report = check_axiom_limits(cfg)
        assert report.passed
        assert any("kernel |H-1|" in note for note in report.notes)

    def test_max_point(self):
        cfg = SuiteConfig(spec=spec_for(0.5),
                          test_functions=standard_corpus(seed=3, random_count=4),
                          n=512)
        report = check_max_point(cfg)
        assert report.passed

    def test_vanish_at_a(self):
        cfg = SuiteConfig(spec=spec_for(0.5),
                          test_functions=standard_corpus(seed=0, random_count=2),
                          n=256)
        report = check_vanish_at_a(cfg)
        assert report.passed

    def test_comparison_suite(self):
        report = check_comparison_suite(spec_for(0.5), n=128, count=10, seed=0)
        assert report.passed
        assert report.cases_run == 10


def _pairwise_max_ratio(cfg, n):
    """The Lipschitz suite's worst ratio from one call per pair difference
    and derivative, the difference given its exact derivative: the
    reference for _max_ratio, which takes the gaps by linearity."""
    a, b = cfg.spec.interval
    fs = [tf.on(a, b, n) for tf in cfg.test_functions]
    worst = 0.0
    for i, fi in enumerate(fs):
        for fj in fs[i + 1 :]:
            dnorm = float(np.max(np.abs(fi.values - fj.values)))
            if dnorm < 1e-14:
                continue
            diff = GridFunction(grid=fi.grid, values=fi.values - fj.values,
                                derivs=fi.derivs - fj.derivs)
            for op in (rl_deriv_ns, caputo_deriv_ns):
                worst = max(worst, float(np.max(np.abs(op(cfg.spec, diff).values.values)))
                            / dnorm)
    return worst


@pytest.mark.parametrize("spec", [
    make_special_case("caputo_fabrizio", 0.5),
    make_special_case("log_warp", 0.5, interval=(1.0, 2.0), gamma=0.5, beta=0.5),
])
def test_lipschitz_ratio_by_linearity_matches_pair_differences(spec):
    cfg = SuiteConfig(spec=spec, test_functions=standard_corpus(seed=11, random_count=4))
    got, want = analysis._max_ratio(cfg, 512), _pairwise_max_ratio(cfg, 512)
    assert abs(got - want) <= 1e-12 * want, (got, want)


def test_lipschitz_calls_each_derivative_once_per_corpus_stack(monkeypatch):
    # with stacks of 4100 doubles the 10 functions take 2 stacks at n = 512
    # and 3 at n = 1024; each derivative is called once on each, with the
    # corpus's exact derivatives, and the report is the one-stack report
    [canonical] = default_suite_run("lipschitz", seed=0)
    calls = []

    def spied(op):
        def call(spec, f):
            assert f.derivs is not None
            calls.append((op.__name__, f.values.shape))
            return op(spec, f)
        return call

    for op in (rl_deriv_ns, caputo_deriv_ns):
        monkeypatch.setattr(analysis, op.__name__, spied(op))
    monkeypatch.setattr(analysis, "_STACK", 4 * 1025)
    [report] = default_suite_run("lipschitz", seed=0)
    assert calls == [(name, (rows, n + 1))
                     for n, stacks in ((512, (7, 3)), (1024, (4, 4, 2)))
                     for rows in stacks for name in ("rl_deriv_ns", "caputo_deriv_ns")]
    assert report.cases_run == canonical.cases_run == 90
    assert report.notes == canonical.notes and report.passed


def _batched_kernel_deviation(spec, eps, n):
    """max |H(t_i, t_j) - 1| over j <= i at every (n // 128)-th node, the
    rows laid end to end in batches of about 3072 values, one _ml_kernel
    call per batch: the reference for the axiom suite's table rows."""
    psi = spec.warp.values(np.linspace(*spec.interval, n + 1))
    batches, size = [[]], 0
    for i in range(0, n + 1, max(1, n // 128)):
        if size > 3072:
            batches.append([])
            size = 0
        batches[-1].append(i)
        size += i + 1
    return max(float(np.max(np.abs(_ml_kernel(spec, eps, np.concatenate(
        [np.maximum(psi[i] - psi[: i + 1], 0.0) for i in batch])) - 1.0)))
        for batch in batches)


@pytest.mark.parametrize("gamma, beta, path", [(0.5, 0.5, "soe"), (0.7, 0.6, "rows")])
def test_axiom_kernel_deviations_match_batched_kernel_calls(gamma, beta, path, monkeypatch):
    # on the log warp the kernel table is not Toeplitz, and its rows are
    # fresh kernel evaluations: each deviation the suite reports is the one
    # the batched kernel calls give
    n = 256
    spec = make_special_case("log_warp", 0.5, interval=(1.0, 2.0), gamma=gamma, beta=beta)
    seen = []
    deviation = analysis._kernel_deviation

    def recorded(spec_eps, m):
        assert _KernelTable(spec_eps, uniform_grid(1.0, 2.0, m)).path == path
        seen.append((spec_eps, deviation(spec_eps, m)))
        return seen[-1][1]

    monkeypatch.setattr(analysis, "_kernel_deviation", recorded)
    cfg = SuiteConfig(spec=spec, test_functions=standard_corpus(seed=0, random_count=0), n=n)
    report = check_axiom_limits(cfg)
    assert len(seen) == len(analysis._EPSILONS)
    for eps, (spec_eps, dev) in zip(analysis._EPSILONS, seen):
        want = _batched_kernel_deviation(spec_eps, eps, n)
        assert abs(dev - want) <= 1e-15 * want, (eps, dev, want)
    note = next(note for note in report.notes if note.startswith("kernel |H-1|"))
    assert note == "kernel |H-1|: " + ", ".join(
        f"{eps:g}->{dev:.3e}" for eps, (_, dev) in zip(analysis._EPSILONS, seen))


def test_default_run_unknown_suite():
    with pytest.raises(InvalidParam):
        default_suite_run("spectral_gap")


def test_default_boundedness_marks_warped_runs_informational():
    reports = default_suite_run("boundedness", seed=0)
    names = [r.suite_name for r in reports]
    assert names == ["boundedness", "boundedness[log]", "boundedness[sin]"]
    assert not reports[0].informational
    assert reports[1].informational and reports[2].informational
    assert all(r.passed for r in reports)


def test_default_vanish_run_passes():
    reports = default_suite_run("vanish_at_a", seed=0)
    assert len(reports) == 1
    assert reports[0].passed
    assert reports[0].cases_run > 0


def test_default_run_of_every_suite_passes():
    # every canonical suite at seed 0, in the order and with the case counts
    # that `verify --suite all` reports
    reports = [r for name in SUITE_NAMES for r in default_suite_run(name, seed=0)]
    assert [r.suite_name for r in reports] == [
        "boundedness", "boundedness[log]", "boundedness[sin]", "lipschitz",
        "limit_interchange[identity]", "limit_interchange[log]", "limit_interchange[sin]",
        "axiom_limits", "max_point", "vanish_at_a", "comparison"]
    assert [r.informational for r in reports] == [False, True, True] + [False] * 8
    assert [r.cases_run for r in reports] == [212, 52, 52, 90, 64, 64, 64, 51, 12, 30, 100]
    assert all(r.passed for r in reports if not r.informational)


def test_default_run_calls_the_check_bound_when_it_runs(monkeypatch):
    # a check replaced after import (a monkeypatch, a timing wrapper) is the
    # one that runs, with the canonical configuration of each run
    seen = []

    def fake(cfg):
        seen.append(cfg)
        return analysis.SuiteReport("boundedness", cases_run=0, failures=[])

    monkeypatch.setattr(analysis, "check_boundedness", fake)
    reports = default_suite_run("boundedness", seed=2)
    assert [r.suite_name for r in reports] == [
        "boundedness", "boundedness[log]", "boundedness[sin]"]
    assert [(cfg.spec.warp.label, cfg.spec.interval, cfg.spec.alpha_at(cfg.spec.interval[0]),
             cfg.n, len(cfg.test_functions)) for cfg in seen] == [
        ("t", (0.0, 1.0), 0.9, 1024, 106), ("ln(t)", (1.0, 2.0), 0.9, 512, 26),
        ("sin(t)", (0.0, 1.0), 0.9, 512, 26)]
    # the warped runs take the first functions of the canonical corpus
    labels = [tf.label for tf in seen[0].test_functions]
    assert labels[6] == "trig[9:0]"
    assert all([tf.label for tf in cfg.test_functions] == labels[:26] for cfg in seen[1:])
    assert "informational" in reports[1].notes[-1] and not reports[0].notes

    compared = []

    def fake_comparison(spec, **kwargs):
        compared.append(kwargs)
        return analysis.SuiteReport("comparison", cases_run=0, failures=[])

    monkeypatch.setattr(analysis, "check_comparison_suite", fake_comparison)
    [report] = default_suite_run("comparison", seed=2)
    assert compared == [{"n": 256, "seed": 2}] and report.suite_name == "comparison"


def test_failed_suite_reports_case_observed_bound_and_margin(monkeypatch):
    # with no room for the calibration to move under refinement the
    # Lipschitz suite fails, and its failure says by how much
    monkeypatch.setitem(analysis._TOLS, "lipschitz", 0.0)
    [report] = default_suite_run("lipschitz", seed=0)
    assert not report.passed
    [failure] = report.failures
    assert failure["case"] == "theta refinement stability"
    assert failure["observed"] > 0.0 and failure["bound"] == 0.0
    assert failure["margin"] == -failure["observed"]


def _reports_one_by_one(us, Q):
    """fde._comparison_reports case by case, as a loop: the reference for
    its row-wise form."""
    reports = []
    for uv, row in zip(us, Q):
        tol = 1e-7 * max(1.0, float(np.max(np.abs(uv))))
        max_q = float(np.max(row))
        if max_q > tol:
            reports.append(fde.ComparisonReport(False, max_q, 0, None, tol))
            continue
        bad = np.nonzero(uv > tol)[0]
        worst = int(bad[np.argmax(uv[bad])]) if bad.size else None
        reports.append(fde.ComparisonReport(True, max_q, int(bad.size), worst, tol))
    return reports


def _suite_failures(reports):
    """The comparison suite's failures, built from fde.check_comparison reports."""
    failures = []
    for case, rep in enumerate(reports, 1):
        if not rep.applicable:
            failures.append(analysis._failure(f"case {case} not applicable",
                                              rep.max_inequality, 0.0))
        elif rep.violations:
            failures.append(analysis._failure(f"case {case} conclusion", rep.violations, 0.0))
    return failures


@pytest.mark.parametrize("seed", [0, 3, 450])
def test_comparison_suite_gives_what_check_comparison_gives_on_the_cases(seed):
    # the suite reads its reports off the stacks that admitted the cases,
    # without a second Caputo call; fde.check_comparison on the yielded cases
    # gives the same reports, stacked or one case at a time
    spec = make_special_case("caputo_fabrizio", 0.5)
    cases = list(fde.comparison_cases(spec, 256, 100, seed))
    grid = cases[0][0].grid
    u, q = (GridFunction(grid=grid, values=np.array([f.values for f in column]))
            for column in zip(*cases))
    reports = fde.check_comparison(spec, u, q)
    assert reports == [fde.check_comparison(spec, uc, qc) for uc, qc in cases]
    us, _, Q = map(np.concatenate, zip(*fde._comparison_blocks(spec, grid, 100, seed)))
    assert fde._comparison_reports(us, Q) == _reports_one_by_one(us, Q) == reports
    report = check_comparison_suite(spec, seed=seed)
    assert report.cases_run == len(reports) == 100
    assert report.failures == _suite_failures(reports)


def test_comparison_suite_takes_one_caputo_call_per_case(monkeypatch):
    # the rows the suite differentiates are the candidates of the admission
    # calls: no case is differentiated again for its check
    spec = make_special_case("caputo_fabrizio", 0.5)
    rows = []

    def counted(spec, u):
        rows.append(u.values.reshape(-1, u.grid.size).shape[0])
        return caputo_deriv_ns(spec, u)

    monkeypatch.setattr(fde, "caputo_deriv_ns", counted)
    monkeypatch.setattr(analysis, "caputo_deriv_ns", counted)
    assert len(list(fde.comparison_cases(spec, 256, 100, 0))) == 100
    admission, rows[:] = list(rows), []
    report = check_comparison_suite(spec, seed=0)
    assert report.cases_run == 100 and report.passed
    assert rows == admission and sum(rows) >= 100


def test_comparison_suite_reports_conclusion_and_applicability_failures(monkeypatch):
    # one admitted case with u > 0 at three nodes, one whose D_c u + q u
    # is positive at a node: the suite names each case and what it saw
    grid = uniform_grid(0.0, 1.0, 256)
    u, q = -np.ones((3, grid.size)), np.ones((3, grid.size))
    Q = -np.ones_like(u)
    u[1, 10:13] = [0.5, 0.7, 0.7]
    Q[2, 7] = 0.25

    def blocks(spec, grid_, count, seed):
        assert np.array_equal(grid_, grid) and (count, seed) == (100, 0)
        yield u[:2], q[:2], Q[:2]
        yield u[2:], q[2:], Q[2:]

    monkeypatch.setattr(fde, "_comparison_blocks", blocks)
    report = check_comparison_suite(make_special_case("caputo_fabrizio", 0.5), seed=0)
    assert report.cases_run == 3 and not report.passed
    assert report.failures == [
        {"case": "case 2 conclusion", "observed": 3, "bound": 0.0, "margin": -3.0},
        {"case": "case 3 not applicable", "observed": 0.25, "bound": 0.0, "margin": -0.25},
    ]
    assert fde._comparison_reports(u, Q) == _reports_one_by_one(u, Q)
    clean, violated, inapplicable = fde._comparison_reports(u, Q)
    assert clean == fde.ComparisonReport(True, -1.0, 0, None, 1e-7)
    assert violated == fde.ComparisonReport(True, -1.0, 3, 11, 1e-7)
    assert inapplicable == fde.ComparisonReport(False, 0.25, 0, None, 1e-7)


# --- every suite reports what a broken operator does ----------------------------


def _mutant(monkeypatch, name, change):
    """Make analysis call its operator `name` with change(values, spec)
    applied in place to the output values; returns the true operator."""
    real = getattr(analysis, name)

    def mutated(spec, f):
        result = real(spec, f)
        change(result.values.values, spec)
        return result

    monkeypatch.setattr(analysis, name, mutated)
    return real


def _assert_failures(report, want):
    """report's failures are want's (case, observed, bound), in order."""
    assert not report.passed
    assert [f["case"] for f in report.failures] == [case for case, _, _ in want]
    for failure, (case, observed, bound) in zip(report.failures, want):
        assert failure["observed"] == pytest.approx(observed, rel=1e-12, abs=0.0), case
        assert failure["bound"] == pytest.approx(bound, rel=1e-12, abs=0.0), case


def test_boundedness_reports_a_scaled_derivative(monkeypatch):
    # D_c 1000 times too large breaks |D_c f| <= 2 P ||f|| wherever D_c f != 0
    spec = spec_for(0.9)
    tfs = standard_corpus(seed=1, random_count=1)
    real = _mutant(monkeypatch, "caputo_deriv_ns", lambda v, spec: np.multiply(v, 1e3, out=v))
    report = check_boundedness(SuiteConfig(spec, tfs, n=128))
    want = []
    for tf in tfs[1:]:  # D_c of the constant is 0
        f = tf.on(0.0, 1.0, 128)
        want.append((f"{tf.label}:caputo", 1e3 * np.max(np.abs(real(spec, f).values.values)),
                     2.0 * (kernel_prefactor(spec, 1.0) * np.max(np.abs(f.values)))))
    _assert_failures(report, want)


def test_lipschitz_reports_an_infinite_ratio(monkeypatch):
    # D_rl infinite on the first corpus function: every gap to it is infinite
    _mutant(monkeypatch, "rl_deriv_ns", lambda v, spec: v[0].fill(math.inf))
    report = check_lipschitz(SuiteConfig(spec_for(0.5), standard_corpus(seed=4, random_count=2),
                                         n=256))
    [failure] = report.failures
    assert failure["case"] == "ratio finite"
    assert failure["observed"] == math.inf and failure["bound"] == math.inf


def test_lipschitz_reports_a_nan_ratio(monkeypatch):
    # D_rl NaN on the first corpus function: a max that drops NaN would pass
    _mutant(monkeypatch, "rl_deriv_ns", lambda v, spec: v[0].fill(math.nan))
    report = check_lipschitz(SuiteConfig(spec_for(0.5), standard_corpus(seed=4, random_count=2),
                                         n=256))
    [failure] = report.failures
    assert failure["case"] == "ratio finite"
    assert report.notes == ["calibrated theta = nan (n=256), nan (n=512)"]


def test_lipschitz_names_the_nan_ratio_it_observed(monkeypatch):
    # the "ratio finite" failure records the first non-finite ratio, so a NaN
    # ratio reads as NaN, not as the infinite bound
    _mutant(monkeypatch, "rl_deriv_ns", lambda v, spec: v[0].fill(math.nan))
    report = check_lipschitz(SuiteConfig(spec_for(0.5), standard_corpus(seed=4, random_count=2),
                                         n=256))
    [failure] = report.failures
    assert math.isnan(failure["observed"]) and failure["bound"] == math.inf


def test_limit_interchange_reports_an_offset_integral(monkeypatch):
    # I1 plus the ramp t on [0, 1]: the gaps grow toward 1 along the Taylor
    # sums, past the I1 proof bound and the final-gap tolerance
    spec, n = spec_for(0.5), 256
    grid = uniform_grid(0.0, 1.0, n)
    real = _mutant(monkeypatch, "aux_integral_1", lambda v, spec: np.add(v, grid, out=v))
    report = check_limit_interchange(SuiteConfig(spec, standard_corpus(0, 0), n=n))
    limit, partial, term = np.exp(grid), [np.ones(grid.size)], np.ones(grid.size)
    for j in range(1, analysis._SEQ_LEN + 1):
        term *= grid / j
        partial.append(partial[-1] + term)
    gaps, dnorms = [], []
    for k in range(1, analysis._SEQ_LEN + 1):
        diff = GridFunction(grid=grid, values=partial[k] - limit,
                            derivs=partial[k - 1] - limit)
        gaps.append(float(np.max(np.abs(real(spec, diff).values.values + grid))))
        dnorms.append(float(np.max(np.abs(diff.values))))
    want = []
    for k in range(1, analysis._SEQ_LEN + 1):
        if gaps[k - 1] > dnorms[k - 1]:
            want.append((f"I1 proof bound k={k}", gaps[k - 1], dnorms[k - 1]))
        if k > 1 and gaps[k - 1] > gaps[k - 2] * (1.0 + 1e-6) + 1e-12:
            want.append((f"I1 monotone decay k={k}", gaps[k - 1], gaps[k - 2]))
    want.append(("I1 final gap", gaps[-1], analysis._TOLS["limit_interchange"]))
    cases = [case for case, _, _ in want]
    assert "I1 proof bound k=1" in cases and "I1 monotone decay k=2" in cases
    _assert_failures(report, want)


def test_axiom_limits_reports_kernel_and_limit_failures(monkeypatch):
    # H off by 1 at every order, and D_c offset by 1e-8 / alpha: its error
    # against f(t) - f(a) grows as the order falls to 1e-6
    spec, n = spec_for(0.5, gamma=0.5, beta=0.5), 256
    deviation = analysis._kernel_deviation
    monkeypatch.setattr(analysis, "_kernel_deviation",
                        lambda spec_eps, m: deviation(spec_eps, m) + 1.0)
    real = _mutant(monkeypatch, "caputo_deriv_ns",
                   lambda v, spec: np.add(v, 1e-8 / spec.alpha_at(0.0), out=v))
    tfs = standard_corpus(0, 0)
    report = check_axiom_limits(SuiteConfig(spec, tfs, n=n))
    specs = [replace(spec, order=OrderFunction.constant(eps)) for eps in analysis._EPSILONS]
    want = [(f"kernel deviation eps={eps:g}", deviation(spec_eps, n) + 1.0, 3.0 * eps + 1e-12)
            for eps, spec_eps in zip(analysis._EPSILONS, specs)]
    for tf in tfs:
        f = tf.on(0.0, 1.0, n)
        errs = [float(np.max(np.abs(real(spec_eps, f).values.values + 1e-8 / eps
                                    - (f.values - f.values[0]))))
                for eps, spec_eps in zip(analysis._EPSILONS, specs)]
        scale = max(1.0, float(np.max(np.abs(f.values))))
        want += [(f"{tf.label}:caputo monotone in eps", errs[2], errs[1]),
                 (f"{tf.label}:caputo limit error", errs[2],
                  analysis._TOLS["axiom_limits"] * scale)]
    _assert_failures(report, want)


def test_max_point_reports_a_sign_flipped_derivative(monkeypatch):
    # with beta != gamma the suite collapses beta onto gamma; a sign-flipped
    # D_c falls below the kernel bound and below 0 at every interior or
    # right-end maximum
    spec, n = spec_for(0.5, gamma=0.5, beta=0.8), 256
    collapsed = replace(spec, beta=0.5)
    real = _mutant(monkeypatch, "caputo_deriv_ns", lambda v, spec: np.negative(v, out=v))
    tfs = standard_corpus(seed=3, random_count=0)
    report = check_max_point(SuiteConfig(spec, tfs, n=n))
    want = []
    for tf in tfs:
        f = tf.on(0.0, 1.0, n)
        i0 = int(np.argmax(f.values))
        if i0 == 0:  # one and cos_t: D_c f(a) = 0, flipped or not
            continue
        t0, value = float(f.grid[i0]), -float(real(collapsed, f).values.values[i0])
        lower = (kernel_prefactor(collapsed, t0) * kernel_eval(collapsed, t0, 0.0)
                 * (f.values[i0] - f.values[0]))
        want += [(f"{tf.label} vs kernel bound", value, lower),
                 (f"{tf.label} nonnegative", value, 0.0)]
    assert [case for case, _, _ in want][::2] == [
        f"{label} vs kernel bound" for label in ("t", "t^2", "sin_pi_t", "exp_t")]
    _assert_failures(report, want)


def test_vanish_at_a_reports_an_offset_derivative(monkeypatch):
    # D_c offset by 0.01 is not 0 at t = a, and its first step grows like 0.01 / h
    spec = spec_for(0.5)
    real = _mutant(monkeypatch, "caputo_deriv_ns", lambda v, spec: np.add(v, 0.01, out=v))
    tfs = standard_corpus(0, 0)[:2]  # one, t
    report = check_vanish_at_a(SuiteConfig(spec, tfs))
    sizes = (256, 512, 1024)
    want = []
    for tf in tfs:
        ratios, ceilings = [], []
        for n in sizes:
            f = tf.on(0.0, 1.0, n)
            ratios.append(abs(float(real(spec, f).values.values[1]) + 0.01) / f.h)
            ceilings.append(analysis._TOLS["vanish_ratio"] * kernel_prefactor(spec, 0.0)
                            * float(np.max(np.abs(f.deriv_values()))) + 1e-12)
        want += [(f"{tf.label} exact zero n={n}", 0.01, 0.0) for n in sizes]
        want.append((f"{tf.label} first-node ratio", max(ratios), max(ceilings)))
    _assert_failures(report, want)
