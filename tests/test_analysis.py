"""Verification suites: each check passes under its canonical configuration."""

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
from fracvar import analysis
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
    # from one table of harmonics per grid; each row is what fn and deriv
    # give alone, bit for bit, and every stack stays within the budget
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
    assert [r.cases_run for r in reports] == [212, 52, 52, 90, 64, 64, 64, 51, 12, 30, 100]
    assert all(r.passed for r in reports if not r.informational)


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
