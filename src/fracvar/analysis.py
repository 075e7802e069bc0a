"""Numerical verification suites for the operator estimates.

Each check_* function takes a SuiteConfig (a kernel spec, a corpus and a
grid size) and returns a SuiteReport listing any observed violations; nothing
raises on a failed estimate, so callers can aggregate. default_suite_run runs
the canonical kernels, corpora and grids used by the command-line `verify`
command, one report per row of the table _RUNS (suite -> its runs), which is
also the one source of SUITE_NAMES and of each report's label and
informational flag; the tolerances are module constants.

The test-function corpus is fixed: {1, t, t^2, sin(pi t), cos t, e^t} plus
seeded random trigonometric polynomials of degree <= 6 whose coefficients
decay like 1/j^2. The decay keeps derivative norms moderate, so the
factor-1 boundedness ratio stays near 1; see the notes below.

The suites hand their functions to the operators as stacks (one operator
call per stack of _STACK doubles, not one per function): the corpus and the
Taylor-sum differences; Lipschitz pairs are differences of the corpus's
derivatives (with its exact f'), by linearity. Each row of a stacked result
equals the result for its function alone, so the verdicts and every reported
number are those of one call per function. A stack holds
2^15 doubles (31 functions at n = 1024): fewer, larger calls cut the
per-call overhead for under 1 MB of peak RSS (the figures are at _STACK).

Two estimates need calibrated context:

* The sup-norm estimate (prefactor P times the sup of f) is not a theorem:
  a steep f near b drives the derivatives to nearly 2 P sup|f|. The
  boundedness suite asserts the bounds that are, 2 P sup|f| for the
  Caputo-type derivative and (2 - H(b, a)) P sup|f| for the RL-type one
  (check_boundedness has the proof), and reports the factor-1 ratio. The
  canonical run uses order 0.9 on [0,1] with the identity warp; the log and
  sin warps run informationally.

* The Lipschitz constant contains an unspecified factor; the suite
  calibrates it empirically from the observed worst ratio and asserts the
  calibration is stable under grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import fde
from .errors import InvalidParam
from .grids import GridFunction, _sample, uniform_grid
from .kernel import (
    KernelSpec,
    OrderFunction,
    kernel_eval,
    kernel_prefactor,
)
from .operators import (
    _KernelTable,
    aux_integral_1,
    aux_integral_2,
    caputo_deriv_ns,
    make_special_case,
    rl_deriv_ns,
)

_TOLS = {
    "boundedness": 1e-9,
    "lipschitz": 0.05,
    "limit_interchange": 1e-9,
    "axiom_limits": 1e-3,
    "max_point": 1e-6,
    "vanish_ratio": 3.0,
}

# Taylor partial sums of e^t in limit_interchange: with 8 terms the tail is
# still above the final-gap tolerance, with 16 it is down at roundoff
_SEQ_LEN = 16

# orders approached in the order->0 limit, largest first
_EPSILONS = (1e-2, 1e-4, 1e-6)

# doubles per stacked array: the suites pass their functions to the
# operators in stacks of _STACK // (n + 1) rows, one call per stack. Against
# 6144 (5 functions at n = 1024), two bench/run.py pairs at seed 0 on a
# 2-core Xeon VM read verify_all wall_s 0.134/0.138 -> 0.109/0.121 s,
# call_s_tail 0.055/0.057 -> 0.041/0.046 s and peak RSS 45.9 -> 46.7/46.6 MB;
# 1 << 16 reads 3.2 MB more peak RSS (7 %, against the bench's 10 % bound).
_STACK = 1 << 15

# the harmonics j pi, j = 1..6, of the random trigonometric polynomials
_JPI = np.arange(1, 7, dtype=float) * math.pi

@dataclass(frozen=True)
class TestFunction:
    """A corpus function and its derivative, each taking a float or an ndarray.

    harmonics, for a trigonometric polynomial, holds its coefficients of
    sin(j pi t) and of cos(j pi t), j = 1..6; the suites sample such
    polynomials in stacks, from one table of sines and cosines per grid.
    """

    label: str
    fn: Callable
    deriv: Callable
    harmonics: tuple[np.ndarray, np.ndarray] | None = None

    def on(self, a: float, b: float, n: int) -> GridFunction:
        return GridFunction.from_callable(self.fn, a, b, n, deriv=self.deriv,
                                          label=self.label)


def _harmonic_sums(a_sin, a_cos, sin, cos):
    """(sum_j a_sin[j] sin[j] + a_cos[j] cos[j], sum_j j pi (a_sin[j] cos[j]
    - a_cos[j] sin[j])), j = 1..6 on the first axis of each argument: the
    values and derivatives of one trigonometric polynomial (coefficients of
    shape (6,)) or of a stack of m (shape (6, m, 1)). The harmonics are summed
    term by term in j into two buffers, the terms formed in two more, with
    no fresh temporaries per harmonic."""
    v = np.zeros(np.broadcast_shapes(a_sin.shape[1:], sin.shape[1:]))
    d, one, two = np.zeros_like(v), np.empty_like(v), np.empty_like(v)
    for j in range(_JPI.size):
        np.multiply(a_sin[j], sin[j], out=one)
        one += np.multiply(a_cos[j], cos[j], out=two)
        v += one
        np.multiply(a_sin[j], cos[j], out=one)
        one -= np.multiply(a_cos[j], sin[j], out=two)
        one *= _JPI[j]
        d += one
    return v, d


def _harmonics(t):
    """sin(j pi t) and cos(j pi t), j = 1..6 on the first axis."""
    x = np.moveaxis(np.multiply.outer(t, _JPI), -1, 0)
    return np.sin(x), np.cos(x)


def _trig_poly(seed: int, index: int) -> TestFunction:
    rng = np.random.default_rng(seed * 1000 + index)
    j = np.arange(1, 7, dtype=float)
    a_sin = rng.standard_normal(6) / j**2
    a_cos = rng.standard_normal(6) / j**2

    # t may be a float or an array; a float gives a numpy scalar
    def fn(t):
        return _harmonic_sums(a_sin, a_cos, *_harmonics(t))[0][()]

    def deriv(t):
        return _harmonic_sums(a_sin, a_cos, *_harmonics(t))[1][()]

    return TestFunction(label=f"trig[{seed}:{index}]", fn=fn, deriv=deriv,
                        harmonics=(a_sin, a_cos))


# the six fixed functions that lead every corpus
_FIXED = (
    TestFunction("one", lambda t: 1.0, lambda t: 0.0),
    TestFunction("t", lambda t: t, lambda t: 1.0),
    TestFunction("t^2", lambda t: t * t, lambda t: 2.0 * t),
    TestFunction("sin_pi_t", lambda t: np.sin(math.pi * t),
                 lambda t: math.pi * np.cos(math.pi * t)),
    TestFunction("cos_t", np.cos, lambda t: -np.sin(t)),
    TestFunction("exp_t", np.exp, np.exp),
)


def standard_corpus(seed: int = 0, random_count: int = 6) -> tuple[TestFunction, ...]:
    return _FIXED + tuple(_trig_poly(seed, k) for k in range(random_count))


def _stacks(count: int, grid: np.ndarray, rows: Callable):
    """(lo, stack) for the functions lo..hi-1 of count, in order: GridFunction
    stacks of at most _STACK doubles per array, from rows(lo, hi), which
    gives their values and their derivatives."""
    step = max(1, _STACK // grid.size)
    for lo in range(0, count, step):
        values, derivs = rows(lo, min(lo + step, count))
        yield lo, GridFunction(grid=grid, values=values, derivs=derivs, label="stack")


def _corpus_stacks(tfs: tuple[TestFunction, ...], a: float, b: float, n: int):
    """_stacks of the corpus tfs on the uniform n-panel grid over [a, b].

    The trigonometric polynomials of a stack go through _harmonic_sums at
    once, over one table of sin(j pi t) and cos(j pi t) for the grid: the
    routine their fn and deriv call alone, so each row is what fn and
    deriv give by construction."""
    grid = uniform_grid(a, b, n)
    # one contiguous row per harmonic
    sin, cos = (np.ascontiguousarray(h) for h in _harmonics(grid))

    def rows(lo, hi):
        values = np.empty((hi - lo, grid.size))
        derivs = np.empty_like(values)
        trig = [k for k, tf in enumerate(tfs[lo:hi]) if tf.harmonics is not None]
        # (6, m, 1) each: j first, one row per polynomial
        a_sin, a_cos = np.array([tfs[lo + k].harmonics for k in trig]).reshape(
            -1, 2, 6, 1).transpose(1, 2, 0, 3)
        values[trig], derivs[trig] = _harmonic_sums(a_sin, a_cos, sin, cos)
        for k, tf in enumerate(tfs[lo:hi]):
            if tf.harmonics is None:
                values[k], derivs[k] = _sample(tf.fn, grid), _sample(tf.deriv, grid)
        return values, derivs

    return _stacks(len(tfs), grid, rows)


def _sup(op, spec: KernelSpec, f: GridFunction) -> np.ndarray:
    """sup |op f| per row of the stack f."""
    return np.max(np.abs(op(spec, f).values.values), axis=-1)


@dataclass(frozen=True)
class SuiteConfig:
    spec: KernelSpec
    test_functions: tuple[TestFunction, ...]
    n: int = 512


@dataclass
class SuiteReport:
    suite_name: str
    cases_run: int
    failures: list
    notes: list = field(default_factory=list)
    informational: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures


def _failure(case: str, observed: float, bound: float) -> dict:
    return {"case": case, "observed": observed, "bound": bound,
            "margin": bound - observed}


# --- boundedness (sup-norm estimate) --------------------------------------------


def check_boundedness(cfg: SuiteConfig) -> SuiteReport:
    """sup |D f| against the bounds proven for a constant order and any
    increasing psi, with P = M(alpha) / (1 - alpha) and ||f|| = sup |f|:

        |D_c f| <= 2 P ||f||,   |D_rl f| <= (2 - H(b, a)) P ||f||.

    Proof: H(t, tau) = E_beta(-lam (psi(t) - psi(tau))^gamma) decreases in
    psi(t) - psi(tau), since E_beta(-x) is completely monotone, and
    H(t, t) = 1. So d_tau H >= 0 and int_a^t d_tau H dtau = 1 - H(t, a).
    Integrating by parts,

        D_c f(t) = P (f(t) - H(t, a) f(a) - int_a^t d_tau H f dtau),
        D_rl f(t) = P (f(t) - int_a^t d_tau H f dtau),

    the second because d_t H / psi'(t) = -d_tau H / psi'(tau). The weights
    of ||f|| add to 1 + H(t, a) + 1 - H(t, a) = 2 and to
    2 - H(t, a) <= 2 - H(b, a). Both bounds are sharp: f = tanh(k (t - t0)),
    t0 near b, approaches them as k grows. The factor-1 estimate
    |D f| <= P ||f|| is not a theorem; its largest ratio is reported as a
    note.
    """
    a, b = cfg.spec.interval
    alpha_b = cfg.spec.alpha_at(b)
    factor = kernel_prefactor(cfg.spec, b)
    rl_factor = 2.0 - kernel_eval(cfg.spec, b, a)
    tol = _TOLS["boundedness"]

    failures, worst = [], (0.0, "")
    ops = (("rl", rl_deriv_ns, rl_factor), ("caputo", caputo_deriv_ns, 2.0))
    for lo, f in _corpus_stacks(cfg.test_functions, a, b, cfg.n):
        norms = factor * np.max(np.abs(f.values), axis=1)
        observed = [_sup(op, cfg.spec, f) for _, op, _ in ops]
        for k, norm in enumerate(norms.tolist()):
            for (opname, _, proven), sups in zip(ops, observed):
                case = f"{cfg.test_functions[lo + k].label}:{opname}"
                if norm > 0.0:
                    worst = max(worst, (float(sups[k]) / norm, case))
                if sups[k] > proven * norm * (1.0 + tol):
                    failures.append(_failure(case, float(sups[k]), proven * norm))
    notes = [f"bound factor M(alpha(b))/(1-alpha(b)) = {factor:.6g} (alpha(b) = {alpha_b:.6g})",
             f"proven factors 2 (caputo), 2 - H(b, a) = {rl_factor:.6g} (rl); "
             "largest factor-1 ratio {:.6g} ({})".format(*worst)]
    return SuiteReport("boundedness", cases_run=2 * len(cfg.test_functions), failures=failures,
                       notes=notes)


# --- Lipschitz estimate with calibrated constant ---------------------------------


def _max_ratio(cfg: SuiteConfig, n: int) -> float:
    """max sup |D f_i - D f_j| / sup |f_i - f_j| over the corpus pairs and both
    derivatives, which are linear: one call each per stack gives every gap."""
    a, b = cfg.spec.interval
    count = len(cfg.test_functions)
    data = np.empty((3, count, n + 1))  # f, D_rl f and D_c f per function
    for lo, f in _corpus_stacks(cfg.test_functions, a, b, n):
        hi = lo + f.values.shape[0]
        data[0, lo:hi] = f.values
        data[1, lo:hi] = rl_deriv_ns(cfg.spec, f).values.values
        data[2, lo:hi] = caputo_deriv_ns(cfg.spec, f).values.values
    worst = 0.0
    for i in range(count - 1):
        diffs = np.max(np.abs(data[:, i + 1 :] - data[:, i, None]), axis=2)
        keep = ~(diffs[0] < 1e-14)  # degenerate pairs are skipped
        # np.maximum, not max: a NaN ratio must reach the "ratio finite" check
        worst = np.maximum(worst, np.max(diffs[1:, keep] / diffs[0, keep], initial=0.0))
    return float(worst)


def check_lipschitz(cfg: SuiteConfig) -> SuiteReport:
    a, b = cfg.spec.interval
    ratio_n = _max_ratio(cfg, cfg.n)
    ratio_2n = _max_ratio(cfg, 2 * cfg.n)
    denom = kernel_prefactor(cfg.spec, b) * kernel_eval(cfg.spec, b, a) * (b - a)
    theta_n = ratio_n / denom
    theta_2n = ratio_2n / denom
    failures = []
    bad = [ratio for ratio in (ratio_n, ratio_2n) if not math.isfinite(ratio)]
    if bad:  # the first non-finite ratio, inf or nan, as observed
        failures.append(_failure("ratio finite", bad[0], math.inf))
    rel = abs(theta_2n - theta_n) / max(theta_n, 1e-30)
    if rel > _TOLS["lipschitz"]:
        failures.append(_failure("theta refinement stability", rel,
                                 _TOLS["lipschitz"]))
    pairs = len(cfg.test_functions) * (len(cfg.test_functions) - 1) // 2
    return SuiteReport("lipschitz", cases_run=2 * pairs, failures=failures, notes=[
        f"calibrated theta = {theta_n:.6g} (n={cfg.n}), {theta_2n:.6g} (n={2 * cfg.n})"])


# --- limit interchange (sequence of Taylor partial sums) -------------------------


def check_limit_interchange(cfg: SuiteConfig) -> SuiteReport:
    """Gaps between operator values on f_k and on the limit f = e^t.

    By linearity the gap ||Op f_k - Op f|| is evaluated as ||Op(f_k - f)||;
    forming the two operator outputs first and subtracting would measure
    summation roundoff (~1e-13) against Taylor-tail bounds that reach 1e-15
    by k = 16, drowning the actual estimate. The reported final-gap note
    uses the subtracted form, which is the quantity the tolerance governs.
    The differences f_k - f, k = 1.._SEQ_LEN, go through each operator as
    stacks; the checks then run in k order.
    """
    a, b = cfg.spec.interval
    psi_span = cfg.spec.warp.fn(b) - cfg.spec.warp.fn(a)
    grid = uniform_grid(a, b, cfg.n)
    limit = np.exp(grid)
    # the Taylor partial sums of e^t with 0.._SEQ_LEN terms past the 1; the
    # derivative of partial sum k is partial sum k - 1
    partial = np.ones((_SEQ_LEN + 1, grid.size))
    term = np.ones(grid.size)
    for j in range(1, _SEQ_LEN + 1):
        term *= grid / j
        partial[j] = partial[j - 1] + term
    ops = {"I1": aux_integral_1, "I2": aux_integral_2, "D_rl": rl_deriv_ns,
           "D_c": caputo_deriv_ns}
    gaps = {name: [] for name in ops}

    def rows(lo, hi):
        return partial[lo + 1 : hi + 1] - limit, partial[lo:hi] - limit

    for _, diff in _stacks(_SEQ_LEN, grid, rows):
        for name, op in ops.items():
            gaps[name].extend(_sup(op, cfg.spec, diff).tolist())
    dnorms = np.max(np.abs(partial[1:] - limit), axis=1).tolist()

    failures = []
    prev = {name: math.inf for name in ops}
    for k in range(1, _SEQ_LEN + 1):
        bound = psi_span * dnorms[k - 1]
        if gaps["I1"][k - 1] > bound * (1.0 + 1e-10) + 1e-300:
            failures.append(_failure(f"I1 proof bound k={k}", gaps["I1"][k - 1], bound))
        for name in ops:
            value = gaps[name][k - 1]
            # 1e-12 absolute slack: past k ~ 12 the gaps sit on the roundoff
            # floor of the subtracted data and may wobble there
            if value > prev[name] * (1.0 + 1e-6) + 1e-12:
                failures.append(_failure(f"{name} monotone decay k={k}", value,
                                         prev[name]))
            prev[name] = value
    tol = _TOLS["limit_interchange"]
    for name, value in prev.items():
        if value > tol:
            failures.append(_failure(f"{name} final gap", value, tol))
    return SuiteReport("limit_interchange", cases_run=len(ops) * _SEQ_LEN, failures=failures,
                       notes=["final gaps: " + ", ".join(f"{k}={v:.3e}" for k, v in prev.items())])


# --- order limits ----------------------------------------------------------------


def _kernel_deviation(spec: KernelSpec, n: int) -> float:
    """max |H(t_i, t_j) - 1| over j <= i at every (n // 128)-th node of the
    uniform n-panel grid, read from the rows of the operators' kernel table."""
    table = _KernelTable(spec, uniform_grid(*spec.interval, n))
    return max(float(np.max(np.abs(table.row(i) - 1.0)))
               for i in range(0, n + 1, max(1, n // 128)))


def check_axiom_limits(cfg: SuiteConfig) -> SuiteReport:
    """Kernel and operator behavior as the order approaches 0 and 1.

    The order->0 statements are asserted (kernel -> 1, Caputo type ->
    f(t)-f(a), RL type -> f(t), with errors shrinking along _EPSILONS down
    to the grid floor; _kernel_deviation reads H from the rows the operators
    sum). The order->1 trend toward f' depends on the choice of
    normalization and is recorded in the notes, never asserted.
    """
    a, b = cfg.spec.interval
    failures = []
    notes = []
    cases = 0
    tol = _TOLS["axiom_limits"]

    kernel_devs = []
    specs = [replace(cfg.spec, order=OrderFunction.constant(eps)) for eps in _EPSILONS]
    for eps, spec_eps in zip(_EPSILONS, specs):
        dev = _kernel_deviation(spec_eps, cfg.n)
        kernel_devs.append((eps, dev))
        cases += 1
        span = spec_eps.warp.fn(b) - spec_eps.warp.fn(a)
        ceiling = 3.0 * max(1.0, span ** spec_eps.gamma_at(eps)) * eps + 1e-12
        if dev > ceiling:
            failures.append(_failure(f"kernel deviation eps={eps:g}", dev, ceiling))
    notes.append("kernel |H-1|: " + ", ".join(f"{e:g}->{d:.3e}"
                                              for e, d in kernel_devs))

    floor = 50.0 / cfg.n**2 + 1e-9
    count = len(cfg.test_functions)
    # per function and eps: the errors of the Caputo and the RL type limits
    limit_errs = np.empty((2, count, len(specs)))
    scales = np.empty(count)
    for lo, f in _corpus_stacks(cfg.test_functions, a, b, cfg.n):
        hi = lo + f.values.shape[0]
        for e, spec_eps in enumerate(specs):
            dc = caputo_deriv_ns(spec_eps, f).values.values
            drl = rl_deriv_ns(spec_eps, f).values.values
            limit_errs[0, lo:hi, e] = np.max(np.abs(dc - (f.values - f.values[:, :1])), axis=1)
            limit_errs[1, lo:hi, e] = np.max(np.abs(drl - f.values), axis=1)
        scales[lo:hi] = np.maximum(1.0, np.max(np.abs(f.values), axis=1))
    cases += 2 * len(specs) * count
    for tf, errs_c, errs_rl, scale in zip(cfg.test_functions, limit_errs[0].tolist(),
                                          limit_errs[1].tolist(), scales.tolist()):
        for label, errs in (("caputo", errs_c), ("rl", errs_rl)):
            for k in range(1, len(errs)):
                if errs[k] > errs[k - 1] * (1.0 + 1e-6) + floor * scale:
                    failures.append(_failure(
                        f"{tf.label}:{label} monotone in eps", errs[k], errs[k - 1]))
            if errs[-1] > tol * scale:
                failures.append(_failure(f"{tf.label}:{label} limit error",
                                         errs[-1], tol * scale))

    trend = []
    # coarse grid: the note is qualitative, and near alpha = 1 the kernel
    # arguments reach -alpha/(1 - alpha), so most values take the quadrature
    trend_n = min(cfg.n, 128)
    for delta in (1e-1, 3e-2, 1e-2):
        spec_hi = replace(cfg.spec, order=OrderFunction.constant(1.0 - delta))
        f = cfg.test_functions[1].on(a, b, trend_n)  # f(t) = t
        dc = caputo_deriv_ns(spec_hi, f).values.values
        trend.append(f"alpha=1-{delta:g}: D_c[t](mid) = {dc[trend_n // 2]:.6g}")
    notes.append("order->1 trend toward f' (reported only): " + "; ".join(trend))

    return SuiteReport("axiom_limits", cases_run=cases, failures=failures, notes=notes)


# --- maximum-point inequality ------------------------------------------------


def check_max_point(cfg: SuiteConfig) -> SuiteReport:
    """Lower bound on the Caputo-type derivative at the grid argmax.

    The underlying statement collapses the Mittag-Leffler order onto the
    kernel exponent, so the check runs with beta set to gamma. The grid
    argmax stands in for the maximum point; monotone functions simply land
    at an endpoint, where the inequality still makes sense (equality at a).
    """
    spec = cfg.spec
    if spec.beta != spec.gamma:
        spec = replace(spec, beta=spec.gamma)
    a, b = spec.interval
    tol = _TOLS["max_point"]
    failures = []
    for lo, f in _corpus_stacks(cfg.test_functions, a, b, cfg.n):
        derivs = caputo_deriv_ns(spec, f).values.values
        for k, i0 in enumerate(np.argmax(f.values, axis=1).tolist()):
            label = cfg.test_functions[lo + k].label
            t0 = float(f.grid[i0])
            value = float(derivs[k, i0])
            if i0 == 0:
                lower = 0.0
            else:
                lower = (kernel_prefactor(spec, t0) * kernel_eval(spec, t0, a)
                         * (f.values[k, i0] - f.values[k, 0]))
            if value < lower - tol:
                failures.append(_failure(f"{label} vs kernel bound", value, lower))
            if value < -tol:
                failures.append(_failure(f"{label} nonnegative", value, 0.0))
    return SuiteReport("max_point", cases_run=len(cfg.test_functions),
                       failures=failures)


# --- vanishing at the left endpoint -------------------------------------------


def check_vanish_at_a(cfg: SuiteConfig) -> SuiteReport:
    """Caputo-type value at t = a is exactly zero and grows like O(h) after it."""
    a, b = cfg.spec.interval
    tol_ratio = _TOLS["vanish_ratio"]
    sizes = (256, 512, 1024)
    count = len(cfg.test_functions)
    # per function and n: D_c f at t = a, |D_c f(a + h)| / h and sup |f'|
    firsts, ratios, fp_maxes = np.empty((3, count, len(sizes)))
    for e, n in enumerate(sizes):
        for lo, f in _corpus_stacks(cfg.test_functions, a, b, n):
            hi = lo + f.values.shape[0]
            out = caputo_deriv_ns(cfg.spec, f).values.values
            firsts[lo:hi, e] = out[:, 0]
            ratios[lo:hi, e] = np.abs(out[:, 1]) / f.h
            fp_maxes[lo:hi, e] = np.max(np.abs(f.deriv_values()), axis=1)
    prefactor = kernel_prefactor(cfg.spec, a)
    failures = []
    for tf, first, ratio, fp_max in zip(cfg.test_functions, firsts.tolist(), ratios.tolist(),
                                        fp_maxes.tolist()):
        ceiling = 0.0
        for n, out0, fp in zip(sizes, first, fp_max):
            if out0 != 0.0:
                failures.append(_failure(f"{tf.label} exact zero n={n}", abs(out0), 0.0))
            ceiling = max(ceiling, tol_ratio * prefactor * fp + 1e-12)
        worst = max(ratio)
        if worst > ceiling:
            failures.append(_failure(f"{tf.label} first-node ratio", worst, ceiling))
    return SuiteReport("vanish_at_a", cases_run=count * len(sizes), failures=failures)


# --- comparison-principle soundness (delegates to the solver module) -----------


def check_comparison_suite(spec: KernelSpec, *, n: int = 256, count: int = 100,
                           seed: int = 0) -> SuiteReport:
    """fde.check_comparison's reports for the count cases of
    fde.comparison_cases, from the stacks that admitted them: each case takes
    one Caputo call, its admission's. The generator admits only q with
    min q > 1e-3, so check_comparison's hypotheses on q are not tested
    again. Each u is <= 0 by construction, so the suite checks their
    admission by the discrete operator, not the principle."""
    grid = uniform_grid(*spec.interval, n)
    reports = []
    columns = list(zip(*fde._comparison_blocks(spec, grid, count, seed)))
    if columns:
        us, _, Q = map(np.concatenate, columns)
        reports = fde._comparison_reports(us, Q)
    failures = []
    for case, rep in enumerate(reports, 1):
        if not rep.applicable:
            failures.append(_failure(f"case {case} not applicable",
                                     rep.max_inequality, 0.0))
        elif rep.violations:
            failures.append(_failure(f"case {case} conclusion", rep.violations, 0.0))
    return SuiteReport("comparison", cases_run=len(reports), failures=failures)


# --- canonical configurations ---------------------------------------------------

# suite -> its runs: (report label, special case, order, interval, corpus seed
# offset, random functions, n, informational). The comparison suite draws its
# own cases and takes no corpus. boundedness[log] and [sin] take the fixed six
# and the first 20 random functions of the canonical run's corpus.
_RUNS = {
    "boundedness": (
        ("boundedness", "caputo_fabrizio", 0.9, (0.0, 1.0), 7, 100, 1024, False),
        ("boundedness[log]", "log_warp", 0.9, (1.0, 2.0), 7, 20, 512, True),
        ("boundedness[sin]", "sin_warp", 0.9, (0.0, 1.0), 7, 20, 512, True),
    ),
    "lipschitz": (("lipschitz", "caputo_fabrizio", 0.5, (0.0, 1.0), 11, 4, 512, False),),
    "limit_interchange": (
        ("limit_interchange[identity]", "caputo_fabrizio", 0.5, (0.0, 1.0), 0, 0, 512, False),
        ("limit_interchange[log]", "log_warp", 0.5, (1.0, 2.0), 0, 0, 512, False),
        ("limit_interchange[sin]", "sin_warp", 0.5, (0.0, 1.0), 0, 0, 512, False),
    ),
    "axiom_limits": (("axiom_limits", "atangana", 0.5, (0.0, 1.0), 0, 2, 1024, False),),
    "max_point": (("max_point", "caputo_fabrizio", 0.5, (0.0, 1.0), 3, 6, 1024, False),),
    "vanish_at_a": (("vanish_at_a", "caputo_fabrizio", 0.5, (0.0, 1.0), 0, 4, 512, False),),
    "comparison": (("comparison", "caputo_fabrizio", 0.5, (0.0, 1.0), 0, None, 256, False),),
}

SUITE_NAMES = tuple(_RUNS)


def default_suite_run(name: str, seed: int = 0) -> list[SuiteReport]:
    """Run one named suite under its canonical configurations (_RUNS). The
    check is looked up when the suite runs, so a replaced check_* runs."""
    if name not in _RUNS:
        raise InvalidParam(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    reports, corpora = [], {}
    for label, case, order, interval, offset, randoms, n, informational in _RUNS[name]:
        spec = make_special_case(case, order, interval=interval)
        if name == "comparison":
            report = check_comparison_suite(spec, n=n, seed=seed + offset)
        else:
            # a corpus function depends on the seed and its index alone, so
            # the runs of one seed offset take prefixes of one corpus
            size = len(_FIXED) + randoms
            if len(corpora.get(offset, ())) < size:
                corpora[offset] = standard_corpus(seed + offset, randoms)
            cfg = SuiteConfig(spec, corpora[offset][:size], n)
            report = globals()[f"check_{name}"](cfg)
        report.suite_name, report.informational = label, informational
        if informational:
            report.notes.append("informational: warped run, reported apart from the "
                                "identity warp; failures reported, not asserted")
        reports.append(report)
    return reports
