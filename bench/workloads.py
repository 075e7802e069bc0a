"""The four workloads: seeded CLI call lists with their references.

A workload seed generates data only: the f expressions (trig polynomials
and monomials), right-hand-side coefficients and u0, and the `verify --seed`
value. Kernel parameters (order, beta, gamma, warp, interval, n) are fixed
per workload, so a seed cannot move work between Mittag-Leffler routes.

Every call carries a check: the sup-norm relative error of its output
against a reference from ``reference.py`` at a set of nodes, and a
tolerance K * (1/n)^p fixed per discretization family (p = 2 for smooth
kernels and monomial data, p = 1.5 where beta or gamma is 1/2 or tracks an
order below 1, since H(t, tau) - 1 then behaves like (t - tau)^gamma at the
diagonal). README.md records how K was set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import mpmath as mp
import numpy as np

import reference as ref
from defects import BOUNDEDNESS_ESTIMATE, ML_COLLAPSE

WORKLOADS = ("deriv_toeplitz", "deriv_ml", "solve", "verify_all")

SUITES = ("boundedness", "lipschitz", "limit_interchange", "axiom_limits",
          "max_point", "vanish_at_a", "comparison")

TOL_K = 50.0           # tolerance K * (1/n)^p, in both families
CHECK_NODES = 8        # sampled nodes per call where the reference is a quadrature



@dataclass
class Call:
    """One `fracvar` invocation and how to check its output."""

    label: str
    argv: list[str]
    kind: str                               # "csv" or "verify"
    n: int = 0
    tol: float = 0.0
    nodes: list[int] = field(default_factory=list)
    make_reference: Callable[[], list[float]] | None = None
    reference: list[float] | None = None
    known_defect: str | None = None         # see defects.py
    # (alpha, gamma, a, b) of a beta = 1/2 kernel, probed against the oracle
    ml_half: tuple[float, float, float, float] | None = None


# --- seeded data ------------------------------------------------------------------


def _num(x: float) -> str:
    s = repr(float(x))
    return f"({s})" if x < 0 else s


def _round(x: float) -> float:
    return float(round(float(x), 6))


@dataclass(frozen=True)
class Data:
    """f(t) = sum_k m_k t^k + sum_j (s_j sin(j pi t) + c_j cos(j pi t))."""

    mono: tuple[float, ...]
    sin: tuple[float, ...] = ()
    cos: tuple[float, ...] = ()

    def expr(self) -> str:
        terms = []
        for k, c in enumerate(self.mono):
            if c == 0.0:
                continue
            coef = "" if c == 1.0 else f"{_num(c)}*"
            terms.append(_num(c) if k == 0 else
                         f"{coef}t" if k == 1 else f"{coef}t^{k}")
        for j, (s, c) in enumerate(zip(self.sin, self.cos), start=1):
            arg = "pi*t" if j == 1 else f"{j}*pi*t"
            terms.append(f"{_num(s)}*sin({arg})")
            terms.append(f"{_num(c)}*cos({arg})")
        return " + ".join(terms) if terms else "0"

    def mp_f(self, t):
        v = sum(mp.mpf(c) * t ** k for k, c in enumerate(self.mono))
        for j, (s, c) in enumerate(zip(self.sin, self.cos), start=1):
            v += mp.mpf(s) * mp.sin(j * mp.pi * t) + mp.mpf(c) * mp.cos(j * mp.pi * t)
        return v

    def mp_fprime(self, t):
        v = sum(k * mp.mpf(c) * t ** (k - 1) for k, c in enumerate(self.mono) if k)
        for j, (s, c) in enumerate(zip(self.sin, self.cos), start=1):
            w = j * mp.pi
            v += w * (mp.mpf(s) * mp.cos(w * t) - mp.mpf(c) * mp.sin(w * t))
        return v


def _trig_data(rng: np.random.Generator) -> Data:
    mono = tuple(_round(x) for x in rng.uniform(-1.0, 1.0, 3))
    j = np.arange(1, 4, dtype=float)
    sin = tuple(_round(x) for x in rng.standard_normal(3) / j**2)
    cos = tuple(_round(x) for x in rng.standard_normal(3) / j**2)
    return Data(mono=mono, sin=sin, cos=cos)


def _monomial_data(rng: np.random.Generator) -> Data:
    return Data(mono=tuple(_round(x) for x in rng.uniform(-1.0, 1.0, 4)))


def _sample_nodes(rng: np.random.Generator, n: int) -> list[int]:
    # the first eighth of the grid is skipped: finite-difference outer
    # derivatives and the t^(-alpha) behaviour of classical RL live there
    lo = max(1, n // 8)
    picks = rng.choice(np.arange(lo, n), size=CHECK_NODES - 1, replace=False)
    return sorted(int(i) for i in picks) + [n]


def _tail_nodes(n: int) -> list[int]:
    return list(range(max(1, n // 8), n + 1))


def _tol(n: int, p: float) -> float:
    return TOL_K / n**p


def _grid(a: float, b: float, n: int) -> np.ndarray:
    return np.linspace(a, b, n + 1)


# --- call builders ------------------------------------------------------------------


def _kernel_flags(alpha: str, beta: str, gamma: str, psi: str = "t") -> list[str]:
    return ["--alpha", alpha, "--psi", psi, "--beta", beta, "--gamma", gamma]


def _bounded_call(label, op, kernel: ref.Kernel, flags, data: Data, a, b, n, p,
                  rng, known_defect=None) -> Call:
    nodes = _sample_nodes(rng, n)
    grid = _grid(a, b, n)

    def make():
        if op == "caputo_ns":
            return [ref.caputo_ns(kernel, data.mp_fprime, a, float(grid[i])) for i in nodes]
        return [ref.rl_ns(kernel, data.mp_f, data.mp_fprime, a, float(grid[i]))
                for i in nodes]

    argv = ["deriv", "--op", op, *flags, "--f", data.expr(), "--a", repr(a),
            "--b", repr(b), "--n", str(n)]
    half = None
    if kernel.beta == 0.5:
        half = (kernel.alpha[0], kernel.gamma, a, b)
    return Call(label, argv, "csv", n=n, tol=_tol(n, p),
                nodes=nodes, make_reference=make, known_defect=known_defect,
                ml_half=half)


def deriv_toeplitz(seed: int, scale: int = 1) -> list[Call]:
    rng = np.random.default_rng([seed, 1])
    n_big, n_mid = 8192 // scale, 2048 // scale
    exp_k = ref.Kernel(alpha=(0.5, 0.0), gamma=1.0, beta=1.0)
    ab_k = ref.Kernel(alpha=(0.5, 0.0), gamma=0.5, beta=0.5)
    log_k = ref.Kernel(alpha=(0.5, 0.0), gamma=1.0, beta=1.0, warp="ln(t)")
    exp_f = _kernel_flags("0.5", "1", "1")
    ab_f = _kernel_flags("0.5", "0.5", "0.5")
    calls = [
        _bounded_call("caputo_ns/exp", "caputo_ns", exp_k, exp_f, _trig_data(rng),
                      0.0, 1.0, n_big, 2, rng),
        _bounded_call("rl_ns/exp", "rl_ns", exp_k, exp_f, _trig_data(rng),
                      0.0, 1.0, n_big, 2, rng),
        _bounded_call("caputo_ns/ab", "caputo_ns", ab_k, ab_f, _trig_data(rng),
                      0.0, 1.0, n_big, 1.5, rng),
        _bounded_call("rl_ns/ab", "rl_ns", ab_k, ab_f, _trig_data(rng),
                      0.0, 1.0, n_big, 1.5, rng),
        _bounded_call("caputo_ns/log_warp", "caputo_ns", log_k,
                      _kernel_flags("0.5", "1", "1", psi="ln(t)"), _trig_data(rng),
                      1.0, 2.0, n_big, 2, rng),
    ]

    # criterion 04: f = c t under the exponential kernel, checked at every node
    c = _round(rng.uniform(0.5, 2.0))
    grid = _grid(0.0, 1.0, n_big)
    nodes = _tail_nodes(n_big)
    calls.append(Call(
        "caputo_ns/exp/estimate_error",
        ["deriv", "--op", "caputo_ns", *exp_f, "--f", f"{_num(c)}*t", "--a", "0.0",
         "--b", "1.0", "--n", str(n_big), "--estimate-error"],
        "csv", n=n_big, tol=_tol(n_big, 2), nodes=nodes,
        make_reference=lambda g=grid, nodes=nodes: [
            c * ref.criterion_04(0.5, float(g[i])) for i in nodes],
    ))

    # weakly singular family on monomials, closed forms at every node
    grid = _grid(0.0, 1.0, n_mid)
    nodes = _tail_nodes(n_mid)
    alpha_cl = 0.6
    for label, op, closed in (("caputo_classical", "caputo_classical",
                               ref.caputo_classical_monomials),
                              ("rl_classical", "rl_classical",
                               ref.rl_classical_monomials)):
        data = _monomial_data(rng)
        calls.append(Call(
            label,
            ["deriv", "--op", op, "--alpha", repr(alpha_cl), "--f", data.expr(),
             "--a", "0.0", "--b", "1.0", "--n", str(n_mid)],
            "csv", n=n_mid, tol=_tol(n_mid, 2), nodes=nodes,
            make_reference=lambda d=data, cl=closed, g=grid, nodes=nodes: [
                cl(d.mono, alpha_cl, float(g[i])) for i in nodes],
        ))
    data = _monomial_data(rng)
    calls.append(Call(
        "integral/varorder",
        ["integral", "--alpha", "0.4 + 0.3*t", "--f", data.expr(), "--a", "0.0",
         "--b", "1.0", "--n", str(n_mid)],
        "csv", n=n_mid, tol=_tol(n_mid, 2), nodes=nodes,
        make_reference=lambda d=data, g=grid, nodes=nodes: [
            ref.integral_monomials(d.mono, 0.4 + 0.3 * float(g[i]), float(g[i]))
            for i in nodes],
    ))
    return calls


def deriv_ml(seed: int, scale: int = 1) -> list[Call]:
    rng = np.random.default_rng([seed, 2])
    # the fallback call shrinks at most twofold: below n = 256 its own
    # discretization error would mask the collapse it is there to expose
    n_track, n_far = 1024 // scale, 512 // min(scale, 2)
    # alpha(t) in [0.5, 0.7]: every tracked kernel value stays on the series
    # route; orders reaching 0.8 push rows onto the scalar fallback
    track_k = ref.Kernel(alpha=(0.5, 0.2), gamma=None, beta=None)
    track_f = _kernel_flags("0.5 + 0.2*t", "track", "track")
    calls = [
        _bounded_call("caputo_ns/track", "caputo_ns", track_k, track_f,
                      _trig_data(rng), 0.0, 1.0, n_track, 1.5, rng),
        _bounded_call("rl_ns/track", "rl_ns", track_k, track_f,
                      _trig_data(rng), 0.0, 1.0, n_track, 1.5, rng),
    ]
    # beta = 1/2, gamma = 1 on [0, 100]: kernel arguments reach -100, past the
    # series limit, so about a thousand values take the scalar spectral
    # fallback; the reference is the erfc oracle
    far_k = ref.Kernel(alpha=(0.5, 0.0), gamma=1.0, beta=0.5)
    calls.append(_bounded_call(
        "caputo_ns/ml_fallback", "caputo_ns", far_k, _kernel_flags("0.5", "0.5", "1"),
        Data(mono=(0.0, 1.0)), 0.0, 100.0, n_far, 1.5, rng, known_defect=ML_COLLAPSE))
    return calls


def solve(seed: int, scale: int = 1) -> list[Call]:
    rng = np.random.default_rng([seed, 3])
    n_cf, n_ab = 4096 // scale, 2048 // scale
    alpha = 0.5
    calls = []

    k, u0 = _round(rng.uniform(0.5, 3.0)), _round(rng.uniform(0.5, 2.0))
    grid = _grid(0.0, 1.0, n_cf)
    calls.append(Call(
        "solve/cf_linear",
        ["solve", *_kernel_flags(repr(alpha), "1", "1"), "--rhs", f"-{k!r}*u",
         "--u0", repr(u0), "--a", "0.0", "--b", "1.0", "--n", str(n_cf)],
        "csv", n=n_cf, tol=_tol(n_cf, 2), nodes=list(range(n_cf + 1)),
        make_reference=lambda k=k, u0=u0: [
            ref.linear_cf_solution(alpha, k, u0, float(t)) for t in grid],
    ))

    k, u0 = _round(rng.uniform(0.5, 3.0)), _round(rng.uniform(0.5, 2.0))
    c = _round(rng.uniform(-2.0, 2.0))
    calls.append(Call(
        "solve/cf_nonlinear",
        ["solve", *_kernel_flags(repr(alpha), "1", "1"),
         "--rhs", f"-u^3 - {k!r}*u + {_num(c)}*sin(pi*t)",
         "--u0", repr(u0), "--a", "0.0", "--b", "1.0", "--n", str(n_cf)],
        "csv", n=n_cf, tol=_tol(n_cf, 2), nodes=list(range(n_cf + 1)),
        make_reference=lambda k=k, u0=u0, c=c: ref.cf_ode_solution(
            alpha,
            lambda t, u: -u**3 - k * u + c * math.sin(math.pi * t),
            lambda t, u: c * math.pi * math.cos(math.pi * t),
            lambda t, u: -3.0 * u * u - k,
            u0, 1.0, n_cf),
    ))

    k, u0 = _round(rng.uniform(0.5, 3.0)), _round(rng.uniform(0.5, 2.0))
    grid_ab = _grid(0.0, 1.0, n_ab)
    calls.append(Call(
        "solve/ab_linear",
        ["solve", *_kernel_flags(repr(alpha), "0.5", "0.5"), "--rhs", f"-{k!r}*u",
         "--u0", repr(u0), "--a", "0.0", "--b", "1.0", "--n", str(n_ab)],
        "csv", n=n_ab, tol=_tol(n_ab, 1.5), nodes=list(range(n_ab + 1)),
        make_reference=lambda k=k, u0=u0: [
            ref.linear_ab_solution(alpha, k, u0, float(t)) for t in grid_ab],
        ml_half=(alpha, 0.5, 0.0, 1.0),
    ))
    return calls


def verify_all(seed: int, scale: int = 1, suites=SUITES) -> list[Call]:
    del scale  # the suites fix their own grids
    rng = np.random.default_rng([seed, 4])
    vseed = int(rng.integers(0, 1000))
    return [Call(f"verify/{name}", ["verify", "--suite", name, "--seed", str(vseed)],
                 "verify",
                 known_defect=BOUNDEDNESS_ESTIMATE if name == "boundedness" else None)
            for name in suites]


BUILDERS = {
    "deriv_toeplitz": deriv_toeplitz,
    "deriv_ml": deriv_ml,
    "solve": solve,
    "verify_all": verify_all,
}


def build(workload: str, seed: int, scale: int = 1) -> list[Call]:
    return BUILDERS[workload](seed, scale)


# --- checking ------------------------------------------------------------------------


@dataclass
class Outcome:
    ok: bool
    err: float | None          # sup-norm relative error, None for verify calls
    reason: str = ""


def parse_values(text: str, n: int) -> np.ndarray:
    """Column `value` of a CSV output, one entry per grid node."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("t,value"):
        raise ValueError("output does not start with the t,value header")
    rows = lines[1 : n + 2]
    if len(rows) != n + 1:
        raise ValueError(f"expected {n + 1} rows, got {len(rows)}")
    return np.array([float(r.split(",")[1]) for r in rows])


def check(call: Call, rc: int, text: str) -> Outcome:
    if call.kind == "verify":
        hard = [ln for ln in text.splitlines() if ln.startswith("FAIL")]
        if rc != 0 or hard:
            return Outcome(False, None, f"exit {rc}; " + "; ".join(hard))
        if sum(ln.startswith(("PASS", "INFO-FAIL")) for ln in text.splitlines()) == 0:
            return Outcome(False, None, "no suite verdicts in the output")
        return Outcome(True, None)
    if rc != 0:
        return Outcome(False, None, f"exit {rc}")
    try:
        values = parse_values(text, call.n)
    except ValueError as exc:
        return Outcome(False, None, str(exc))
    got = values[call.nodes]
    want = np.asarray(call.reference, dtype=float)
    scale = float(np.max(np.abs(want)))
    err = float(np.max(np.abs(got - want))) / scale if np.all(np.isfinite(got)) else math.inf
    if not err <= call.tol:
        return Outcome(False, err, f"relative error {err:.3e} above tolerance {call.tol:.3e}")
    return Outcome(True, err)
