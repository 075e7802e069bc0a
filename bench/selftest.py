"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Checks, in about 15 s on one core:

* the references against each other (stdlib erfc oracle against mpmath and
  against the Mittag-Leffler series, closed forms against quadrature of
  their defining integrals, the linear Caputo-Fabrizio closed form against
  the RK4 march);
* that the checker rejects a perturbed output, and that the probe for the
  boundedness-estimate defect matches the seed-state failure and nothing
  looser;
* every workload's call list at grid sizes divided by 8, each call against
  its reference. The Mittag-Leffler fallback call must either pass, or fail
  with the fallback collapse detected by the kernel probe: a miss there is
  counted, never excused silently. The verify suites keep their own grids,
  so the two slowest (boundedness, axiom_limits) are left to the benchmark;
* that the tracer sees the layers and that their self times add up to the
  time of the call that contains them;
* that the interval timer runs the machine-speed reference routine and that
  it gives a finite factor.

Exits 1 if any check fails.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["FRACVAR_THREADS"] = "1"

import mpmath as mp  # noqa: E402

import defects  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402

SCALE = 8
FAST_SUITES = ("lipschitz", "limit_interchange", "max_point", "vanish_at_a", "comparison")

failures: list[str] = []


def expect(ok: bool, label: str, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")
    if not ok:
        failures.append(label)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_references() -> None:
    worst = 0.0
    for x in (0.0, 0.5, 3.0, 9.99, 10.01, 30.0, 90.0, 1e3, 1e4):
        exact = float(mp.exp(mp.mpf(x) ** 2) * mp.erfc(x))
        worst = max(worst, abs(ref.erfcx(x) - exact) / exact)
    expect(worst < 1e-13, "erfc oracle vs mpmath", f"worst rel {worst:.1e}")

    series = ref.MLSeries(0.5, 3.0)
    worst = max(abs(float(series(-mp.mpf(x))) - ref.erfcx(x)) / ref.erfcx(x)
                for x in (0.1, 1.0, 2.5))
    expect(worst < 1e-13, "E_1/2 series vs erfc oracle", f"worst rel {worst:.1e}")

    exp_k = ref.Kernel(alpha=(0.5, 0.0), gamma=1.0, beta=1.0)
    ok = all(close(ref.caputo_ns(exp_k, lambda tau: mp.mpf(1), 0.0, t),
                   ref.criterion_04(0.5, t), 1e-13) for t in (0.1, 0.7, 1.0))
    expect(ok, "criterion 04 vs quadrature")

    coeffs, alpha, t = (0.3, -0.7, 0.5, 0.25), 0.6, 0.8

    def f(x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    def fp(x):
        return sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k)

    # x = t - s^(1/(1-alpha)) removes the endpoint singularity tanh-sinh
    # would otherwise resolve only to about 1e-9
    e = 1 - mp.mpf(alpha)
    caputo = mp.quad(lambda s: fp(t - s ** (1 / e)) / e, [0, mp.mpf(t) ** e]) \
        / mp.gamma(1 - alpha)
    expect(close(float(caputo), ref.caputo_classical_monomials(coeffs, alpha, t), 1e-12),
           "classical Caputo closed form vs quadrature")
    inner = lambda s: mp.quad(lambda x: (s - x) ** (-alpha) * f(x), [0, s])  # noqa: E731
    rl = mp.diff(inner, t) / mp.gamma(1 - alpha)
    expect(close(float(rl), ref.rl_classical_monomials(coeffs, alpha, t), 1e-10),
           "classical RL closed form vs quadrature")
    at = 0.4 + 0.3 * t
    integral = mp.quad(lambda x: (t - x) ** (at - 1) * f(x), [0, t]) / mp.gamma(at)
    expect(close(float(integral), ref.integral_monomials(coeffs, at, t), 1e-12),
           "variable-order integral closed form vs quadrature")

    k, u0, n = 1.7, 1.3, 64
    march = ref.cf_ode_solution(0.5, lambda t, u: -k * u, lambda t, u: 0.0,
                                lambda t, u: -k, u0, 1.0, n)
    worst = max(abs(march[i] - ref.linear_cf_solution(0.5, k, u0, i / n))
                for i in range(n + 1))
    expect(worst < 1e-9, "RK4 march vs linear Caputo-Fabrizio closed form",
           f"max gap {worst:.1e}")


def check_checker() -> None:
    call = wl.Call("probe", [], "csv", n=8, tol=1e-6, nodes=[4, 8],
                   reference=[1.0, 2.0])
    rows = "\n".join(f"{i / 8},{v!r}" for i, v in
                     enumerate([0, 0, 0, 0, 1.0, 0, 0, 0, 2.0]))
    expect(wl.check(call, 0, "t,value\n" + rows + "\n").ok, "checker accepts exact output")
    rows = rows.replace("2.0", "2.001")
    expect(not wl.check(call, 0, "t,value\n" + rows + "\n").ok,
           "checker rejects a 5e-4 relative perturbation")
    expect(not wl.check(call, 2, "").ok, "checker rejects a non-zero exit")


_BOUNDEDNESS_FAIL = """FAIL      boundedness: 212 cases, 2 failures
          trig[1001:17]:rl: observed 1.3926 vs bound {bound}
          trig[1001:17]:caputo: observed 1.39244 vs bound {bound}
          note: bound factor M(alpha(b))/(1-alpha(b)) = 10 (alpha(b) = 0.9)
PASS      boundedness[log]: 52 cases, 0 failures
"""


def check_defect_probes() -> None:
    # verify --suite boundedness --seed 994 printed the first text at seed state
    t = time.perf_counter()
    ok = defects.boundedness_estimate_exceeded(_BOUNDEDNESS_FAIL.format(bound=1.3807))
    expect(ok, "boundedness failure beyond the exact operator is recognised",
           f"{time.perf_counter() - t:.1f} s")
    expect(not defects.boundedness_estimate_exceeded(_BOUNDEDNESS_FAIL.format(bound=1.40)),
           "boundedness failure within the exact operator is not excused")
    partial = _BOUNDEDNESS_FAIL.format(bound=1.3807).replace("2 failures", "3 failures")
    expect(not defects.boundedness_estimate_exceeded(partial),
           "unlisted boundedness failures are not excused")


def run_calls(cli_main, calls, tracer=None):
    for call in calls:
        if call.make_reference is not None:
            call.reference = call.make_reference()
        rc, elapsed, text, err = worker._run_call(cli_main, call, tracer)
        yield call, rc, elapsed, wl.check(call, rc, text), err


def check_workloads(cli_main) -> None:
    for name in wl.WORKLOADS:
        if name == "verify_all":
            calls = wl.verify_all(0, suites=FAST_SUITES)
        else:
            calls = wl.build(name, 0, SCALE)
        _, collapse = defects.ml_half_probe(calls)
        for call, rc, elapsed, outcome, err in run_calls(cli_main, calls):
            label = f"{name} {call.label} ({elapsed:.2f} s)"
            detail = outcome.reason or (f"rel err {outcome.err:.1e}" if outcome.err else "")
            if call.known_defect == defects.ML_COLLAPSE and not outcome.ok:
                expect(collapse, label + " fails with the collapse detected", detail)
            else:
                expect(outcome.ok, label, detail or err.strip()[-200:])


def check_tracer(cli_main) -> None:
    tracer = spans.Tracer()
    wrapped = spans.install(tracer)
    expect(any(w.startswith("mlf:") for w in wrapped), "tracer wraps mlf entry points")
    call = wl.deriv_toeplitz(0, SCALE)[2]      # beta = gamma = 1/2 kernel
    (_, rc, elapsed, outcome, _), = run_calls(cli_main, [call], tracer)
    totals = tracer.totals()
    layer_sum = sum(v for k, v in totals.items() if k.endswith(".self_s") and k.count(".") == 1)
    expect(rc == 0 and outcome.ok, "traced call still passes its check")
    expect(abs(layer_sum - elapsed) <= 0.02 * elapsed + 1e-3,
           "layer self times add up to the call", f"{layer_sum:.4f} s vs {elapsed:.4f} s")
    for key in ("mlf.evals", "operators.nodes", "kernel.spec_builds", "expr.evals"):
        expect(totals.get(key, 0) > 0, f"counter {key} moves", str(totals.get(key)))
    expect(totals.get("operators.bounded.self_s", 0) > 0, "bounded-family time is attributed")


def check_speed() -> None:
    ticker = speed.Ticker()
    with ticker:
        end = time.perf_counter() + 4 * speed.TICK_S
        while time.perf_counter() < end:
            sum(i * i for i in range(1000))
    factor = ticker.factor()
    expect(len(ticker.ticks) >= 3, "interval timer runs the reference routine",
           f"{len(ticker.ticks)} ticks")
    expect(0.05 < factor < 20.0, "reference routine gives a finite speed factor",
           f"{factor:.2f}")


def main() -> int:
    import fracvar.cli

    check_references()
    check_checker()
    check_defect_probes()
    check_workloads(fracvar.cli.main)
    check_tracer(fracvar.cli.main)
    check_speed()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
