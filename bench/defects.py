"""Seed-state defects: misses the benchmark counts but does not call a broken run.

Each defect is recognised by an independent probe, not by which call or seed
it hit. A call that misses its check because of one of them still counts in
``pass_ratio``, ``fail_ratio``, ``failed`` and ``err_log10``; only
``correct`` stays true, and only while the probe still sees the defect.
Once the program is fixed the probe stops matching and a miss on that call
makes the run incorrect like any other.
"""

from __future__ import annotations

import re

import numpy as np

import reference as ref

ML_COLLAPSE = "ml_fallback_collapse"
BOUNDEDNESS_ESTIMATE = "boundedness_estimate"


def ml_half_probe(calls) -> tuple[float | None, bool]:
    """Public ``kernel_values`` against the erfc oracle on the beta = 1/2 kernels.

    Returns (worst relative error, collapse seen). The collapse signature is
    a kernel value below 1e-3 of an oracle value that is itself above 1e-3:
    the spectral fallback returning about 0 where E_{1/2} is still O(1e-2)
    (E_0.5(-90) came back as 1.2e-12 against 6.27e-3).
    """
    import fracvar

    worst, collapse = None, False
    for call in calls:
        if call.ml_half is None:
            continue
        alpha, gamma, a, b = call.ml_half
        spec = fracvar.KernelSpec(
            gamma=gamma, beta=0.5, order=fracvar.OrderFunction.constant(alpha),
            warp=fracvar.identity_warp(), norm=fracvar.NormalizationFunction.one(),
            interval=(a, b))
        taus = np.linspace(a, b, 17)
        got = fracvar.kernel_values(spec, b, taus)
        lam = alpha / (1.0 - alpha)
        want = np.array([ref.erfcx(lam * (b - tau) ** gamma) for tau in taus])
        rel = float(np.max(np.abs(got - want) / want))
        worst = rel if worst is None else max(worst, rel)
        collapse |= bool(np.any((want > 1e-3) & (got < 1e-3 * want)))
    return worst, collapse


_SUITE_LINE = re.compile(r"^FAIL\s+boundedness: (\d+) cases, (\d+) failures$")
_CASE_LINE = re.compile(r"^\s+trig\[(\d+):(\d+)\]:(rl|caputo): observed (\S+) vs bound (\S+)$")
_FACTOR_LINE = re.compile(r"bound factor .* = (\S+) \(alpha\(b\) = (\S+)\)$")


def boundedness_estimate_exceeded(text: str, n: int = 1024) -> bool:
    """True when every listed boundedness failure is a property of the data.

    The sup-norm estimate ||D f|| <= M(alpha(b)) / (1 - alpha(b)) ||f|| is
    not a theorem for arbitrary f (the analysis module says so); the
    canonical suite only expects its random corpus to meet it with margin.
    Some seeds draw a trig polynomial that breaks it (verify seed 994:
    observed 1.3926 against 1.3807). A listed failure is matched when the
    exact operator, computed here, also exceeds the printed bound on the
    suite's grid (identity warp on [0, 1], exponential kernel, M = 1, n
    panels), so the program's numerics are not what broke it.
    """
    import fracvar

    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if _SUITE_LINE.match(ln)), None)
    if start is None:
        return False
    failures = int(_SUITE_LINE.match(lines[start]).group(2))
    cases, alpha = [], None
    for ln in lines[start + 1:]:
        if not ln.startswith(" "):
            break
        if m := _CASE_LINE.match(ln):
            cases.append(m.groups())
        elif m := _FACTOR_LINE.search(ln):
            alpha = float(m.group(2))
    if alpha is None or not cases or len(cases) != failures:
        return False
    for corpus_seed, index, op, _observed, bound in cases:
        test = fracvar.standard_corpus(int(corpus_seed), int(index) + 1)[-1]
        if test.label != f"trig[{corpus_seed}:{index}]":
            return False
        exact = ref.cf_operator_on_grid(op, alpha, test.fn, test.deriv, n)
        if not np.max(np.abs(exact)) > float(bound) * (1.0 + 1e-5):
            return False
    return True
