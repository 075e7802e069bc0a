"""Machine-speed reference: rescale timings to a fixed machine speed.

The shared 2-core VM this benchmark was built on changes speed by up to about
25 % for minutes at a time: one process running the same `solve` pass for
seven minutes took 1.05 s per pass for two and a half minutes, then 0.82 s
for the next four. Longer runs do not help against that (the spread of
run medians stayed at 0.2 for windows of 7 to 56 s), and two sets of runs a
few minutes apart disagree by more than any bound worth gating.

So every run also times a fixed reference routine, which is benchmark code
and does not change with the program. The routine has five parts, one for
each kind of work the program does:

* ``py``: an interpreter-bound walk of a small expression tree, like
  `expr.evaluate` on scalars;
* ``obj``: sorting and walking a few thousand small Python records, calling
  `math` and formatting floats, like corpus sampling and CSV output;
* ``np``: numpy elementwise work on a 20k-element array, like the
  vectorized kernels;
* ``dot``: dot products of growing prefixes of two 8192-element vectors,
  like the operators' history sums;
* ``ufunc``: many numpy reductions over short slices, where the time goes
  to call overhead, like the row loops the verify suites drive.

One run of the routine gives a slowdown factor: the geometric mean over the
parts of each part's time divided by its reference time. A reported time is
the measured time divided by the factor, so a reported second is a second on
a machine where the parts take their reference times. No part runs fracvar
code, so a slower program still reads slower by the same share.

The machine also changes speed within a call: on the same code, single
`verify` calls of 2-8 s varied by 9-15 % (CV) from one pass to the next,
and probes taken just before and after each call did not track that. So
while the calls run, an interval timer (SIGALRM, every ``TICK_S``) runs the
routine inside the worker process; the time its handler takes is taken off
the call it interrupted, and a call's factor is the median over the ticks
during the call, or over the ``NEAREST`` ticks closest to it when fewer fell
inside. That cut the per-call CV of the seven `verify` calls to about 0.05,
at a cost of about 3 % of the run. Each part alone tracked some workloads
well and others badly, so all parts are weighted equally.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

# median part times on the 2-core x86_64 VM the benchmark was built on; they
# fix the scale of every reported time, so they never change
REFERENCE_S = {"py": 0.0046, "obj": 0.0028, "np": 0.0014, "dot": 0.0009,
               "ufunc": 0.0038}
WARMUP = 3
TICK_S = 0.5         # interval of the in-call probe; one routine run is ~14 ms
NEAREST = 3          # ticks a call's factor uses at least

_TREE = ("+", ("*", ("v", "u"), ("n", 1.5)),
         ("*", ("+", ("v", "t"), ("n", 2.0)), ("v", "u")))
_rng = np.random.default_rng(0)
_ARRAY = np.linspace(0.0, 1.0, 20000)
_VA, _VB = _rng.random(8192), _rng.random(8192)
_RECORDS = [(float(x), i, {"k": i}) for i, x in enumerate(_rng.random(3000))]
_SHORT = _rng.random(256)


def _walk(node, env):
    op = node[0]
    if op == "n":
        return node[1]
    if op == "v":
        return env[node[1]]
    left = _walk(node[1], env)
    right = _walk(node[2], env)
    return left + right if op == "+" else left * right


def _py() -> None:
    env = {"u": 0.3, "t": 0.1}
    for _ in range(4000):
        env["u"] = _walk(_TREE, env) * 1e-3


def _obj() -> None:
    ordered = sorted(_RECORDS, key=lambda r: r[0])
    acc = 0.0
    for x, _, d in ordered:
        acc += math.sin(x) * d["k"]
    ",".join(f"{x!r}" for x, _, _ in ordered[:800])


def _np() -> None:
    for _ in range(20):
        b = np.exp(-_ARRAY) * _ARRAY
        b.sum()


def _dot() -> None:
    for _ in range(2):
        for i in range(64, 8192, 128):
            _VA[:i] @ _VB[:i][::-1]


def _ufunc() -> None:
    for i in range(600):
        np.sum(_SHORT[i % 200:] * 0.5)


PARTS = {"py": _py, "obj": _obj, "np": _np, "dot": _dot, "ufunc": _ufunc}


def _time(part) -> float:
    start = perf_counter()
    part()
    return perf_counter() - start


def routine_factor() -> float:
    """Run every part once; the geometric mean of time / reference time."""
    logs = [math.log(_time(part) / REFERENCE_S[name]) for name, part in PARTS.items()]
    return math.exp(sum(logs) / len(logs))


def warm_up() -> None:
    for _ in range(WARMUP):
        routine_factor()


class Ticker:
    """Runs the routine from an interval timer while the calls run.

    ``spent`` is the time the handler has taken so far; a caller subtracts
    its growth over a call from that call's time.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []     # (time, factor)
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        self.ticks.append((start, routine_factor()))
        self.spent += perf_counter() - start

    def __enter__(self) -> "Ticker":
        warm_up()
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor_between(self, start: float, end: float) -> float:
        inside = [f for t, f in self.ticks if start <= t <= end]
        if len(inside) < NEAREST:
            mid = 0.5 * (start + end)
            nearest = sorted(self.ticks, key=lambda tick: abs(tick[0] - mid))
            inside = [f for _, f in nearest[:NEAREST]]
        return statistics.median(inside)

    def factor(self) -> float:
        return statistics.median(f for _, f in self.ticks)

    def info(self) -> dict:
        return {"factor": self.factor(), "ticks": len(self.ticks),
                "spent_s": self.spent, "tick_s": TICK_S}
