"""One workload in one process: build the calls, time passes, check outputs.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the package sources; it
prints one JSON object. A pass runs every call of the workload once through
``fracvar.cli.main(argv)`` in this process, with stdout and stderr captured.
Passes repeat while the next one is expected to finish inside the time
budget; at least one always runs. References are computed before timing
starts, and outputs are checked between calls, outside the timed region.
While the passes run, ``speed.Ticker`` times a reference routine from an
interval timer; its time is taken off the call it interrupted, and each call
is also reported rescaled by the machine speed measured during it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import defects
import spans
import speed
import workloads as wl

ERR_FLOOR = -16.0


def _run_call(cli_main, call, tracer):
    out, err = io.StringIO(), io.StringIO()
    recording = tracer.recording("cli") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            with recording:
                rc = cli_main(list(call.argv))
        except Exception as exc:  # a crash is a failed call, not a benchmark error
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def log10_floored(x: float | None) -> float:
    if x is None or x <= 0.0:
        return ERR_FLOOR
    if not math.isfinite(x):
        return -ERR_FLOOR
    return max(ERR_FLOOR, min(-ERR_FLOOR, math.log10(x)))


def tail(passes: list[list[float]]) -> float:
    """Median over passes of the slowest call in each pass.

    The calls of a pass differ in cost by up to 20x, so a percentile over all
    call times lands on whichever call class its rank happens to reach, and
    the rank moves with the number of passes a run holds. The slowest call
    of a pass is always the same class.
    """
    return statistics.median(max(times) for times in passes)


def eleventh_largest(passes: list[list[float]]) -> float | None:
    """Highest percentile of call time with at least 10 calls beyond it."""
    ordered = sorted(t for times in passes for t in times)
    return ordered[-11] if len(ordered) >= 11 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import fracvar.cli

    calls = wl.build(args.workload, args.seed)
    for call in calls:
        if call.make_reference is not None:
            call.reference = call.make_reference()

    tracer = None
    wrapped = []
    if args.trace:
        tracer = spans.Tracer()
        wrapped = spans.install(tracer)
    cli_main = fracvar.cli.main

    pass_times, pass_calls, pass_windows, pass_layers = [], [], [], []
    slot_times = [[] for _ in calls]
    attempted = failed = passed = 0
    worst_err = None
    misses, excused = {}, set()
    bytes_out = []
    ticker = speed.Ticker()
    with ticker:
        budget_start = perf_counter()
        while True:
            gc.collect()
            if tracer:
                before = tracer.totals()
                tracer.maxima.clear()
            pass_bytes = 0
            outcomes, times, windows = [], [], []
            for slot, call in enumerate(calls):
                spent, start = ticker.spent, perf_counter()
                rc, elapsed, text, err_text = _run_call(cli_main, call, tracer)
                windows.append((start, perf_counter()))
                elapsed -= ticker.spent - spent
                outcome = wl.check(call, rc, text)
                outcomes.append((call, rc, outcome, text, err_text))
                pass_bytes += len(text.encode())
                times.append(elapsed)
                slot_times[slot].append(elapsed)
            if tracer:
                after = tracer.totals()
                pass_layers.append({k: after[k] - before.get(k, 0.0) for k in after}
                                   | dict(tracer.maxima))
            for call, rc, outcome, text, err_text in outcomes:
                attempted += 1
                # exit 3 is verify's verdict channel: the call completed, and its
                # FAIL lines are judged by the check like any other output
                if rc not in (0, 3):
                    failed += 1
                if outcome.ok:
                    passed += 1
                else:
                    misses[call.label] = outcome.reason or err_text.strip()[-200:]
                    if call.known_defect == defects.BOUNDEDNESS_ESTIMATE and \
                            call.label not in excused and \
                            defects.boundedness_estimate_exceeded(text):
                        excused.add(call.label)
                if outcome.err is not None:
                    worst_err = outcome.err if worst_err is None else max(worst_err, outcome.err)
            pass_times.append(sum(times))
            pass_calls.append(times)
            pass_windows.append(windows)
            bytes_out.append(pass_bytes)
            elapsed = perf_counter() - budget_start
            if elapsed + elapsed / len(pass_times) > args.seconds:
                break

    # each call rescaled by the machine speed measured while it ran
    scaled = [[t / ticker.factor_between(*w) for t, w in zip(times, windows)]
              for times, windows in zip(pass_calls, pass_windows)]

    probe_err, collapse = defects.ml_half_probe(calls)
    if collapse:
        excused |= {c.label for c in calls if c.known_defect == defects.ML_COLLAPSE}
    correct = set(misses) <= excused
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(pass_times),
        "attempted": attempted,
        "failed": failed,
        "passed": passed,
        "correct": correct,
        "wall_s": statistics.median(sum(times) for times in scaled),
        "call_s_tail": tail(scaled),
        "wall_s_raw": statistics.median(pass_times),
        "call_s_tail_raw": tail(pass_calls),
        "pass_times": pass_times,
        "call_samples": sum(len(times) for times in pass_calls),
        "call_s_11th_largest": eleventh_largest(pass_calls),
        "pass_call_times": pass_calls,
        "call_s_median": {c.label: statistics.median(t) for c, t in zip(calls, slot_times)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_log10": log10_floored(worst_err),
        "misses": misses,
        "excused_misses": sorted(excused & set(misses)),
        "ml_half_err_log10": log10_floored(probe_err),
        "bytes_out_per_pass": statistics.median(bytes_out),
        "speed": ticker.info(),
        "numpy": np.__version__,
        "calls": [c.argv for c in calls],
    }
    if tracer:
        keys = sorted({k for layer in pass_layers for k in layer})
        report["layers"] = {k: statistics.median(layer.get(k, 0.0) for layer in pass_layers)
                            for k in keys}
        report["wrapped"] = wrapped
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
