"""fracvar benchmark: time the public CLI end to end and layer by layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any checkout holding ``src/fracvar`` next
to this directory). The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries the machine, the configuration and the argv of every
call. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones. README.md in this directory describes the
workloads and metrics.

Every measurement runs in a fresh process with FRACVAR_THREADS=1 and BLAS
threads pinned to 1: ``setup_s`` times ``import fracvar.cli`` in new
processes, and one worker process per workload (plus one more for the
traced run) does the calls, so its peak RSS belongs to the workload.

Every time metric is rescaled to a fixed machine speed measured in the same
run (``speed.py``); the info line carries the raw times and the factors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spans import LAYERS
import speed
from workloads import SUITES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
WORKER_TIMEOUT = 170.0

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import fracvar.cli; "
                 "print(repr(time.perf_counter() - t))")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "call_s_tail": "s", "peak_rss_mb": "MB",
    "err_log10": "log10", "pass_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "mlf.evals": "count", "mlf.fallback_evals": "count", "mlf.fallback_share": "ratio",
        "mlf.err_log10": "log10",
        "operators.bounded_s": "s", "operators.singular_s": "s",
        "operators.nodes": "count", "operators.ml_evals_per_node": "count",
        "fde.newton_iters": "count", "fde.bisection_nodes": "count",
        "fde.residual_norm": "ratio",
        "expr.evals": "count", "grids.scalar_samples": "count",
        "kernel.spec_builds": "count", "analysis.cases": "count",
        "cli.bytes_out": "bytes", "trace_overhead": "ratio",
    })
    for suite in SUITES:
        units[f"analysis.suite_s.{suite}"] = "s"
    return units


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["FRACVAR_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd: list[str], timeout: float) -> str:
    try:
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} timed out after {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def measure_setup() -> tuple[float, list[float], dict]:
    """Median ``import fracvar.cli`` time over fresh processes (one warm-up),
    rescaled by the reference routine timed before each of them."""
    samples, factors = [], []
    speed.warm_up()
    for i in range(SETUP_REPEATS + 1):
        factors.append(speed.routine_factor())
        value = float(_run([sys.executable, "-c", _IMPORT_PROBE], 60.0).strip())
        if i:
            samples.append(value)
    factor = statistics.median(factors)
    return statistics.median(samples) / factor, samples, {"factor": factor}


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = _run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
               WORKER_TIMEOUT)
    return json.loads(out.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    raw = traced["layers"]
    units = per_layer_units()
    values = {name: 0.0 for name in units}
    for name in values:
        if name in raw:
            values[name] = raw[name]
    values["operators.bounded_s"] = raw.get("operators.bounded.self_s", 0.0)
    values["operators.singular_s"] = raw.get("operators.singular.self_s", 0.0)
    factor = traced["speed"]["factor"]     # median over the traced run
    for name, unit in units.items():
        if unit == "s":
            values[name] /= factor
    evals = values["mlf.evals"]
    values["mlf.fallback_share"] = values["mlf.fallback_evals"] / evals if evals else 0.0
    nodes = values["operators.nodes"]
    values["operators.ml_evals_per_node"] = evals / nodes if nodes else 0.0
    values["mlf.err_log10"] = traced["ml_half_err_log10"]
    values["cli.bytes_out"] = traced["bytes_out_per_pass"]
    values["trace_overhead"] = traced["wall_s"] / untraced["wall_s"]
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    try:
        if not (SRC / "fracvar" / "cli.py").is_file():
            raise BenchError(f"no package sources under {SRC}")
        setup, setup_samples, setup_speed = (None, [], None)
        if args.trace:
            half = args.seconds / 2.0
            untraced = run_worker(args.workload, args.seed, half, 0)
            report = run_worker(args.workload, args.seed, half, 1)
            values = layer_metrics(report, untraced)
            units = per_layer_units()
            correct = report["correct"] and untraced["correct"]
            for key in ("attempted", "failed", "passed"):
                report[key] += untraced[key]
        else:
            setup, setup_samples, setup_speed = measure_setup()
            report = run_worker(args.workload, args.seed, args.seconds, 0)
            values = {
                "setup_s": setup,
                "wall_s": report["wall_s"],
                "call_s_tail": report["call_s_tail"],
                "peak_rss_mb": report["peak_rss_mb"],
                "err_log10": report["err_log10"],
                "pass_ratio": report["passed"] / report["attempted"],
            }
            units = END_TO_END_UNITS
            correct = report["correct"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": src_digest(),
        "src_lines": src_lines(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "env": {k: v for k, v in child_env().items()
                if k == "FRACVAR_THREADS" or k.endswith("_THREADS")},
        "setup_samples_s": setup_samples,
        "setup_speed": setup_speed,
        "speed": report["speed"],
        "wall_s_raw": report["wall_s_raw"],
        "call_s_tail_raw": report["call_s_tail_raw"],
        "passes": report["passes"],
        "pass_times_s": report["pass_times"],
        "call_samples": report["call_samples"],
        "call_s_11th_largest": report["call_s_11th_largest"],
        "pass_call_times_s": report["pass_call_times"],
        "call_s_median": report["call_s_median"],
        "fail_ratio": 1.0 - report["passed"] / report["attempted"],
        "misses": report["misses"],
        "excused_misses": report["excused_misses"],
        "calls": report["calls"],
    }
    if args.trace:
        info["traced_names"] = report["wrapped"]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
