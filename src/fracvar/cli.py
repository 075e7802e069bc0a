"""Command-line front end.

Subcommands: deriv (the four derivative operators), integral (the
variable-order integral), solve (the implicit FDE solver), verify (the
numerical verification suites). Kernel ingredients arrive as expression
strings (variable t for alpha/psi/f, alpha for M, t and u for the solver
right-hand side).

Output is CSV `t,value[,estimate_error]` at 17 significant digits, or JSON
carrying the same rows plus a config echo. Exit codes: 0 success, 1 invalid
configuration, 2 numerical failure, 3 verification-suite failures.

A config file of key=value lines (keys are long flag names, booleans as
true/false) can preload any subcommand's flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import expr
from .analysis import SUITE_NAMES, default_suite_run
from .errors import (
    BoundViolation,
    DegenerateGrid,
    DomainError,
    DomainFault,
    ExprSyntaxError,
    FracvarError,
    HypothesisViolation,
    InvalidGrid,
    InvalidParam,
    NewtonDivergence,
    NonConvergent,
    SingularOrder,
)
from .fde import FdeProblem, solve_fde
from .grids import GridFunction
from .kernel import (
    KernelSpec,
    NormalizationFunction,
    OrderFunction,
    warp_from_expr,
)
from .operators import (
    caputo_deriv_classical,
    caputo_deriv_ns,
    rl_deriv_classical,
    rl_deriv_ns,
    rl_integral_varorder,
)

_VALIDATION_ERRORS = (InvalidParam, InvalidGrid, DegenerateGrid, ExprSyntaxError)
_NUMERICAL_ERRORS = (NonConvergent, NewtonDivergence, SingularOrder, DomainError,
                     DomainFault, BoundViolation, HypothesisViolation)

_DERIV_OPS = {
    "rl_ns": rl_deriv_ns,
    "caputo_ns": caputo_deriv_ns,
    "rl_classical": rl_deriv_classical,
    "caputo_classical": caputo_deriv_classical,
}


class _Parser(argparse.ArgumentParser):
    # flag mistakes are configuration errors: exit 1, not argparse's 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", required=True, help="order expression in t")
    p.add_argument("--psi", default="t", help="warp expression in t")
    p.add_argument("--gamma", default="1",
                   help="kernel exponent in (0,1], or 'track' to follow alpha(t)")
    p.add_argument("--beta", default="1",
                   help="Mittag-Leffler order in (0,1], or 'track'")
    p.add_argument("--M", default="1", help="normalization expression in alpha")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="grid panels")


def _add_output_flags(p: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--config", default=None,
                   help="key=value file preloading flags for this subcommand")


def build_parser() -> _Parser:
    parser = _Parser(prog="fracvar")
    sub = parser.add_subparsers(dest="command", required=True)

    p_deriv = sub.add_parser("deriv", help="evaluate a derivative operator")
    p_deriv.add_argument("--op", choices=sorted(_DERIV_OPS), required=True)
    _add_kernel_flags(p_deriv)
    p_deriv.add_argument("--f", required=True, help="function expression in t")
    p_deriv.add_argument("--scheme", choices=("product_trapezoid", "product_midpoint"),
                         default="product_trapezoid")
    p_deriv.add_argument("--estimate-error", action="store_true",
                         help="emit per-node cross-scheme differences")
    _add_output_flags(p_deriv)

    p_int = sub.add_parser("integral", help="evaluate the variable-order integral")
    _add_kernel_flags(p_int)
    p_int.add_argument("--f", required=True)
    p_int.add_argument("--exponent-at", choices=("t", "tau"), default="t",
                       help="where the order enters the kernel exponent")
    p_int.add_argument("--scheme", choices=("product_trapezoid", "product_midpoint"),
                       default="product_trapezoid")
    p_int.add_argument("--estimate-error", action="store_true")
    _add_output_flags(p_int)

    p_solve = sub.add_parser("solve", help="solve the Caputo-type FDE")
    _add_kernel_flags(p_solve)
    p_solve.add_argument("--rhs", required=True, help="expression in t and u")
    p_solve.add_argument("--u0", type=float, required=True)
    p_solve.add_argument("--no-compat-correction", action="store_true",
                         help="discretize the equation exactly as written")
    _add_output_flags(p_solve)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int, default=0)
    _add_output_flags(p_verify, formats=("text", "json"))
    return parser


def _load_config(path: str) -> list[str]:
    flags: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParam(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    flags.append(flag)
            else:
                flags.extend([flag, value])
    return flags


def _expand_config(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise InvalidParam("--config requires a path")
    # config flags go right after the subcommand so explicit flags win
    return argv[:1] + _load_config(argv[idx + 1]) + argv[1:]


_EXPR_FLAGS = {"--rhs", "--f", "--alpha", "--psi", "--M"}


def _merge_expr_values(argv: list[str]) -> list[str]:
    """Join expression flags with values that start with a minus sign.

    argparse would otherwise read `--rhs -u` as a flag missing its value.
    """
    merged: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in _EXPR_FLAGS and len(nxt) > 1 and nxt[0] == "-"
                and nxt[1] != "-"):
            merged.append(f"{tok}={nxt}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def _parse_track(text: str, flag: str) -> float | None:
    if text.strip().lower() in ("track", "alpha"):
        return None
    try:
        return float(text)
    except ValueError:
        raise InvalidParam(f"--{flag} must be a number or 'track', got {text!r}")


def _kernel_from_args(args) -> KernelSpec:
    interval = (args.a, args.b)
    order = OrderFunction.from_expr(args.alpha, interval=interval)
    return KernelSpec(
        gamma=_parse_track(args.gamma, "gamma"),
        beta=_parse_track(args.beta, "beta"),
        order=order,
        warp=warp_from_expr(args.psi),
        norm=NormalizationFunction.from_expr(args.M),
        interval=interval,
    )


def _grid_function(source: str, a: float, b: float, n: int) -> GridFunction:
    node = expr.parse(source, allowed_vars={"t"})
    dnode = expr.derivative(node, "t")
    return GridFunction.from_callable(
        lambda t: expr.evaluate(node, {"t": t}), a, b, n,
        deriv=lambda t: expr.evaluate(dnode, {"t": t}), label=source)


def _config_echo(args) -> dict:
    skip = {"command", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, columns: list[str], table: np.ndarray,
          extra: dict | None = None) -> None:
    """Write one row per line of table (columns as named) as CSV or JSON."""
    if args.format == "csv":
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        text = ",".join(columns) + "\n" + (line * len(table)) % tuple(table.ravel().tolist())
    else:
        payload = {"config": _config_echo(args), "columns": columns,
                   "rows": table.tolist()}
        if extra:
            payload.update(extra)
        text = json.dumps(payload, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _run_operator(args, op_name: str) -> None:
    spec = _kernel_from_args(args)
    f = _grid_function(args.f, args.a, args.b, args.n)
    if op_name == "rl_integral":
        result = rl_integral_varorder(spec, f, exponent_at=args.exponent_at,
                                      scheme=args.scheme)
    else:
        result = _DERIV_OPS[op_name](spec, f, scheme=args.scheme)
    columns = ["t", "value"]
    table = [result.values.grid, result.values.values]
    if args.estimate_error:
        columns.append("estimate_error")
        table.append(result.cross_scheme)
    _emit(args, columns, np.column_stack(table),
          extra={"quad_error_estimate": result.quad_error_estimate})


def _run_solve(args) -> None:
    spec = _kernel_from_args(args)
    rhs = expr.to_function(expr.parse(args.rhs, allowed_vars={"t", "u"}), ("t", "u"))
    problem = FdeProblem(spec=spec, rhs=rhs, initial=args.u0, grid_n=args.n)
    report = solve_fde(problem, compat_correction=not args.no_compat_correction)
    grid = report.solution.grid
    uv = report.solution.values
    extra = {
        "u_end": float(uv[-1]),
        "residual_norm": report.residual_norm,
        "max_newton_iters": int(np.max(report.newton_iters)),
        "compat_gap": report.compat_gap,
        "corrected": report.corrected,
    }
    _emit(args, ["t", "value"], np.column_stack((grid, uv)), extra=extra)
    # without --out, stdout carries the data and the summary goes to stderr
    print(f"u({grid[-1]:g}) = {uv[-1]:.12g}  residual = {report.residual_norm:.3e}  "
          f"compat gap = {report.compat_gap:.3e}",
          file=sys.stdout if args.out else sys.stderr)


def _run_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = []
    for name in names:
        reports.extend(default_suite_run(name, seed=args.seed))
    hard_failures = sum(len(rep.failures) for rep in reports
                        if not rep.passed and not rep.informational)
    exit_code = 3 if hard_failures else 0
    if args.out or args.format == "json":
        payload = {
            "config": _config_echo(args),
            "suites": [
                {
                    "suite": rep.suite_name,
                    "cases_run": rep.cases_run,
                    "failures": rep.failures,
                    "notes": rep.notes,
                    "informational": rep.informational,
                    "passed": rep.passed,
                }
                for rep in reports
            ],
        }
        text = json.dumps(payload, sort_keys=True) + "\n"
        if not args.out:  # --format json: the report replaces the text lines
            sys.stdout.write(text)
            return exit_code
    for rep in reports:
        status = "PASS" if rep.passed else ("INFO-FAIL" if rep.informational else "FAIL")
        print(f"{status:9s} {rep.suite_name}: {rep.cases_run} cases, "
              f"{len(rep.failures)} failures")
        for failure in rep.failures[:5]:
            print(f"          {failure['case']}: observed {failure['observed']:.6g} "
                  f"vs bound {failure['bound']:.6g}")
        for note in rep.notes:
            print(f"          note: {note}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return exit_code


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_expr_values(_expand_config(raw)))
        if args.command == "deriv":
            _run_operator(args, args.op)
        elif args.command == "integral":
            _run_operator(args, "rl_integral")
        elif args.command == "solve":
            _run_solve(args)
        else:
            return _run_verify(args)
        return 0
    except _VALIDATION_ERRORS as exc:
        print(f"fracvar: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"fracvar: numerical failure: {exc}", file=sys.stderr)
        return 2
    except FracvarError as exc:
        print(f"fracvar: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fracvar: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
