"""Command-line front end.

Subcommands: deriv (the four derivative operators), integral (the
variable-order integral), solve (the implicit FDE solver), verify (the
numerical verification suites). Kernel ingredients arrive as expression
strings (variable t for alpha/psi/f, alpha for M, t and u for the solver
right-hand side).

Output is CSV `t,value[,estimate_error]`, each value written as exactly the
bytes Python's '%.17g' gives for it, or JSON carrying the same rows plus a
config echo. Exit codes: 0 success, 1 invalid configuration or i/o error,
2 numerical failure (any other error the package raises), 3
verification-suite failures.

A config file of key=value lines (keys are long flag names, booleans as
true/false) can preload any subcommand's flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import expr
from .analysis import SUITE_NAMES, default_suite_run
from .errors import DegenerateGrid, ExprSyntaxError, FracvarError, InvalidGrid, InvalidParam
from .fde import FdeProblem, solve_fde
from .grids import GridFunction
from .kernel import (
    KernelSpec,
    NormalizationFunction,
    OrderFunction,
    warp_from_expr,
)
from .operators import (
    SCHEMES,
    caputo_deriv_classical,
    caputo_deriv_ns,
    rl_deriv_classical,
    rl_deriv_ns,
    rl_integral_varorder,
)

_VALIDATION_ERRORS = (InvalidParam, InvalidGrid, DegenerateGrid, ExprSyntaxError)

_DERIV_OPS = {
    "rl_ns": rl_deriv_ns,
    "caputo_ns": caputo_deriv_ns,
    "rl_classical": rl_deriv_classical,
    "caputo_classical": caputo_deriv_classical,
}


class _Parser(argparse.ArgumentParser):
    # flags match exactly, as _expand_config and _merge_expr_values read them
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

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


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged."""
    parser = _Parser(prog="fracvar")
    sub = parser.add_subparsers(dest="command", required=True)

    p_deriv = sub.add_parser("deriv", help="evaluate a derivative operator")
    p_deriv.add_argument("--op", choices=sorted(_DERIV_OPS), required=True)
    _add_kernel_flags(p_deriv)
    p_deriv.add_argument("--f", required=True, help="function expression in t")
    p_deriv.add_argument("--scheme", choices=SCHEMES, default=SCHEMES[0])
    p_deriv.add_argument("--estimate-error", action="store_true",
                         help="emit per-node cross-scheme differences")
    _add_output_flags(p_deriv)

    p_int = sub.add_parser("integral", help="evaluate the variable-order integral")
    _add_kernel_flags(p_int)
    p_int.add_argument("--f", required=True)
    p_int.add_argument("--exponent-at", choices=("t", "tau"), default="t",
                       help="where the order enters the kernel exponent")
    p_int.add_argument("--scheme", choices=SCHEMES, default=SCHEMES[0])
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
    for idx, tok in enumerate(argv):
        key, eq, path = tok.partition("=")  # --config PATH or --config=PATH
        if key == "--config":
            if not eq and idx + 1 >= len(argv):
                raise InvalidParam("--config requires a path")
            # config flags go right after the subcommand so explicit flags win
            return argv[:1] + _load_config(path if eq else argv[idx + 1]) + argv[1:]
    return argv


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
    if text.strip().lower() == "track":
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


_CSV_BLOCK = 2048  # values per pass of _csv_block: its temporaries stay small


@functools.cache
def _csv_tables():
    """Per exponent e in [-200, 200]: 10^(16 - e) as a double-double from
    exact integers, and the '%.17g' layout (index of the last integer digit,
    digits after the first before the dot, prefix and suffix bytes); the ASCII
    of each 4-digit integer, first digit lowest; low-byte masks; dot bytes."""
    hi, lo, lay = [], [], []
    for e in range(-200, 201):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
        fixed = -4 <= e < 17
        pre = b"0.000"[:1 - e] if fixed and e < 0 else b""
        suf = b"" if fixed else b"e%+03d" % e
        lay.append((*((e, e) if 0 <= e < 17 else (-1, 16) if fixed else (0, 0)),  # whole, jdot
                    int.from_bytes(b"\0" + pre, "little"),
                    int.from_bytes(b"\0\0" + suf, "little")))
    pair = np.arange(100) // 10 + np.arange(100) % 10 * 256 + 0x3030
    quad = (pair[:, None] | pair << 16).ravel()
    keep = np.array([(1 << 8 * k) - 1 for k in range(8)] + [-1] * 9)
    dots = [46 << 8 * (j % 8) for j in range(16)] + [0, 0]
    return (np.array(hi), np.array(lo), *map(np.array, zip(*lay)), quad, keep,
            np.array(dots[:8] + [0] * 10), np.array([0] * 8 + dots[8:]))


def _csv_block(v: np.ndarray, seps: np.ndarray) -> bytes:
    """'%.17g' of each value followed by its separator, as bytes.

    |x| * 10^(16 - e), e = floor(log10 |x|), is taken exactly enough as the
    double-double p + r by Dekker's split product, then rounded to the
    17-digit integer d. Each field is four int64 words laid out per e: sign
    and the '0.000' prefix, the first digit, the 16 others with the dot after
    the integer ones and trailing fraction zeros dropped, the exponent suffix
    and the separator; NUL bytes pad the gaps and are deleted at the end.
    The values this cannot decide take Python's own '%.17g': zeros, inf and
    nan, |x| outside [1e-200, 1e200], a fraction of p + r within 1e-6 of 1/2
    (a possible tie), and an e off by one, so that p + r < 10^16 or d = 10^17.
    """
    hi, lo, whole, jdot, pre, suf, quad, keep, dot0, dot1 = _csv_tables()
    x = np.abs(v)
    ok = (x >= 1e-200) & (x <= 1e200)
    x[~ok] = 1.0
    e = np.floor(np.log10(x)).astype(np.intp) + 200
    ph = hi[e]
    p = x * ph
    s, t = x * 134217729.0, ph * 134217729.0  # 2^27 + 1: halves that multiply exactly
    xh, qh = s - (s - x), t - (t - ph)
    xl, ql = x - xh, ph - qh
    r = ((xh * qh - p) + xh * ql + xl * qh) + xl * ql + x * lo[e]
    s = np.floor(r)
    r -= s
    d = p.astype(np.int64) + s.astype(np.int64)
    ok &= (d >= 10**16) & (np.abs(r - 0.5) > 1e-6)
    d += r > 0.5
    ok &= d < 10**17
    out = np.empty((v.size, 4), np.int64)
    top = d // 10**8
    out[:, 0] = pre[e] | top // 10**8 + 48 << 56 | (v < 0) * 45
    # digits 2-9 and 10-17 as the ASCII bytes of two words, in reading order
    ab = np.stack((top % 10**8, d - top * 10**8))
    m = ab // 10000
    ab = quad[m] | quad[ab - m * 10000] << 32
    # the last nonzero digit: the top set bit of the words' nonzero-byte marks
    m = ab ^ 0x3030303030303030
    m = ((m | m >> 1 | m >> 2 | m >> 3) & 0x0101010101010101).astype(np.float64)
    last = np.frexp(m[0] + m[1] * 2.0**64)[1] + 7 >> 3
    cut = np.maximum(last, whole[e])
    ab &= keep[np.stack((cut, np.maximum(cut - 8, 0)))]
    j = jdot[e]
    m = ab & keep[np.stack((j, np.maximum(j - 8, 0)))]
    ab ^= m
    j = np.where(last > j, j, 17)
    out[:, 1] = m[0] | ab[0] << 8 | dot0[j]
    out[:, 2] = m[1] | ab[1] << 8 | ab[0] >> 56 | dot1[j]
    out[:, 3] = ab[1] >> 56 | suf[e] | seps << 56
    out.view(np.uint8).reshape(-1, 32)[~ok, :31] = np.frombuffer(b"".join(
        (b"%.17g" % y).ljust(31, b"\0") for y in v[~ok].tolist()), np.uint8).reshape(-1, 31)
    return out.tobytes().translate(None, b"\0")


def _csv(columns: list[str], table: np.ndarray) -> str:
    """The header, then one line per row of table: '%.17g' of each value."""
    values = np.asarray(table, np.float64).ravel()
    per = max(1, _CSV_BLOCK // len(columns)) * len(columns)
    seps = np.tile([44] * (len(columns) - 1) + [10], per // len(columns))
    blocks = (_csv_block(values[i:i + per], seps[:values.size - i])
              for i in range(0, values.size, per))
    return b"".join([",".join(columns).encode() + b"\n", *blocks]).decode("ascii")


def _write(args, text: str) -> None:
    """Send text to --out and name the file on stdout, or send it to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _emit(args, columns: list[str], table: np.ndarray,
          extra: dict | None = None) -> None:
    """Write one row per line of table (columns as named) as CSV or JSON."""
    if args.format == "csv":
        text = _csv(columns, table)
    else:
        payload = {"config": _config_echo(args), "columns": columns,
                   "rows": table.tolist()}
        if extra:
            payload.update(extra)
        text = json.dumps(payload, sort_keys=True) + "\n"
    _write(args, text)


def _run_operator(args) -> None:
    spec = _kernel_from_args(args)
    f = _grid_function(args.f, args.a, args.b, args.n)
    if args.command == "deriv":
        result = _DERIV_OPS[args.op](spec, f, scheme=args.scheme)
    else:
        result = rl_integral_varorder(spec, f, exponent_at=args.exponent_at,
                                      scheme=args.scheme)
    columns = ["t", "value"]
    table = [result.values.grid, result.values.values]
    if args.estimate_error:
        columns.append("estimate_error")
        table.append(result.cross_scheme)
    # the estimate sums the second scheme: read it only where it is written
    extra = {"quad_error_estimate": result.quad_error_estimate} if args.format == "json" else None
    _emit(args, columns, np.column_stack(table), extra=extra)


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


def _strict(failure: dict) -> dict:
    """A failure record as strict JSON can hold it: a non-finite observed
    value, bound or margin becomes null."""
    return {key: None if key in ("observed", "bound", "margin")
            and not math.isfinite(value) else value for key, value in failure.items()}


def _run_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = [rep for name in names for rep in default_suite_run(name, seed=args.seed)]
    if args.out or args.format == "text":
        for rep in reports:
            status = "PASS" if rep.passed else ("INFO-FAIL" if rep.informational else "FAIL")
            print(f"{status:9s} {rep.suite_name}: {rep.cases_run} cases, "
                  f"{len(rep.failures)} failures")
            for failure in rep.failures[:5]:
                print(f"          {failure['case']}: observed {failure['observed']:.6g} "
                      f"vs bound {failure['bound']:.6g}")
            for note in rep.notes:
                print(f"          note: {note}")
    if args.out or args.format == "json":
        suites = [{"suite": rep.suite_name, "cases_run": rep.cases_run,
                   "failures": [_strict(failure) for failure in rep.failures],
                   "notes": rep.notes, "informational": rep.informational,
                   "passed": rep.passed} for rep in reports]
        _write(args, json.dumps({"config": _config_echo(args), "suites": suites},
                                sort_keys=True) + "\n")
    return 3 if any(rep.failures and not rep.informational for rep in reports) else 0


_COMMANDS = {"deriv": _run_operator, "integral": _run_operator,
             "solve": _run_solve, "verify": _run_verify}


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_merge_expr_values(_expand_config(raw)))
        return _COMMANDS[args.command](args) or 0
    except _VALIDATION_ERRORS as exc:
        print(f"fracvar: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except FracvarError as exc:
        print(f"fracvar: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fracvar: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
