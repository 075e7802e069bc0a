"""Command-line interface: documented invocations, formats, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracvar import (
    FdeProblem,
    GridFunction,
    KernelSpec,
    NormalizationFunction,
    OrderFunction,
    caputo_deriv_classical,
    cli,
    expr,
    operators,
    rl_deriv_ns,
    solve_fde,
    warp_from_expr,
)


def run(args, **kwargs):
    return cli.main(list(args), **kwargs)


DERIV_EXAMPLE = ["deriv", "--op", "caputo_ns", "--alpha", "0.5", "--psi", "t",
                 "--beta", "1", "--gamma", "1", "--f", "t", "--a", "0",
                 "--b", "1", "--n", "512"]


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_deriv_documented_example(tmp_path):
    out = tmp_path / "d.csv"
    code = run(DERIV_EXAMPLE + ["--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["t", "value"]
    assert len(rows) == 513
    t_end, value_end = rows[-1]
    assert t_end == 1.0
    assert value_end == pytest.approx(1.264241, abs=5e-6)


def test_deriv_estimate_error_column(tmp_path):
    out = tmp_path / "d.csv"
    assert run(DERIV_EXAMPLE + ["--estimate-error", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "value", "estimate_error"]
    assert all(row[2] >= 0.0 for row in rows)
    assert max(row[2] for row in rows) < 1e-4


@pytest.mark.parametrize("op,operator", [("rl_ns", rl_deriv_ns),
                                         ("caputo_classical", caputo_deriv_classical)])
def test_estimate_error_column_is_the_cross_scheme_gap(tmp_path, op, operator):
    out = tmp_path / "d.csv"
    source = "exp(t)*sin(3*t)"
    assert run(["deriv", "--op", op, "--alpha", "0.4 + 0.2*t", "--psi", "t + t^2",
                "--gamma", "0.6", "--beta", "track", "--f", source, "--a", "0",
                "--b", "1", "--n", "96", "--scheme", "product_midpoint",
                "--estimate-error", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    # the same inputs through the library, once per scheme
    spec = KernelSpec(gamma=0.6, beta=None,
                      order=OrderFunction.from_expr("0.4 + 0.2*t", interval=(0.0, 1.0)),
                      warp=warp_from_expr("t + t^2"), norm=NormalizationFunction.one(),
                      interval=(0.0, 1.0))
    node = expr.parse(source, allowed_vars={"t"})
    dnode = expr.derivative(node, "t")
    f = GridFunction.from_callable(lambda t: expr.evaluate(node, {"t": t}), 0.0, 1.0, 96,
                                   deriv=lambda t: expr.evaluate(dnode, {"t": t}))
    trap = operator(spec, f, scheme="product_trapezoid").values.values
    mid = operator(spec, f, scheme="product_midpoint").values.values
    assert np.array_equal([row[1] for row in rows], mid)
    assert np.array_equal([row[2] for row in rows], np.abs(trap - mid))


@pytest.mark.parametrize("flags,mids", [([], 0), (["--estimate-error"], 1),
                                         (["--format", "json"], 1)])
def test_deriv_sums_the_second_scheme_only_for_the_estimate(flags, mids, monkeypatch, capsys):
    # a tracked-order deriv on the log warp sums its midpoint column,
    # _exp_sums on the 2n + 1 points of the half-step grid, only when the
    # estimate is written: an estimate_error column or JSON output
    counted = []
    real = operators._exp_sums

    def exp_sums(psi, rates, weights, x, factors=None):
        counted.append(psi.size == 2 * 512 + 1)
        return real(psi, rates, weights, x, factors)

    monkeypatch.setattr(operators, "_exp_sums", exp_sums)
    assert run(["deriv", "--op", "caputo_ns", "--alpha", "0.3 + 0.2*t", "--beta", "track",
                "--gamma", "track", "--psi", "ln(t)", "--f", "sin(t)", "--a", "1", "--b", "2",
                "--n", "512", *flags]) == 0
    capsys.readouterr()
    assert sum(counted) == mids and len(counted) == 1 + mids


def test_solve_documented_example(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = run(["solve", "--rhs", "-u", "--u0", "1", "--alpha", "0.5",
                "--a", "0", "--b", "1", "--n", "1024",
                "--format", "json", "--out", str(out)])
    assert code == 0
    assert "u(1) = 0.716531" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["u_end"] == pytest.approx(0.716531, abs=1e-5)
    assert report["residual_norm"] < 1e-9
    assert report["corrected"] is True
    assert report["config"]["rhs"] == "-u"


def test_solve_raw_mode_flag(tmp_path):
    out = tmp_path / "raw.json"
    assert run(["solve", "--rhs", "-u", "--u0", "1", "--alpha", "0.5",
                "--a", "0", "--b", "1", "--n", "64", "--no-compat-correction",
                "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["corrected"] is False


def test_integral_runs_with_exponent_mode(tmp_path):
    out = tmp_path / "i.csv"
    code = run(["integral", "--alpha", "0.5 + 0.1*t", "--f", "t", "--a", "0",
                "--b", "1", "--n", "128", "--exponent-at", "tau",
                "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert rows[0][1] == 0.0
    assert rows[-1][1] > 0.0


def test_csv_to_stdout_without_out_flag(capsys):
    assert run(DERIV_EXAMPLE[:-2] + ["--n", "64"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 66


def test_csv_bytes_pinned(capsys):
    # 17 significant digits, %g style: the sign of zero, subnormals and the
    # exponent form survive
    args = cli.build_parser().parse_args(DERIV_EXAMPLE)
    cli._emit(args, ["t", "value"], np.array([[-0.0, 5e-324], [1e308, 0.1]]))
    assert capsys.readouterr().out == (
        "t,value\n-0,4.9406564584124654e-324\n1e+308,0.10000000000000001\n")


def percent_g(columns, table):
    """The CSV as one Python '%.17g' format per value writes it."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + (line * len(table)) % tuple(table.ravel().tolist())


def assert_csv_is_percent_g(values, cols=1):
    table = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    columns = ["t", "value", "estimate_error"][:cols]
    assert cli._csv(columns, table) == percent_g(columns, table)


@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_csv_is_percent_g_on_any_float(values, cols):
    assert_csv_is_percent_g(values * cols, cols)  # repeated: the rows fill evenly


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_csv_is_percent_g_on_any_bit_pattern(bits):
    assert_csv_is_percent_g(np.array(bits, dtype=np.uint64).view(np.float64))


def test_csv_is_percent_g_on_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    ints = np.concatenate([np.arange(-50, 51) + 1e16, np.arange(-50, 51) * 8 + 1e17,
                           np.arange(-50, 51) * 16 + 9.999999999999998e16])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1e-310, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.5, 1200.0, 2.5e-5, 0.1, 1e-5, 12345.0, 1e16, 1e17]
    for values in (near, -near, ints, -ints, special):
        assert_csv_is_percent_g(values)


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_csv_is_percent_g_across_block_boundaries(cols):
    rng = np.random.default_rng(cols)
    rows = cli._CSV_BLOCK // cols
    for n in (rows - 1, rows, rows + 1, 2 * rows + 3):
        values = rng.standard_normal(n * cols) * 10.0 ** rng.integers(-8, 20, n * cols)
        values[::97] = np.round(values[::97], 3)
        assert_csv_is_percent_g(values, cols)


def test_cli_csv_is_percent_g_of_the_results(capsys):
    # one deriv_toeplitz benchmark call at full size and one solve: stdout is
    # the '%.17g' rendering of the arrays the library returns, on every run
    deriv = ["deriv", "--op", "caputo_ns", "--alpha", "0.5", "--psi", "t", "--beta", "1",
             "--gamma", "1", "--f", "1.37*t", "--a", "0.0", "--b", "1.0", "--n", "8192",
             "--estimate-error"]
    solve = ["solve", "--alpha", "0.5", "--beta", "0.5", "--gamma", "0.5",
             "--rhs", "-u^3 - 1.5*u + (-0.75)*sin(pi*t)", "--u0", "1", "--a", "0",
             "--b", "1", "--n", "2048"]
    for argv in (deriv, solve):
        outs = []
        for _ in range(2):
            assert run(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        args = cli.build_parser().parse_args(cli._merge_expr_values(argv))
        spec = cli._kernel_from_args(args)
        if args.command == "deriv":
            result = cli._DERIV_OPS[args.op](spec, cli._grid_function(
                args.f, args.a, args.b, args.n))
            columns = ["t", "value", "estimate_error"]
            table = np.column_stack((result.values.grid, result.values.values,
                                     result.cross_scheme))
        else:
            rhs = expr.to_function(expr.parse(args.rhs, allowed_vars={"t", "u"}), ("t", "u"))
            report = solve_fde(FdeProblem(spec=spec, rhs=rhs, initial=args.u0,
                                          grid_n=args.n))
            columns = ["t", "value"]
            table = np.column_stack((report.solution.grid, report.solution.values))
        assert outs[0] == percent_g(columns, table), argv


@pytest.mark.parametrize("argv", [
    ["integral", "--alpha", "0.5", "--f", "sqrt(t)"],
    ["deriv", "--op", "rl_ns", "--alpha", "0.5", "--f", "abs(t-0.5)"],
    ["deriv", "--op", "rl_classical", "--alpha", "0.5", "--f", "abs(t-0.5)"],
])
def test_operators_without_fprime_never_evaluate_it(argv, capsys):
    # f' of these f fails at a node, and only the Caputo types read f'
    assert run(argv + ["--a", "0", "--b", "1", "--n", "16"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 18
    assert run(["deriv", "--op", "caputo_ns", *argv[-4:],
                "--a", "0", "--b", "1", "--n", "16"]) == 2
    assert capsys.readouterr().err == "fracvar: numerical failure: division by zero\n"


SOLVE_EXAMPLE = ["solve", "--rhs", "-u", "--u0", "1", "--alpha", "0.5",
                 "--a", "0", "--b", "1", "--n", "64"]


def test_solve_csv_stdout_is_pure_data(capsys):
    assert run(SOLVE_EXAMPLE) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "t,value"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 65 and all(len(row) == 2 for row in rows)
    assert captured.err.startswith("u(1) = ")


def test_compiled_rhs_gives_the_walked_solution():
    # the nonlinear right-hand side of the benchmark's solve workload
    node = expr.parse("-u^3 - 1.5*u + (-0.75)*sin(pi*t)", allowed_vars={"t", "u"})
    spec = KernelSpec(gamma=0.5, beta=0.5,
                      order=OrderFunction.from_expr("0.5", interval=(0.0, 1.0)),
                      warp=warp_from_expr("t"), norm=NormalizationFunction.one(),
                      interval=(0.0, 1.0))

    def walked(t, u):
        return float(expr.evaluate(node, {"t": t, "u": u}))

    compiled_u, walked_u = (
        solve_fde(FdeProblem(spec=spec, rhs=rhs, initial=1.2, grid_n=512)).solution.values
        for rhs in (expr.to_function(node, ("t", "u")), walked))
    assert np.array_equal(compiled_u, walked_u)


def test_solve_json_stdout_is_valid_json(capsys):
    assert run(SOLVE_EXAMPLE + ["--format", "json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert len(report["rows"]) == 65
    assert report["u_end"] == pytest.approx(report["rows"][-1][1])
    assert captured.err.startswith("u(1) = ")


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "vanish_at_a", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["config"]["format"] == "text"
    assert payload["suites"][0]["suite"] == "vanish_at_a"
    assert payload["suites"][0]["passed"] is True


def test_verify_json_stdout_is_valid_json(capsys):
    # without --out, --format json prints the report that --out would write
    assert run(["verify", "--suite", "max_point", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["format"] == "json"
    assert [s["suite"] for s in payload["suites"]] == ["max_point"]
    assert payload["suites"][0]["passed"] is True


def test_verify_failure_exit_code(monkeypatch, capsys):
    from fracvar.analysis import SuiteReport

    def fake_run(name, seed=0):
        return [SuiteReport(suite_name=name, cases_run=1,
                            failures=[{"case": "x", "observed": 2.0,
                                       "bound": 1.0, "margin": -1.0}])]

    monkeypatch.setattr(cli, "default_suite_run", fake_run)
    assert run(["verify", "--suite", "max_point"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_informational_failures_do_not_fail_exit(monkeypatch, capsys):
    from fracvar.analysis import SuiteReport

    def fake_run(name, seed=0):
        return [SuiteReport(suite_name=name, cases_run=1,
                            failures=[{"case": "x", "observed": 2.0,
                                       "bound": 1.0, "margin": -1.0}],
                            informational=True)]

    monkeypatch.setattr(cli, "default_suite_run", fake_run)
    assert run(["verify", "--suite", "max_point"]) == 0
    assert "INFO-FAIL" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_op_is_config_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["deriv", "--op", "nope", "--alpha", "0.5", "--f", "t",
                 "--a", "0", "--b", "1", "--n", "64"])
        assert exc.value.code == 1

    def test_bad_expression_is_config_error(self):
        assert run(["deriv", "--op", "caputo_ns", "--alpha", "0.5",
                    "--f", "t + * 2", "--a", "0", "--b", "1", "--n", "64"]) == 1

    def test_order_outside_unit_interval_is_config_error(self):
        assert run(["deriv", "--op", "caputo_ns", "--alpha", "1.5",
                    "--f", "t", "--a", "0", "--b", "1", "--n", "64"]) == 1

    def test_too_coarse_grid_is_config_error(self):
        # the classical derivatives and the solver both need n >= 16
        common = ["--alpha", "0.5", "--a", "0", "--b", "1", "--n", "12"]
        assert run(["deriv", "--op", "rl_classical", "--f", "t"] + common) == 1
        assert run(["solve", "--rhs", "-u", "--u0", "1"] + common) == 1

    @pytest.mark.parametrize("command", [
        ["deriv", "--op", "caputo_ns", "--f", "sin(t)"],
        ["deriv", "--op", "rl_ns", "--f", "sin(t)"],
        ["deriv", "--op", "caputo_classical", "--f", "sin(t)"],
        ["deriv", "--op", "rl_classical", "--f", "sin(t)"],
        ["integral", "--f", "sin(t)"],
        ["solve", "--rhs", "-u", "--u0", "1"],
    ])
    def test_order_below_zero_on_the_grid_is_config_error(self, command, capsys):
        # the 1024-panel sample that sets the declared bounds sees
        # [0.2996, 0.3004]; on the 2000-panel grid 592 nodes have alpha <= 0
        order = ["--alpha", "0.3 + 0.5*sin(3216.99*t)", "--a", "0", "--b", "1",
                 "--n", "2000"]
        assert run(command + order) == 1
        assert "order must stay positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["deriv", "--op", "caputo_ns", "--f", "sin(t)"],
        ["deriv", "--op", "rl_ns", "--f", "sin(t)"],
        ["deriv", "--op", "caputo_classical", "--f", "sin(t)"],
        ["deriv", "--op", "rl_classical", "--f", "sin(t)"],
        ["integral", "--f", "sin(t)"],
        ["solve", "--rhs", "-u", "--u0", "1"],
    ])
    def test_order_above_one_on_the_grid_is_config_error(self, command, capsys):
        # the 1024-panel sample that sets the declared bounds sees
        # [0.6996, 0.7004]; on the 2000-panel grid alpha reaches 1.2
        order = ["--alpha", "0.7 + 0.5*sin(3216.99*t)", "--a", "0", "--b", "1",
                 "--n", "2000"]
        assert run(command + order) == 1
        assert "at most 1; alpha(t) = 1.19996" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gamma", "--beta"])
    def test_tracked_exponent_is_spelled_track(self, flag, capsys):
        assert run(["deriv", "--op", "caputo_ns", "--alpha", "0.5", flag, "alpha",
                    "--f", "t", "--a", "0", "--b", "1", "--n", "64"]) == 1
        assert "must be a number or 'track'" in capsys.readouterr().err

    def test_singular_order_is_numerical_error(self):
        assert run(["deriv", "--op", "caputo_ns", "--alpha", "1",
                    "--f", "t", "--a", "0", "--b", "1", "--n", "64"]) == 2

    def test_domain_fault_is_numerical_error(self):
        # ln faults at t = 0 when the grid samples it
        assert run(["deriv", "--op", "caputo_ns", "--alpha", "0.5",
                    "--f", "ln(t)", "--a", "0", "--b", "1", "--n", "64"]) == 2

    @pytest.mark.parametrize("argv", [
        ["deriv", "--op", "caputo_ns", "--alpha", "0.5", "--f", "(-2)^(1e400)"],
        ["solve", "--alpha", "0.5", "--rhs", "(-u)^(1e400)", "--u0", "1"],
    ])
    def test_infinite_exponent_is_numerical_error(self, argv):
        assert run(argv + ["--a", "0", "--b", "1", "--n", "16"]) == 2

    @pytest.mark.parametrize("rhs, message", [
        ("1/(u*1e308*10) - u", "expression evaluated to a non-finite value (node at offset 10)"),
        ("(-0.5)^1e400 - u", "negative base with fractional exponent (node at offset 6)"),
    ])
    def test_rhs_fault_carries_the_walks_message(self, rhs, message, capsys):
        # unchecked math would read both as 0 - u
        assert run(["solve", "--alpha", "0.5", "--rhs", rhs, "--u0", "1",
                    "--a", "0", "--b", "1", "--n", "16"]) == 2
        assert capsys.readouterr().err == f"fracvar: numerical failure: {message}\n"

    def test_infinite_literal_is_numerical_error(self, capsys):
        assert run(["deriv", "--op", "caputo_ns", "--alpha", "0.5", "--f", "1e400",
                    "--a", "0", "--b", "1", "--n", "16"]) == 2
        assert "offset 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "max_point", "--format", "csv"],
        DERIV_EXAMPLE + ["--seed", "7"],
        ["--rh" if tok == "--rhs" else tok for tok in SOLVE_EXAMPLE],
        ["solve", "--rh=-u"] + SOLVE_EXAMPLE[3:],
    ])
    def test_unsupported_flag_is_config_error(self, argv):
        # verify writes text or JSON only; only verify draws random cases;
        # flags match exactly, so a prefix of --rhs is no flag at all
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1

    def test_integer_exponent_expression_of_t(self, capsys):
        # every exponent is 3, so the negative base is legal at every node
        assert run(["deriv", "--op", "caputo_ns", "--alpha", "0.5",
                    "--f", "(t-2)^(3+0*t)", "--a", "0", "--b", "1", "--n", "16"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 18

    def test_config_without_a_path_is_config_error(self, capsys):
        assert run(DERIV_EXAMPLE + ["--config"]) == 1
        assert capsys.readouterr().err == ("fracvar: invalid configuration: "
                                           "--config requires a path\n")

    def test_out_into_a_missing_directory_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "d.csv"
        assert run(DERIV_EXAMPLE + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fracvar: i/o error: ") and str(out) in err
        assert not out.parent.exists()


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["deriv", "--op", "rl_ns", "--alpha", "0.4 + 0.1*sin(t)",
            "--f", "exp(t)", "--a", "0", "--b", "1", "--n", "128"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_calls_in_one_process_print_what_fresh_processes_print(capsys):
    # the parser is built once per process; a flag error (exit 1) and other
    # subcommands before a call leave its output as a fresh process gives it
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["deriv", "--op", "nope", "--alpha", "0.5", "--f", "t", "--a", "0", "--b", "1",
         "--n", "16"],
        DERIV_EXAMPLE[:-2] + ["--n", "32", "--estimate-error"],
        SOLVE_EXAMPLE,
        ["solve", "--alpha", "0.5", "--rhs", "-u", "--u0", "1", "--a", "0", "--b", "1",
         "--n", "8"],
        ["integral", "--alpha", "0.5", "--exponent-at", "tau", "--f", "exp(t)", "--a", "0",
         "--b", "1", "--n", "32", "--format", "json"],
        DERIV_EXAMPLE[:-2] + ["--n", "32", "--estimate-error"],
    ]
    codes = []
    for argv in calls:
        try:
            codes.append(run(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "fracvar", *argv],
                               capture_output=True, text=True, timeout=120)
        assert (codes[-1], got.out, got.err) == (fresh.returncode, fresh.stdout,
                                                  fresh.stderr), argv
    assert codes == [1, 0, 0, 1, 0, 0]


def test_config_file_preloads_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("op = caputo_ns\nalpha = 0.5\nf = t\na = 0\nb = 1\nn = 64\n"
                   "# comment line\nestimate-error = true\n")
    for config in (["--config", str(cfg)], [f"--config={cfg}"]):
        out = tmp_path / "d.csv"
        assert run(["deriv", *config, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["t", "value", "estimate_error"]
        assert len(rows) == 65

    # flags match exactly: a prefix of --config is no flag, and its file is
    # not read
    flags = tmp_path / "flags.cfg"
    flags.write_text("estimate-error = true\n")
    with pytest.raises(SystemExit) as exc:
        run(["deriv", "--op", "caputo_ns", "--alpha", "0.5", "--f", "t", "--a", "0",
             "--b", "1", "--n", "16", "--conf", str(flags)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --conf" in capsys.readouterr().err

    # explicit flags beat the file
    out2 = tmp_path / "d2.csv"
    assert run(["deriv", "--config", str(cfg), "--n", "128",
                "--out", str(out2)]) == 0
    assert len(read_rows(out2)[1]) == 129


def test_config_file_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert run(["deriv", "--config", str(cfg)]) == 1


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fracvar", "deriv",
                           "--op", "caputo_ns", "--alpha", "0.5", "--f", "t",
                           "--a", "0", "--b", "1", "--n", "64"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,value")


def test_verify_text_prints_each_note(monkeypatch, capsys):
    from fracvar.analysis import SuiteReport

    def fake_run(name, seed=0):
        return [SuiteReport(suite_name=name, cases_run=2, failures=[],
                            notes=["first", "second"])]

    monkeypatch.setattr(cli, "default_suite_run", fake_run)
    assert run(["verify", "--suite", "max_point"]) == 0
    assert capsys.readouterr().out == ("PASS      max_point: 2 cases, 0 failures\n"
                                       "          note: first\n"
                                       "          note: second\n")


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_verify_json_writes_non_finite_failure_values_as_null(monkeypatch, tmp_path, capsys):
    # D_rl infinite on the first corpus function: the "ratio finite" failure
    # has observed = bound = inf and margin = inf - inf = nan
    from fracvar import analysis

    real = analysis.rl_deriv_ns

    def infinite(spec, f):
        result = real(spec, f)
        result.values.values[0].fill(np.inf)
        return result

    monkeypatch.setattr(analysis, "rl_deriv_ns", infinite)
    assert run(["verify", "--suite", "lipschitz", "--format", "json"]) == 3
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "lipschitz", "--out", str(out)]) == 3
    assert "ratio finite: observed inf vs bound inf\n" in capsys.readouterr().out
    for text in (printed, out.read_text()):
        [suite] = json.loads(text, parse_constant=_reject_constant)["suites"]
        assert suite["failures"] == [{"case": "ratio finite", "observed": None,
                                      "bound": None, "margin": None}]
