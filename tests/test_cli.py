"""Command-line interface: documented invocations, formats, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from fracvar import (
    FdeProblem,
    GridFunction,
    KernelSpec,
    NormalizationFunction,
    OrderFunction,
    caputo_deriv_classical,
    cli,
    expr,
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
    ])
    def test_unsupported_flag_is_config_error(self, argv):
        # verify writes text or JSON only; only verify draws random cases
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1

    def test_integer_exponent_expression_of_t(self, capsys):
        # every exponent is 3, so the negative base is legal at every node
        assert run(["deriv", "--op", "caputo_ns", "--alpha", "0.5",
                    "--f", "(t-2)^(3+0*t)", "--a", "0", "--b", "1", "--n", "16"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 18

    def test_valid_threads_env_accepted(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FRACVAR_THREADS", "2")
        out = tmp_path / "d.csv"
        assert run(DERIV_EXAMPLE + ["--out", str(out)]) == 0


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["deriv", "--op", "rl_ns", "--alpha", "0.4 + 0.1*sin(t)",
            "--f", "exp(t)", "--a", "0", "--b", "1", "--n", "128"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_preloads_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("op = caputo_ns\nalpha = 0.5\nf = t\na = 0\nb = 1\nn = 64\n"
                   "# comment line\nestimate-error = true\n")
    out = tmp_path / "d.csv"
    assert run(["deriv", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "value", "estimate_error"]
    assert len(rows) == 65

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
