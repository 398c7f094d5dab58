import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from psifrac import cli
from psifrac import fracops as fo
from psifrac import selftest as st
from psifrac import symmetry as sy
from psifrac.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_PIPE,
    MAX_NODES,
    main,
)
from psifrac.errors import DomainError
from psifrac.parser import MAX_DEPTH
from psifrac.psi import builtin


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# -- eval ------------------------------------------------------------------------


def test_eval_derivative_of_constant(capsys):
    code, out = run(capsys, "eval", "derivative", "--f", "1", "--t", "1",
                    "--alpha", "0.5", "--format", "csv")
    assert code == EXIT_PASS
    row = out.splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(1 / math.gamma(0.5), rel=1e-9)


def test_eval_integral_order_one(capsys):
    code, out = run(capsys, "eval", "integral", "--f", "1", "--t", "2",
                    "--alpha", "1", "--format", "csv")
    assert code == EXIT_PASS
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(2.0)


def test_eval_integer_dispatch(capsys):
    code, out = run(capsys, "eval", "derivative", "--f", "t^2", "--t", "1",
                    "--alpha", "1", "--format", "csv")
    assert code == EXIT_PASS
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(2.0)


def test_eval_accepts_max_terms(capsys):
    code, _ = run(capsys, "eval", "derivative", "--f", "t^2", "--t", "1",
                  "--terms", "40")
    assert code == EXIT_PASS


@pytest.mark.parametrize("argv", [
    # an integer order differentiates alpha times: 40 jets
    ["eval", "derivative", "--f", "t^2", "--t", "1", "--alpha", "40"],
    # no derivative of order alpha, so no jets from alpha
    ["eval", "integral", "--f", "t^2", "--t", "1", "--alpha", "45.5"],
    ["verify", "gfbe", "--case", "g=u", "--table", "X2", "--alpha", "45.5"],
    # prolong takes no psi-jets by order: its tables have --terms jets, and
    # omega is in closed form
    ["prolong", "--xi", "x", "--tau", "4*t+1", "--eta", "0-u", "--u", "x*psi+1",
     "--x", "0.5", "--t", "1", "--alpha", "38.5"],
    ["prolong", "--xi", "x", "--tau", "4*t+1", "--eta", "0-u", "--u", "x*psi+1",
     "--x", "0.5", "--t", "1", "--alpha", "45.5"],
])
def test_large_orders_within_the_jet_cap_run(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == EXIT_PASS


def test_eval_rejects_bad_spec(capsys):
    code, _ = run(capsys, "eval", "derivative", "--f", "sin(t)", "--t", "1")
    assert code == EXIT_CONFIG


def test_eval_rejects_t_outside_interval(capsys):
    code, _ = run(capsys, "eval", "derivative", "--f", "t", "--t", "99")
    assert code == EXIT_CONFIG


def test_eval_numerical_failure_exit_code(capsys):
    # t is the pole of f: the arithmetic fault is one line and exit 3
    code = main(["eval", "derivative", "--f", "1/(t-1)", "--t", "1.0"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert len(err.strip().splitlines()) == 1


def test_eval_non_finite_result_is_numerical_error(capsys):
    # 1/0 parses to complex infinity, which evaluates to nan
    code = main(["eval", "integral", "--f", "1/0", "--t", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERIC
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("t, alpha", [("2.0", 0.5), ("1e-7", 1.5), ("1.0", 5.5)],
                         ids=("t=b", "t=a+1e-7", "alpha=5.5"))
def test_eval_derivative_exact_at_edges(capsys, t, alpha):
    code, out = run(capsys, "eval", "derivative", "--f", "t^2", "--t", t,
                    "--alpha", str(alpha), "--format", "csv")
    assert code == EXIT_PASS
    row = [float(v) for v in out.splitlines()[1].split(",")]
    want = 2 / math.gamma(3 - alpha) * float(t) ** (2 - alpha)
    assert row[1] == pytest.approx(want, rel=1e-10)
    assert row[2] == pytest.approx(want, rel=1e-10)


def test_eval_backend_gap_above_tol_fails(capsys):
    # 1/t is not integrable at a = 0: the backends disagree, and eval says so
    code, out = run(capsys, "eval", "integral", "--f", "1/t", "--t", "1",
                    "--a", "0", "--format", "csv")
    assert code == EXIT_FAIL
    assert float(out.splitlines()[1].split(",")[3]) > 1.0


@pytest.mark.parametrize("op, nu", [("integral", 1.5), ("derivative", -1.5)])
def test_power_kernel_singular_at_the_default_a_runs(capsys, op, nu):
    # psi = t^1.5 from a = 0: psi'' is infinite at a, and the quadrature
    # reads psi only at its nodes, inside (a, t).  f = t is w^(2/3), not
    # smooth at a, so the series misses the exact value and eval exits 1
    code, out = run(capsys, "eval", op, "--f", "t", "--t", "1", "--psi", "power",
                    "--psi-rho", "1.5", "--alpha", "1.5", "--format", "csv")
    assert code == EXIT_FAIL
    want = math.gamma(5 / 3) / math.gamma(5 / 3 + nu)
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(want, rel=1e-6)


def test_eval_gate_is_relative_to_the_value(capsys):
    # D^35.5 of t^2 + e^t is about -5.4e38: backends that agree to 3e-15 of
    # it differ by about 1.6e24 in absolute terms, and eval passes
    code, out = run(capsys, "eval", "derivative", "--f", "t^2+exp(t)", "--t", "1",
                    "--alpha", "35.5", "--format", "csv")
    assert code == EXIT_PASS
    _, quad, _, gap = (float(v) for v in out.splitlines()[1].split(","))
    assert gap > 1e20
    assert gap <= 1e-8 * (1 + abs(quad))


@pytest.mark.parametrize("argv", [
    ["eval", "integral", "--f", "t", "--t", "1", "--alpha", "inf"],
    ["eval", "integral", "--f", "t", "--t", "1", "--alpha", "nan"],
    ["eval", "integral", "--f", "t", "--t", "1", "--alpha", "-0.5"],
    ["eval", "integral", "--f", "t", "--t", "1", "--terms", "-1"],
    ["eval", "integral", "--f", "t", "--t", "1", "--tol", "nan"],
    ["eval", "integral", "--f", "t", "--t", "1", "--tol=-1e-8"],
    # alpha - 1 rounds to -1, the pole of the quadrature rule's first moment
    ["eval", "integral", "--alpha", "5e-324", "--f", "t^2", "--t", "1"],
    ["solve", "--case", "g=u", "--alpha", "nan"],
    ["leibniz", "--f", "t", "--g", "t", "--t", "1", "--N", ","],
    ["leibniz", "--f", "t", "--g", "t", "--t", "1", "--N", "2,-1"],
    ["verify", "gfbe", "--case", "g=u", "--table", "X2", "--alpha", "nan"],
    # term counts above MAX_TERMS
    ["eval", "derivative", "--f", "t^2", "--t", "1", "--terms", "41"],
    ["prolong", "--xi", "x", "--tau", "4*t", "--eta", "0-u", "--u", "x*psi",
     "--x", "0.5", "--t", "1", "--terms", "41"],
    ["leibniz", "--f", "t", "--g", "t", "--t", "1", "--N", "1,41"],
    # orders whose derivatives need more than MAX_TERMS psi-jets
    ["eval", "derivative", "--f", "t^2", "--t", "1", "--alpha", "2000"],
    ["eval", "derivative", "--f", "t^2", "--t", "1", "--alpha", "1e300"],
    ["eval", "derivative", "--f", "t^2", "--t", "1", "--alpha", "45.5"],
    ["eval", "derivative", "--f", "t^2", "--t", "1", "--alpha", "40.5"],
    ["leibniz", "--f", "t", "--g", "t", "--t", "1", "--N", "1", "--alpha", "40.5"],
    # prolong runs no quadrature, so it takes no node count
    ["prolong", "--xi", "x", "--tau", "4*t+1", "--eta", "0-u", "--u", "x*psi+1",
     "--x", "0.5", "--t", "1", "--nodes", "64"],
    # a node count past cli.MAX_NODES would allocate without bound
    ["eval", "integral", "--f", "t", "--t", "1", "--nodes", "1000000000000"],
    ["eval", "derivative", "--f", "t", "--t", "1", "--nodes", "20001"],
    ["eval", "integral", "--f", "t", "--t", "1", "--nodes", "3"],
    # non-finite case parameters
    ["solve", "--case", "g=e^(b u)", "--bpar", "inf"],
    ["solve", "--case", "g=u^p", "--p", "inf"],
    ["solve", "--case", "g=u^p", "--p=-inf"],
    ["verify", "gfbe", "--case", "g=u^p", "--table", "X2", "--p", "nan"],
    ["verify", "zhang", "--case", "g=e^(b u)", "--table", "X2", "--bpar", "nan"],
    ["solve", "--case", "K=power-law", "--c1", "nan"],
    ["verify", "diffusion", "--case", "K=power-law", "--table", "X2", "--c1", "inf"],
    # a non-finite power-kernel exponent
    ["eval", "derivative", "--f", "t", "--t", "1.5", "--psi", "power", "--a", "1",
     "--b", "2", "--psi-rho", "nan"],
    ["eval", "derivative", "--f", "t", "--t", "1.5", "--psi", "power", "--a", "1",
     "--b", "2", "--psi-rho", "inf"],
    # a non-finite base point, prolong point or tau coefficient
    ["eval", "integral", "--f", "t", "--t", "1", "--a", "-inf"],
    ["eval", "integral", "--f", "t", "--t", "1", "--a", "nan"],
    ["prolong", "--xi", "x", "--tau", "4*t", "--eta", "0-u", "--u", "x*psi",
     "--x", "nan", "--t", "1"],
    ["verify", "gfbe", "--case", "g=u", "--xi", "x", "--c0", "nan"],
    ["verify", "gfbe", "--case", "g=u", "--xi", "x", "--ctau1", "inf"],
    ["verify", "zhang", "--case", "g=u", "--xi", "x", "--ctau2", "-inf"],
])
def test_bad_numeric_flags_are_config_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_an_infinite_right_end_is_accepted(capsys):
    # only the base point a must be finite: b bounds the t list
    assert main(["eval", "integral", "--f", "t", "--t", "1", "--b", "inf"]) == EXIT_PASS
    assert capsys.readouterr().err == ""


def _one_line_config_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1, captured.err
    assert captured.err.startswith("config error: ")
    return captured.err


@pytest.mark.parametrize("argv", [
    ["eval", "integral", "--f", "t", "--t", "1", "--alhpa", "0.5"],
    ["eval", "integral", "--f", "t", "--t", "1", "--alpha", "abc"],
    ["eval", "integral", "--f", "t", "--t", "1", "--nodes", "6.5"],
    ["eval", "integral", "--f", "t", "--t", "1", "--psi", "affine"],
    ["eval", "sum", "--f", "t", "--t", "1"],
    ["eval", "integral", "--f", "t"],
    ["verify", "--case", "g=u", "--table", "X2"],
    ["fit"],
    [],
], ids=("unknown-flag", "bad-float", "bad-int", "bad-kernel", "bad-op", "missing-t",
        "missing-equation", "unknown-command", "no-command"))
def test_parse_errors_are_one_config_error_line(capsys, argv):
    # argparse's own report is a usage block and a SystemExit
    _one_line_config_error(capsys, argv)


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--case", "g=u", "--tol", "1e-6"], "--tol"),
    (["solve", "--case", "g=u", "--a", "1"], "--a"),  # not an abbreviated --alpha
    (["selftest", "--alpha", "3"], "--alpha"),
    (["leibniz", "--f", "t", "--g", "t", "--t", "1", "--terms", "5"], "--terms"),
    (["prolong", "--xi", "x", "--tau", "4*t", "--eta", "0-u", "--u", "x*psi",
      "--x", "0.5", "--t", "1", "--tol", "1e-3"], "--tol"),
    (["verify", "zhang", "--case", "g=u", "--table", "X2", "--psi", "power"], "--psi"),
    (["verify", "gazizov", "--case", "g=u", "--table", "X2", "--nodes", "64"], "--nodes"),
    (["eval", "integral", "--f", "t", "--t", "1", "--psi-rho", "3"], "--psi-rho"),
    (["eval", "integral", "--f", "t", "--t", "1", "--psi", "exponential",
      "--psi-rho", "3"], "--psi-rho"),
])
def test_a_flag_that_would_change_nothing_is_config_error(capsys, argv, flag):
    assert flag in _one_line_config_error(capsys, argv)


@pytest.mark.parametrize("argv, flag, value", [
    (["verify", "diffusion", "--case", "K=power-law", "--xi", "x^2", "--format", "json"],
     "--theta", "-3*x"),
    (["verify", "gfbe", "--case", "g=u", "--xi", "x", "--ctau1", "4"], "--theta", "-1"),
    (["eval", "integral", "--t", "1"], "--f", "-t"),
    (["leibniz", "--g", "t", "--t", "1.5", "--N", "1,2"], "--f", "-psi^2"),
    (["prolong", "--xi", "x", "--tau", "4*t", "--u", "x*psi", "--x", "0.5", "--t", "1"],
     "--eta", "-u"),
    (["solve", "--case", "K=power-law"], "--c1", "-0.5"),
], ids=("theta-spec", "theta-number", "eval", "leibniz", "prolong", "solve"))
def test_a_value_that_starts_with_a_minus_sign_is_the_flag_value(capsys, argv, flag, value):
    # argparse would take -3*x for an unknown option; a number such as -1
    # was a value already
    spaced = main(argv + [flag, value]), capsys.readouterr()
    joined = main(argv + [f"{flag}={value}"]), capsys.readouterr()
    assert spaced == joined
    assert spaced[0] in (EXIT_PASS, EXIT_FAIL) and spaced[1].err == ""
    parsed = getattr(cli._parser().parse_args(argv + [flag, value]), flag[2:])
    assert parsed == (float(value) if flag == "--c1" else value)


@pytest.mark.parametrize("argv, flag", [
    (["verify", "diffusion", "--case", "K=power-law", "--thet", "-1"], "--thet"),
    (["verify", "gfbe", "--case", "g=u", "--bogus", "-3*x"], "--bogus"),
    (["eval", "integral", "--f", "t", "--t", "1", "--alph", "0.5"], "--alph"),
    (["--bogus"], "--bogus"),
], ids=("abbreviated", "unknown", "abbreviated-eval", "unknown-main"))
def test_an_unknown_or_abbreviated_option_is_still_one_config_error_line(capsys, argv, flag):
    assert flag in _one_line_config_error(capsys, argv)


def test_power_exponent_flag_with_the_power_kernel_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("psi = power\na = 1\n")
    code, out = run(capsys, "eval", "integral", "--f", "1", "--t", "1.5",
                    "--config", str(cfg), "--psi-rho", "3", "--format", "csv")
    assert code == EXIT_PASS
    # I^alpha 1 = (psi(t) - psi(a))^alpha / Gamma(alpha + 1), psi = t^3
    want = (1.5**3 - 1) ** 0.5 / math.gamma(1.5)
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(want, rel=1e-12)


# -- formats -----------------------------------------------------------------------


def test_json_report_round_trips_byte_identically(capsys):
    code, out = run(capsys, "eval", "derivative", "--f", "exp(t)",
                    "--t", "0.5,1.0", "--alpha", "0.5", "--format", "json")
    assert code == EXIT_PASS
    line = out.strip()
    again = json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    assert again == line


def test_csv_uses_seventeen_significant_digits(capsys):
    code, out = run(capsys, "eval", "derivative", "--f", "exp(t)", "--t", "1",
                    "--alpha", "0.5", "--format", "csv")
    assert code == EXIT_PASS
    header, row = out.splitlines()
    assert header == "t,quadrature,series,discrepancy"
    val = row.split(",")[1]
    assert float(val) == float(f"{float(val):.17g}")
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 15


# -- config file -------------------------------------------------------------------


def test_config_file_sets_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.0\npsi = identity\nb = 4\nformat = csv\n")
    code, out = run(capsys, "eval", "integral", "--f", "1", "--t", "3",
                    "--config", str(cfg))
    assert code == EXIT_PASS
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(3.0)
    # flag wins over the file value
    code, out = run(capsys, "eval", "integral", "--f", "1", "--t", "3",
                    "--config", str(cfg), "--alpha", "2")
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(4.5)


def test_config_file_node_count_is_bounded_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nodes = 1000000000000\n")
    code = main(["eval", "integral", "--f", "t", "--t", "1", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_eval_accepts_max_nodes(capsys):
    code, _ = run(capsys, "eval", "integral", "--f", "t", "--t", "1",
                  "--nodes", str(MAX_NODES))
    assert code == EXIT_PASS


def test_one_config_file_serves_every_command(tmp_path, capsys):
    # solve reads neither the kernel nor the quadrature settings; the file
    # may hold them all the same, and its values are checked all the same
    cfg = tmp_path / "run.cfg"
    cfg.write_text("psi = power\na = 1\nrho = 3\nnodes = 32\nterms = 10\n"
                   "tol = 1e-6\nformat = json\n")
    code, out = run(capsys, "solve", "--case", "g=u", "--config", str(cfg))
    assert code == EXIT_PASS
    assert json.loads(out)["matches_published"] is True
    cfg.write_text("nodes = 3\n")
    _one_line_config_error(capsys, ["solve", "--case", "g=u", "--config", str(cfg)])


@pytest.mark.parametrize("line", ["psi = affine", "format = xml", "nodes = 6.5"])
def test_config_file_bad_value_is_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    _one_line_config_error(capsys, ["eval", "integral", "--f", "t", "--t", "1",
                                    "--config", str(cfg)])


def test_config_file_unknown_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alhpa = 1.0\n")
    code, _ = run(capsys, "eval", "integral", "--f", "1", "--t", "1",
                  "--config", str(cfg))
    assert code == EXIT_CONFIG


# -- leibniz -----------------------------------------------------------------------


def test_leibniz_trivial_product_passes(capsys):
    code, out = run(capsys, "leibniz", "--f", "1", "--g", "t", "--t", "1",
                    "--tol", "1e-12", "--format", "csv")
    assert code == EXIT_PASS
    errors = [float(r.split(",")[-1]) for r in out.splitlines()[1:]]
    assert max(errors) <= 1e-12


@pytest.mark.parametrize("n_list", ["1,10", "10,1"])
def test_leibniz_exit_code_follows_the_largest_n(capsys, n_list):
    # N = 1 leaves an error above tol, N = 10 is exact: the order given
    # does not matter, and the rows come sorted
    code, out = run(capsys, "leibniz", "--f", "psi^2+1", "--g", "psi^3",
                    "--t", "1.5", "--N", n_list, "--format", "csv")
    assert code == EXIT_PASS
    assert [r.split(",")[1] for r in out.splitlines()[1:]] == ["1", "10"]


def test_leibniz_insufficient_terms_fails(capsys):
    code, _ = run(capsys, "leibniz", "--f", "psi^3", "--g", "psi^2",
                  "--t", "1.5", "--N", "1", "--tol", "1e-10")
    assert code == EXIT_FAIL


# -- prolong -----------------------------------------------------------------------


def test_prolong_zero_generator_all_zero(capsys):
    code, out = run(capsys, "prolong", "--xi", "0", "--tau", "0", "--eta", "0",
                    "--u", "x*psi + psi^2", "--x", "0.5", "--t", "1.0",
                    "--format", "csv")
    assert code == EXIT_PASS
    row = [float(v) for v in out.splitlines()[1].split(",")]
    assert row[1:] == [0.0, 0.0, 0.0, 0.0, 0.0]


def test_prolong_compact_matches_for_linear_eta_identity(capsys):
    code, out = run(capsys, "prolong", "--xi", "x", "--tau", "4*t",
                    "--eta", "0-u", "--u", "x*psi + psi^2", "--x", "0.5",
                    "--t", "1.0", "--alpha", "0.5", "--format", "csv")
    assert code == EXIT_PASS
    assert float(out.splitlines()[1].split(",")[-1]) <= 1e-5


def test_prolong_nonlinear_eta_has_mu(capsys):
    code, out = run(capsys, "prolong", "--xi", "0", "--tau", "0",
                    "--eta", "u^2", "--u", "x*psi + psi^2", "--x", "0.5",
                    "--t", "1.0", "--alpha", "0.5", "--format", "csv")
    assert code == EXIT_PASS
    assert abs(float(out.splitlines()[1].split(",")[2])) > 1e-6


# tau = 1/t has its pole at the lower limit a = 0, where omega reads tau
TAU_POLE_AT_A = ("prolong", "--xi", "x", "--tau", "1/t", "--eta", "0-u",
                 "--u", "x*psi + psi^2", "--x", "0.5", "--t", "1.0")


@pytest.mark.parametrize("alpha", ["1", "2"])
def test_prolong_at_an_integer_order_does_not_read_tau_at_a(capsys, alpha):
    # omega vanishes at every integer order, before tau(a) is taken
    code, out = run(capsys, *TAU_POLE_AT_A, "--alpha", alpha, "--format", "csv")
    assert code == EXIT_PASS
    assert float(out.splitlines()[1].split(",")[3]) == 0.0


def test_prolong_omega_at_a_pole_of_tau_is_one_numerical_error(capsys):
    code = main([*TAU_POLE_AT_A, "--alpha", "0.5"])
    assert code == EXIT_NUMERIC
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("kernel", [
    [], ["--psi", "power", "--psi-rho", "2.7", "--a", "0.43"],
    ["--psi", "exponential", "--a", "0.45"],
], ids=("identity", "power", "exponential"))
def test_prolong_omega_at_a_pole_of_u_is_one_numerical_error(capsys, kernel):
    # u(a) is infinite, and omega reads it where tau(a) != 0; off the
    # identity, psi(t) - psi(a) must read exactly 0 at t = a for that.  At
    # these a numpy's power and exp round apart from Python's float ** and
    # math.exp, which psi(a) takes, so u(a) read by numpy would be finite
    code = main(["prolong", "--xi", "x", "--tau", "t+1", "--eta", "0-u",
                 "--u", "1/psi + x", "--x", "0.5", "--t", "1.0", *kernel])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERIC
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1, captured.err


@pytest.mark.parametrize("kernel", [
    [], ["--psi", "power", "--psi-rho", "2.7"], ["--psi", "exponential"],
], ids=("identity", "power", "exponential"))
def test_prolong_omega_at_a_pole_of_a_power_of_psi_is_one_numerical_error(capsys, kernel):
    # u keeps 1/psi^2 as the power of psi(t) - psi(a) it is: expanded, its
    # denominator would be a sum whose terms need not cancel exactly at a,
    # and omega would print a huge finite u(a)
    code = main(["prolong", "--xi", "x", "--tau", "t+1", "--eta", "0-u",
                 "--u", "1/psi^2 + x", "--x", "0.5", "--t", "1.5", "--a", "0.3", *kernel])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERIC
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1, captured.err


def test_prolong_reads_a_fractional_power_of_zero_at_a(capsys):
    # on t^2.7 from a = 0, u = x t^2.7 + t^5.4 + 1 holds 0^2.7 at t = a
    code, out = run(capsys, "prolong", "--xi", "x", "--tau", "t+1", "--eta", "0-u",
                    "--u", "x*psi + psi^2 + 1", "--x", "0.5", "--t", "1,1.5",
                    "--psi", "power", "--psi-rho", "2.7", "--alpha", "0.7",
                    "--format", "csv")
    assert code == EXIT_PASS
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 2 and all(map(math.isfinite, sum(rows, [])))
    assert all(row[3] == 0.0 for row in rows)  # psi'(0) = 0 on t^2.7


# -- verify / solve -----------------------------------------------------------------


def test_verify_table_row_passes(capsys):
    code, out = run(capsys, "verify", "gfbe", "--case", "g=u", "--table", "X2",
                    "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["passed"] is True


def test_verify_explicit_wrong_candidate_fails(capsys):
    code, out = run(capsys, "verify", "gfbe", "--case", "g=u", "--xi", "x",
                    "--ctau1", "4", "--theta", "1", "--format", "json")
    assert code == EXIT_FAIL
    assert json.loads(out)["passed"] is False


def test_verify_unknown_table_row_is_config_error(capsys):
    code, _ = run(capsys, "verify", "gfbe", "--case", "g=u", "--table", "X99")
    assert code == EXIT_CONFIG


def test_verify_diffusion_table_row(capsys):
    code, out = run(capsys, "verify", "diffusion", "--case", "K=1",
                    "--table", "X3", "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["passed"] is True


def test_verify_prints_a_constant_int_residual_as_a_float(capsys):
    # K (xi'' - 2 theta') = 2 for xi = x^2 compiles to the int 2
    code, out = run(capsys, "verify", "diffusion", "--case", "K=1", "--xi", "x^2",
                    "--format", "json")
    assert code == EXIT_FAIL
    assert ["iii", 2.0, "FAIL"] in json.loads(out)["rows"]
    assert '["iii",2.0,"FAIL"]' in out


def test_verify_classical_methods(capsys):
    for eqn in ("gazizov", "zhang"):
        code, out = run(capsys, "verify", eqn, "--case", "g=u", "--table", "X2",
                        "--format", "json")
        assert code == EXIT_PASS, eqn
        assert json.loads(out)["passed"] is True


def test_verify_gazizov_holds_the_lower_limit_fixed(capsys):
    # tau(0) = c0 = 0.5: gfbe fails the candidate on (v), zhang refuses it,
    # and the expanded system fails it on tau(x, 0, u) = 0
    flags = ["--case", "g=u", "--xi", "x", "--c0", "0.5", "--ctau1", "4", "--theta", "-1",
             "--format", "json"]
    code, out = run(capsys, "verify", "gazizov", *flags)
    assert code == EXIT_FAIL
    doc = json.loads(out)
    assert ["tau(t=0)", 0.5, "FAIL"] in doc["rows"]
    assert all(status == "pass" for name, _, status in doc["rows"] if name != "tau(t=0)")
    assert doc["worst"] == "tau(t=0) @ x=0.2, u=0.5"
    assert run(capsys, "verify", "gfbe", *flags)[0] == EXIT_FAIL
    assert run(capsys, "verify", "zhang", *flags)[0] == EXIT_CONFIG


@pytest.mark.parametrize("argv,worst", [
    (["--case", "g=u", "--xi", "1/x"], "iv @ x=0.2, t=0.2, u=0.5"),
    (["--case", "g=u/(1+u)", "--table", "X2"], "iv @ x=0.2, t=0.2, u=2"),
])
def test_verify_names_the_worst_equation(capsys, argv, worst):
    # (ii) = 50 and (iv) = 237.5 for xi = 1/x; (iv) = 8/9 for the u/(1+u) row
    code, out = run(capsys, "verify", "gfbe", *argv, "--format", "json")
    assert code == EXIT_FAIL
    assert json.loads(out)["worst"] == worst


def test_solve_matches_published_basis(capsys):
    code, out = run(capsys, "solve", "--case", "g=u", "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["matches_published"] is True
    assert len(doc["rows"]) == 2


@pytest.mark.parametrize("alpha", ["0.79", "0.83"])
@pytest.mark.parametrize("case", ["g=u", "g=u^p", "g=e^(b u)", "g=u/(1+u)"])
def test_solve_matches_published_basis_at_two_decimal_orders(capsys, case, alpha):
    code, out = run(capsys, "solve", "--case", case, "--alpha", alpha,
                    "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["matches_published"] is True


def test_verify_nan_residual_is_numerical_error(capsys):
    # K = (3u - 3)^(-4/3) is not real at u < 1 on the grid
    code = main(["verify", "diffusion", "--case", "K=power-law", "--table", "X2",
                 "--c1", "-3"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERIC
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_solve_constant_diffusivity_four_generators(capsys):
    code, out = run(capsys, "solve", "--case", "K=1", "--format", "json")
    assert code == EXIT_PASS
    assert len(json.loads(out)["rows"]) == 4


# K=1's rho du, whose tree tree.power and tree.mul build without the
# factors w**0.0 and 1.0
K1_RHO = {"0.5": "1.7724538509055159 + x**2*w**(-0.5)/2",
          "0.6": "1.6219156458328214*w**0.19999999999999996 + x**2*w**(-0.4)/2",
          "1": "w**1.0 + x**2/2"}


@pytest.mark.parametrize("alpha", sorted(K1_RHO))
def test_solve_prints_the_constant_diffusivity_rho_without_unit_factors(capsys, alpha):
    code, out = run(capsys, "solve", "--case", "K=1", "--alpha", alpha, "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["rows"][-1] == ["rho du", "0", "0", "0", "0", "0", K1_RHO[alpha]]


# (i) of that row's table entry X4 on the identity, power and exponential
# kernels, as they were with the factors w**0.0 and 1.0; (ii)-(v) are 0
X4_RESIDUAL_I = {"0.3": (4.440892098500626e-16, 1.7763568394002505e-15, 4.440892098500626e-16),
                 "0.5": (4.440892098500626e-16, 8.881784197001252e-16, 4.440892098500626e-16),
                 "1": (0.0,) * 3, "1.5": (0.0,) * 3, "2": (0.0,) * 3}


@pytest.mark.parametrize("alpha", sorted(X4_RESIDUAL_I))
def test_constant_diffusivity_rho_keeps_its_residuals(capsys, alpha):
    for kernel, want in zip(("identity", "power", "exponential"), X4_RESIDUAL_I[alpha]):
        code, out = run(capsys, "verify", "diffusion", "--case", "K=1", "--table", "X4",
                        "--alpha", alpha, "--psi", kernel, "--format", "json")
        assert code == EXIT_PASS
        rows = json.loads(out)["rows"]
        assert [repr(r[1]) for r in rows] == [repr(want)] + ["0.0"] * 4, kernel


def test_solve_power_law_theta(capsys):
    code, out = run(capsys, "solve", "--case", "g=u^p", "--p", "2",
                    "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    thetas = [r[5] for r in doc["rows"]]
    assert "-1/2" in thetas


@pytest.mark.parametrize(("p", "theta"), [("0.5", "-2"), ("-1", "1"), ("1", "-1")])
def test_solve_power_law_takes_any_p_that_verify_takes(capsys, p, theta):
    # solve and verify read p by one rule, finite and nonzero: the solved
    # scaling theta = -1/p is the X2 row, which verify passes on two kernels
    code, out = run(capsys, "solve", "--case", "g=u^p", f"--p={p}", "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["matches_published"] is True
    assert [r[5] for r in doc["rows"]] == ["0", theta]
    for psi in ("identity", "power"):
        code, _ = run(capsys, "verify", "gfbe", "--case", "g=u^p", f"--p={p}",
                      "--table", "X2", "--psi", psi)
        assert code == EXIT_PASS, psi


def test_solve_prints_a_parameter_nsimplify_gives(capsys):
    code, out = run(capsys, "solve", "--case", "g=u^p", "--p", "1.4142135623730951",
                    "--format", "json")
    assert code == EXIT_PASS
    assert [r[5] for r in json.loads(out)["rows"]] == ["0", "-sqrt(2)/2"]


@pytest.mark.parametrize("case", ["K=1", "K=power-law"])
@pytest.mark.parametrize("alpha", ["2.5", "40", "86"])
def test_solve_takes_the_diffusion_system_s_orders(capsys, case, alpha):
    # verify diffusion refuses these orders; at 86, Gamma(2 alpha) in K=1's
    # rho overflows and its first coefficient would print as 0
    want = f"config error: diffusion system needs 0 < alpha <= 2, got {float(alpha)}\n"
    for argv in (["solve", "--case", case], ["verify", "diffusion", "--case", case]):
        assert _one_line_config_error(capsys, [*argv, "--alpha", alpha]) == want, argv
    equation = sy.lookup_case(case).equation(float(alpha), builtin("identity", 0.0, 1.0),
                                             **sy.CASE_DEFAULTS)
    with pytest.raises(DomainError, match="needs 0 < alpha <= 2"):
        sy.solve_ansatz(equation, case)


@pytest.mark.parametrize("case", [c for c in sy.CASES if c.params is not None],
                         ids=lambda c: c.name)
def test_solve_every_registered_case_matches_published_basis(capsys, case):
    code, out = run(capsys, "solve", "--case", case.name, "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["matches_published"] is True


@pytest.mark.parametrize("argv", [
    ["solve", "--case", "g=u^3"],
    ["solve", "--case", "arbitrary g"],
    ["verify", "gfbe", "--case", "K=1", "--table", "X1"],
    ["verify", "zhang", "--case", "K=power-law", "--table", "X2"],
    ["verify", "diffusion", "--case", "g=u", "--table", "X2"],
], ids=("unknown", "no-solver", "gfbe-with-K", "zhang-with-K", "diffusion-with-g"))
def test_unknown_or_wrong_family_case_is_config_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "gfbe", "--case", "g=u^p", "--table", "X2", "--p", "0"],
    ["verify", "gfbe", "--case", "g=u^p", "--p", "0"],
    ["verify", "gazizov", "--case", "g=u^p", "--table", "X2", "--p", "0"],
    ["verify", "zhang", "--case", "g=u^p", "--table", "X2", "--p", "0"],
    ["verify", "gfbe", "--case", "g=e^(b u)", "--table", "X2", "--bpar", "0"],
    ["verify", "gazizov", "--case", "g=e^(b u)", "--table", "X2", "--bpar", "0"],
    ["verify", "zhang", "--case", "g=e^(b u)", "--table", "X2", "--bpar", "0"],
    ["solve", "--case", "g=u^p", "--p", "0"],
    ["solve", "--case", "g=e^(b u)", "--bpar", "0"],
    # exactly 0 as the rows read them (nsimplify), though not 0 as a float
    ["verify", "gfbe", "--case", "g=u^p", "--xi", "x", "--ctau1", "4", "--p", "1e-300"],
    ["verify", "gfbe", "--case", "g=u^p", "--table", "X2", "--p", "1e-300"],
    ["verify", "gazizov", "--case", "g=u^p", "--table", "X2", "--p", "1e-300"],
    ["verify", "zhang", "--case", "g=u^p", "--table", "X2", "--p", "1e-300"],
    ["solve", "--case", "g=u^p", "--p", "1e-300"],
    ["verify", "gfbe", "--case", "g=e^(b u)", "--table", "X2", "--bpar", "1e-300"],
    ["verify", "gazizov", "--case", "g=e^(b u)", "--table", "X2", "--bpar", "-1e-300"],
    ["verify", "zhang", "--case", "g=e^(b u)", "--table", "X2", "--bpar", "1e-300"],
    ["solve", "--case", "g=e^(b u)", "--bpar", "1e-300"],
])
def test_degenerate_case_parameter_is_config_error(capsys, argv):
    # p = 0 in u^p and b = 0 in e^(b u) make g(u) constant, and their
    # table rows would divide by zero
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_solve_offers_only_the_cases_it_has_an_ansatz_for(capsys):
    err = _one_line_config_error(capsys, ["solve", "--case", "arbitrary g"])
    assert "no ansatz" in err
    # --help still prints the usage and exits 0
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: psifrac solve")
    assert "'g=u'" in out and "arbitrary g" not in out


def test_unused_zero_parameter_is_accepted(capsys):
    code, _ = run(capsys, "verify", "gfbe", "--case", "g=u", "--table", "X2",
                  "--p", "0", "--bpar", "0")
    assert code == EXIT_PASS


# -- nesting -----------------------------------------------------------------------


def nested_spec(form, depth):
    """A function spec that nests depth levels of one form; test_cli_fuzz draws these too."""
    return {"paren": "(" * depth + "t" + ")" * depth,
            "minus": "-" * depth + "t",
            "exp": "exp(0-" * depth + "t" + ")" * depth}[form]


def _nested(form, depth):
    """An eval command whose spec nests depth levels of one form."""
    op = "derivative" if form == "exp" else "integral"
    return ["eval", op, f"--f={nested_spec(form, depth)}", "--t", "1.0"]


@pytest.mark.parametrize("form", ["paren", "minus", "exp"])
def test_nesting_past_the_bound_is_one_line_config_error(capsys, form):
    code = main(_nested(form, MAX_DEPTH + 1))
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("form", ["paren", "minus", "exp"])
def test_nesting_at_the_bound_runs(capsys, form):
    code = main(_nested(form, MAX_DEPTH))
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_NUMERIC), capsys.readouterr().err


def test_nested_exp_at_the_bound_takes_no_symbolic_jets(capsys):
    # order 1.5 takes the psi-jets to order 2, of a parsed spec by forward
    # mode: the nested exp's symbolic jets grew with the depth at each order
    misses = fo._psi_jet_expr.cache_info().misses
    code = main([*_nested("exp", MAX_DEPTH), "--alpha", "1.5", "--format", "json"])
    ((t, quad, series, gap),) = json.loads(capsys.readouterr().out)["rows"]
    assert code == EXIT_PASS
    assert gap == abs(quad - series) <= 1e-8 * (1 + abs(quad))
    assert fo._psi_jet_expr.cache_info().misses == misses


# -- output streams -----------------------------------------------------------------


def test_selftest_writes_to_the_current_stdout(monkeypatch):
    monkeypatch.setattr(st, "CRITERIA", st.CRITERIA[:1])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["selftest"])
    lines = buf.getvalue().splitlines()
    assert [line[:4] for line in lines] == ["[ 1]", "[10]"]


# -- closed output ------------------------------------------------------------------


def test_closed_pipe_ends_quietly_with_its_own_exit_code():
    # as `psifrac selftest | head -1`: the reader closes after one line, and
    # selftest, unbuffered, writes its next line into the closed pipe
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-u", "-m", "psifrac.cli", "selftest"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    code = proc.wait(timeout=120)
    assert first.startswith(b"[ 1]")
    assert code == EXIT_PIPE
    assert EXIT_PIPE not in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
    assert err == b""


# -- README ---------------------------------------------------------------------------


def _readme_commands():
    """(argv, exit code) of each psifrac command in the README's CLI block;
    the exit code is 0 unless the line's comment names another."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        if line.startswith("psifrac "):
            exit_named = re.search(r"#.*\bexit (\d+)", line)
            yield (shlex.split(line, comments=True)[1:],
                   int(exit_named.group(1)) if exit_named else EXIT_PASS)


README_COMMANDS = list(_readme_commands())


def test_readme_has_a_command_for_each_cli_command():
    assert {argv[0] for argv, _ in README_COMMANDS} == {
        "eval", "leibniz", "prolong", "verify", "solve", "selftest"}


def test_readme_python_blocks_run_as_documented(capsys):
    # the library quick start, whose two backends agree within criterion
    # 2's bound, and the symmetry verification, whose report prints as its
    # comment shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start, verification = re.findall(r"```python\n(.*?)```", readme, re.S)
    ns = {}
    exec(quick_start, ns)
    quadrature = ns["frac_derivative"](ns["f"], ns["psi"], 0.5, 1.0)
    series = ns["frac_derivative_series"](ns["f"], ns["psi"], 0.5, 1.0)
    assert abs(quadrature - series.value) <= 1e-5 * (1 + abs(quadrature))
    exec(verification, {})
    shown = re.search(r"print\(report\) +# (.*?)\.\.\.$", verification, re.M).group(1)
    assert capsys.readouterr().out.startswith(shown)


# stdout of the README's eval and leibniz commands, and of the benchmark's
# accuracy panel, as the symbolic psi-jets printed them: on psi = t with
# a = 0 the forward-mode jets are the same floats
PINNED = {
    'eval derivative --f "exp(t)" --t 0.5,1.0 --alpha 0.5': (
        "t                  quadrature         series             discrepancy      \n"
        " 5.0000000000e-01   1.9234492478e+00   1.9234492478e+00   4.4408920985e-16\n"
        " 1.0000000000e+00   2.8548878359e+00   2.8548878359e+00   1.7763568394e-15\n"),
    'leibniz --f "psi^2+1" --g "psi^3" --t 1.5 --N 1,2,3,5,8,10': (
        "t                  N   leibniz            direct             error            \n"
        " 1.5000000000e+00  1    1.9367414893e+01   1.9189732188e+01   1.7768270544e-01\n"
        + "".join(f" 1.5000000000e+00  {n:<3d}  1.9189732188e+01   1.9189732188e+01   "
                  "1.0658141036e-14\n" for n in (2, 3, 5, 8, 10))),
    'eval derivative --f "1 + psi^2" --psi identity --a 0 --b 2 --alpha 1.5'
    " --t 0.4,0.8,1.2,1.6 --format json": (
        '{"columns":["t","quadrature","series","discrepancy"],"command":"eval derivative",'
        '"rows":[[0.4,0.31222172032673456,0.3122217203267351,5.551115123125783e-16],'
        '[0.8,1.624266561050478,1.624266561050478,0.0],'
        '[1.2,2.257558114046642,2.257558114046641,8.881784197001252e-16],'
        '[1.6,2.7152138892699984,2.715213889269999,4.440892098500626e-16]]}\n'),
    # numbers the forward-mode jets once folded as they were written, now
    # passed at run time: a cancellation, a product, 0 and 1, a constant
    'eval derivative --f "t*0.5-0.5*t" --psi power --t 0.5,1.0 --alpha 1.5 --format csv': (
        "t,quadrature,series,discrepancy\n0.5,0,0,0\n1,0,0,0\n"),
    'eval derivative --f "2*0.5*psi + 0.1+0.2-0.3" --psi exponential --t 0.5,1.0 --alpha 1.5'
    " --format csv": (
        "t,quadrature,series,discrepancy\n"
        "0.5,0.70048041083621715,0.70048041083621682,3.3306690738754696e-16\n"
        "1,0.43040555215423593,0.43040555215423576,1.6653345369377348e-16\n"),
    'eval derivative --f "0*exp(t) + 1*psi" --psi exponential --t 0.5,1.0 --alpha 1.5'
    " --format csv": (
        "t,quadrature,series,discrepancy\n"
        "0.5,0.70048041083621715,0.70048041083621682,3.3306690738754696e-16\n"
        "1,0.43040555215423593,0.43040555215423582,1.1102230246251565e-16\n"),
    'eval derivative --f "3.25" --psi power --a 0.5 --t 1.0 --alpha 0.5 --format csv': (
        "t,quadrature,series,discrepancy\n"
        "1,2.1172775515793201,2.1172775515793196,4.4408920985006262e-16\n"),
    # exits 1: the series converges slowly here
    'eval integral --f "(1 + 0.5*psi)*exp(0.25*t)" --psi power --a 0.5 --t 1.0,1.5 --alpha 0.7'
    " --format csv": (
        "t,quadrature,series,discrepancy\n"
        "1,1.3530793534628287,1.3530794862324771,1.3276964838659921e-07\n"
        "1.5,3.8538845628742631,3.8539069497148777,2.2386840614618819e-05\n"),
}
PINNED_EXIT = {command: EXIT_FAIL for command in PINNED if command.startswith("eval integral")}


def test_the_readme_eval_and_leibniz_commands_are_pinned():
    readme = [argv for argv, _ in README_COMMANDS if argv[0] in ("eval", "leibniz")]
    assert readme == [shlex.split(c) for c in list(PINNED)[:2]]


@pytest.mark.parametrize("command", list(PINNED))
def test_pinned_stdout_is_unchanged(capsys, command):
    assert main(shlex.split(command)) == PINNED_EXIT.get(command, EXIT_PASS)
    assert capsys.readouterr().out == PINNED[command]


@pytest.mark.parametrize("command, err", [
    ('eval derivative --f "exp(800)" --t 1.0', "OverflowError: math range error"),
    ('eval derivative --f "exp(700)*t" --psi power --t 1.0 --alpha 1.5',
     "eval derivative: non-finite result -inf"),
    # c1 = 2/alpha overflows; so does Gamma(alpha) in K=1's rho
    ("verify gfbe --case g=u --table X2 --alpha 5e-309", "verify gfbe: non-finite result inf"),
    ("solve --case g=u --alpha 5e-309", "solve g=u: non-finite number in 'scaling'"),
    ("solve --case K=1 --alpha 1e-310", "solve K=1: non-finite number in 'scaling'"),
])
def test_pinned_overflow_is_one_numerical_error_line(capsys, command, err):
    assert main(shlex.split(command)) == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numerical error: {err}\n"


# selftest runs in tests/test_acceptance.py, criterion by criterion
@pytest.mark.parametrize("argv, code", [c for c in README_COMMANDS if c[0] != ["selftest"]],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_readme_command_runs_as_documented(capsys, argv, code):
    assert main(argv) == code, capsys.readouterr().err
