import json
import math

import pytest

from psifrac.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_NUMERIC,
    EXIT_PASS,
    main,
)


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


def test_verify_classical_methods(capsys):
    for eqn in ("gazizov", "zhang"):
        code, out = run(capsys, "verify", eqn, "--case", "g=u", "--table", "X2",
                        "--format", "json")
        assert code == EXIT_PASS, eqn
        assert json.loads(out)["passed"] is True


def test_solve_matches_published_basis(capsys):
    code, out = run(capsys, "solve", "--case", "g=u", "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["matches_published"] is True
    assert len(doc["rows"]) == 2


def test_solve_constant_diffusivity_four_generators(capsys):
    code, out = run(capsys, "solve", "--case", "K=1", "--format", "json")
    assert code == EXIT_PASS
    assert len(json.loads(out)["rows"]) == 4


def test_solve_power_law_theta(capsys):
    code, out = run(capsys, "solve", "--case", "g=u^p", "--p", "2",
                    "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    thetas = [r[5] for r in doc["rows"]]
    assert "-1/2" in thetas
