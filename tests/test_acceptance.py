"""Acceptance criteria, one test per numbered criterion.

Each test prints the same one-line pass/fail summary that
``psifrac selftest`` emits, then asserts the criterion.  Criteria are
computed once per session, by the generator the selftest itself runs;
the final criterion aggregates the other nine plus the wall-time budget.
"""

import pytest

from psifrac.selftest import criterion_results


@pytest.fixture(scope="session")
def results():
    return {res.index: res for res in criterion_results()}


def _check(results, index):
    res = results[index]
    print(res.line())
    assert res.passed, res.line()


def test_criterion_01_power_rule(results):
    _check(results, 1)


def test_criterion_02_backend_agreement(results):
    _check(results, 2)


def test_criterion_03_leibniz_convergence(results):
    _check(results, 3)


def test_criterion_04_classical_reduction(results):
    _check(results, 4)


def test_criterion_05_mu_law(results):
    _check(results, 5)


def test_criterion_06_omega_law(results):
    _check(results, 6)


def test_criterion_07_burgers_table(results):
    # Expected to fail honestly: two published table rows carry constant
    # u-shifts that a Riemann-Liouville style operator does not annihilate
    # (see the per-row tests in test_symmetry.py for the exact residuals).
    _check(results, 7)


def test_criterion_08_diffusion_tables(results):
    _check(results, 8)


def test_criterion_09_method_agreement(results):
    _check(results, 9)


def test_criterion_10_selftest_green_under_budget(results):
    # Aggregates criteria 1-9; red while criterion 7 is red.
    _check(results, 10)


def test_a_nan_never_passes_a_criterion(monkeypatch):
    from psifrac import fracops
    from psifrac.selftest import _c01

    calls = []
    real = fracops.frac_derivative

    def nan_at_one_point(*args, **kw):
        calls.append(1)
        return float("nan") if len(calls) == 7 else real(*args, **kw)

    monkeypatch.setattr(fracops, "frac_derivative", nan_at_one_point)
    passed, detail = _c01()
    assert len(calls) > 7
    assert not passed, detail


def test_a_nan_omega_never_passes_criterion_6(monkeypatch):
    from psifrac import prolong
    from psifrac.selftest import _c06

    calls = []
    real = prolong.omega_term

    def nan_at_t_08(*args, **kw):
        calls.append(1)
        # the first call is the tau(a) = 0 check, then t = 0.4, 0.8, ...
        return float("nan") if len(calls) == 3 else real(*args, **kw)

    monkeypatch.setattr(prolong, "omega_term", nan_at_t_08)
    passed, detail = _c06()
    assert len(calls) == 5
    assert not passed, detail
