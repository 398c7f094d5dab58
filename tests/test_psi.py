import dataclasses
import math

import pytest
import sympy as sp

from psifrac.errors import DomainError
from psifrac.psi import PsiFunction, builtin, invert_numeric, validate


@pytest.mark.parametrize(
    "name,a,b",
    [("identity", 0.0, 2.0), ("power", 0.5, 2.0), ("exponential", 0.0, 1.0)],
)
def test_builtin_validates(name, a, b):
    rep = validate(builtin(name, a, b))
    assert rep.ok


def test_identity_values():
    psi = builtin("identity", 0.0, 2.0)
    assert psi(1.3) == 1.3
    assert psi.deriv(1.3) == 1.0
    assert psi.invert(0.7) == 0.7


def test_power_kernel():
    psi = builtin("power", 0.5, 2.0)
    assert psi(1.5) == pytest.approx(2.25)
    assert psi.deriv(1.5) == pytest.approx(3.0)
    assert psi.deriv(1.5, order=2) == pytest.approx(2.0)
    assert psi.invert(2.25) == pytest.approx(1.5)


def test_exponential_kernel():
    psi = builtin("exponential", 0.0, 1.0)
    assert psi(0.4) == pytest.approx(math.exp(0.4))
    assert psi.invert(math.exp(0.4)) == pytest.approx(0.4)


def test_affine_kernel():
    psi = builtin("affine", 0.0, 1.0, c=2.0, d=3.0)
    assert psi(0.5) == pytest.approx(4.0)
    assert psi.invert(4.0) == pytest.approx(0.5)


def test_bad_interval_rejected():
    with pytest.raises(DomainError):
        builtin("identity", 2.0, 1.0)


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        builtin("logarithm", 0.0, 1.0)


def test_power_singular_at_zero_rejected():
    with pytest.raises(DomainError):
        builtin("power", 0.0, 1.0, rho=0.5)


def test_numeric_inversion_without_analytic_inverse():
    t = sp.Symbol("t", real=True)
    psi = PsiFunction("cubic-ish", 0.0, 2.0, expr=t + t**3)
    v = psi(1.2)
    assert invert_numeric(psi, v) == pytest.approx(1.2, abs=1e-10)


def test_replace_keeps_a_kernel_given_in_sympy():
    t = sp.Symbol("t", real=True)
    psi = PsiFunction("cubic-ish", 0.0, 1.5, expr=t + t**3)
    wider = dataclasses.replace(psi, b=2.0)
    assert (wider.b, wider.expr) == (2.0, t + t**3)
    assert wider.deriv(1.8) == psi.deriv(1.8) == 1 + 3 * 1.8**2
    # a tree is still checked against the built-in shapes
    with pytest.raises(DomainError):
        dataclasses.replace(builtin("exponential", 0.0, 1.0), source=("exp", ("exp", ("sym", "t"))))


def test_decreasing_kernel_fails_validation():
    t = sp.Symbol("t", real=True)
    rep = validate(PsiFunction("bad", 0.0, 2.0, expr=-t))
    assert not rep.ok
