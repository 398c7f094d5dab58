"""The Taylor-mode psi-jets: values against the definition, exact ends on
power sums, run-time inputs, and the nodes the engine refuses."""

import math

import numpy as np
import pytest
import sympy as sp

from psifrac import fracops as fo
from psifrac.cli import _as_f_of_t
from psifrac.errors import DomainError, NumericsError
from psifrac.jets import T, U, W, X, JetFunction
from psifrac.psi import PsiFunction, builtin
from psifrac.taylor import program
from psifrac.tree import from_sympy

KERNELS = {
    "identity": builtin("identity", 0.0, 2.0),
    "power": builtin("power", 1.0, 1.5),
    "exponential": builtin("exponential", 0.0, 0.9),
    "affine": builtin("affine", 0.0, 2.0, c=2.5, d=1.0),
}
# t = psi^{-1}(psi(a) + w)
INVERSES = {
    "identity": lambda psi: W + psi.a,
    "power": lambda psi: (W + sp.Float(psi.a) ** 2) ** sp.Rational(1, 2),
    "exponential": lambda psi: sp.log(W + sp.exp(sp.Float(psi.a))),
    "affine": lambda psi: (W + sp.Float(2.5 * psi.a)) / sp.Float(2.5),
}
# every production of the spec grammar, for f of t
SHAPES = ["3.25", "t", "psi", "t^2 + 0.5*t", "(1 + psi)*exp(t)", "-exp(2*t)/t",
          "exp(exp(t))", "psi^3 - 2*psi + 1", "1/(t-1)", "psi^-1", "w^(5/2)"]


def _f(spec, psi):
    if spec == "w^(5/2)":
        wa = sp.expand(psi.expr - psi.expr.subs(T, psi.a))
        return JetFunction.of_t(wa ** sp.Rational(5, 2))
    return _as_f_of_t(spec, psi)


@pytest.mark.parametrize("spec", SHAPES)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_jets_are_the_derivatives_in_psi(kernel, spec):
    # f^{[m]}_psi(t) = d^m/dw^m f(psi^{-1}(psi(a) + w)) at w = psi(t) - psi(a),
    # differentiated by sympy and evaluated to 30 digits
    psi = KERNELS[kernel]
    t = psi.a + 0.77 * (psi.b - psi.a)
    if spec == "1/(t-1)" and abs(t - 1.0) < 0.2:
        t = psi.a + 0.3 * (psi.b - psi.a)
    f = _f(spec, psi)
    g = f.expr.subs(T, INVERSES[kernel](psi))
    w = sp.Float(psi(t) - psi(psi.a), 30)
    got = fo.psi_jets(f, psi, t, 6)
    assert len(got) == 7
    for m in range(7):
        want = float(sp.diff(g, W, m).evalf(30, subs={W: w}))
        assert abs(got[m] - want) <= 1e-12 * (1 + abs(want)), (m, got[m], want)


def test_jets_on_a_kernel_given_by_its_expression():
    # no closed-form inverse: t itself comes from the psi-jets of t
    psi = PsiFunction("cubic", 0.1, 2.0, expr=T + T**3)
    f = JetFunction.of_t(T**2 + 1 / (T + 2))
    want = f.expr
    for m, got in enumerate(fo.psi_jets(f, psi, 1.3, 5)):
        # exact rational arithmetic at t = 13/10
        ref = float(want.subs(T, sp.Rational(13, 10)))
        assert abs(got - ref) <= 1e-12 * (1 + abs(ref)), m
        want = sp.diff(want, T) / (1 + 3 * T**2)


def test_psi_polynomial_on_a_kernel_given_by_its_expression_ends_at_its_degree(
        monkeypatch):
    # psi's own subtree is psi(t0) + w, of degree 1, as on the built-in
    # kernels: psi^2 + psi has degree 2 and exact zeros past it, and the
    # Leibniz sum takes no fractional operator for those terms
    psi = PsiFunction("cubic", 0.1, 2.0, expr=T + T**3)
    f = _as_f_of_t("psi^2 + psi", psi)
    assert program(f.tree, psi.tree).degree == 2
    w = psi(1.3) - psi(psi.a)
    jets = fo.psi_jets(f, psi, 1.3, 8)
    assert jets[:3] == pytest.approx([w**2 + w, 2 * w + 1, 2.0], rel=1e-12)
    assert jets[3:] == [0.0] * 6
    orders = []
    frac_op = fo.frac_op
    monkeypatch.setattr(fo, "frac_op", lambda g, psi, order, *rest:
                        orders.append(order) or frac_op(g, psi, order, *rest))
    fo.leibniz_product(f, JetFunction.of_t(T + 1), psi, 0.5, 1.3, 10)
    assert orders == [0.5, -0.5, -1.5]


@pytest.mark.parametrize("kernel", ["identity", "power", "exponential"])
def test_power_sum_table_ends_at_its_degree(kernel):
    psi = KERNELS[kernel]
    for spec, degree, top in (("1.5 + 2*psi^2 - 0.25*psi^4", 4, -0.25 * 24),
                              ("(1 + psi)^3", 3, 6.0), ("7", 0, 7.0)):
        for t in (psi.a + 0.2 * (psi.b - psi.a), psi.b):
            jets = fo.psi_jets(_as_f_of_t(spec, psi), psi, t, 30)
            assert jets[degree] == pytest.approx(top, rel=1e-12)
            assert jets[degree + 1:] == [0.0] * (30 - degree), (spec, t)


def test_tables_are_shared_by_both_series_at_a_point():
    psi = KERNELS["power"]
    f = JetFunction.of_t(sp.exp(T) * T + sp.Rational(3, 11))
    misses = fo._jet_table.cache_info().misses
    fo.frac_integral_series(f, psi, 0.4, 1.2, 30)
    fo.frac_derivative_series(f, psi, 1.4, 1.2, 30)
    assert fo._jet_table.cache_info().misses == misses + 1


@pytest.mark.parametrize("expr", [sp.gamma(T), sp.tan(T), T**T, sp.Abs(T)])
def test_unsupported_nodes_are_domain_errors(expr):
    f = JetFunction.of_t(expr + 1)
    with pytest.raises(DomainError):
        fo.psi_jets(f, KERNELS["identity"], 1.0, 4)
    with pytest.raises(DomainError):
        fo.frac_derivative_series(f, KERNELS["identity"], 0.5, 1.0)


def test_other_symbols_are_domain_errors():
    with pytest.raises(DomainError, match="x"):
        fo.psi_jets(JetFunction.of_t(sp.Symbol("x") * T), KERNELS["identity"], 1.0, 2)


def test_a_pole_at_the_point_is_a_numerical_error():
    for spec in ("1/(t-1)", "(t-1)^-2"):
        with pytest.raises(NumericsError):
            fo.psi_jets(_as_f_of_t(spec, KERNELS["identity"]), KERNELS["identity"], 1.0, 3)


@pytest.mark.parametrize("p", (2.7, 0.5))
def test_a_positive_power_of_zero_is_zero_as_a_value_only(p):
    # the value 0^p = 0 exists, but w^p has no Taylor series at w = 0
    for expr in (T**p, (T**2 + T) ** p):
        prog = program(from_sympy(expr), from_sympy(T))
        assert prog.series(0.0, 1).tolist() == [0.0]
        with pytest.raises(NumericsError):
            prog.series(0.0, 2)
    with pytest.raises(NumericsError):
        program(from_sympy(T**-p), from_sympy(T)).series(0.0, 1)


def test_psi_deriv_m_reads_the_jets_of_psi_jets():
    psi = KERNELS["exponential"]
    f = JetFunction.of_t(sp.exp(T) ** 2 + T)
    deep = fo.psi_jets(f, psi, 0.5, 12)
    assert [fo.psi_deriv_m(f, psi, 0.5, m) for m in range(13)] == deep
    assert math.isfinite(deep[-1]) and deep[-1] != 0.0


RUN_TIME_SHAPES = {
    "polynomial": X * T**2 + U,
    "rational": X**2 * U * sp.exp(T) - 3 * U**2 / (1 + T),
    "elementary": sp.exp(X * T) + sp.sin(U * T) * sp.cos(X),
    "input-exponent": T**X + (X + T) ** U,
    "log": sp.log(X + U + T) * X / U,
    "free-of-t": X * U + 2,
}


@pytest.mark.parametrize("kernel", ["identity", "power", "exponential", "affine"])
@pytest.mark.parametrize("shape", sorted(RUN_TIME_SHAPES))
def test_run_time_inputs_match_the_numbers_put_in(kernel, shape):
    # one program serves every (x, u); its jets are those of the expression
    # with the numbers put in, up to rounding
    psi, expr = KERNELS[kernel], RUN_TIME_SHAPES[shape]
    t = psi.a + 0.6 * (psi.b - psi.a)
    prog = program(from_sympy(expr), psi.tree, ("x", "u"))
    for x, u in ((0.7, 1.3), (1.9, 0.4)):
        got = prog.jets(t, 8, x, u)
        want = program(from_sympy(expr.xreplace({X: sp.Float(x), U: sp.Float(u)})),
                       psi.tree).jets(t, 8)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13), (x, u, got, want)


def test_run_time_inputs_keep_the_degree():
    psi = KERNELS["identity"]
    prog = program(from_sympy(X * T**3 + U**2 * T), psi.tree, ("x", "u"))
    assert prog.degree == 3
    assert program(from_sympy(X * U), psi.tree, ("x", "u")).degree == 0
    with pytest.raises(DomainError, match="x"):
        program(from_sympy(X * T), psi.tree, ("u",))
