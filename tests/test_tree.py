"""The tree operations the determining systems and the prolongation use in
place of sympy: derivatives, values on arrays, the expansion and the
power-sum split, each against sympy; and the printer solve prints its
bases with, against sympy's str."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from psifrac import symmetry as sy
from psifrac import tree as tr
from psifrac.errors import DomainError
from psifrac.jets import T, U, W, X
from psifrac.parser import parse

POINTS = [{"x": 0.3, "t": 0.7, "u": 1.2, "w": 0.45}, {"x": 1.1, "t": 0.25, "u": 0.6, "w": 1.3}]


def _at(expr, point):
    return float(expr.subs({X: point["x"], T: point["t"], U: point["u"], W: point["w"]}))


@pytest.mark.parametrize("node", [
    parse("x^3*exp(2*x)/(1 + x) - 0.5*x*u^2"),
    parse("(t + 1)^-2 * u + psi^3*x"),
    tr.from_sympy(sp.log(1 + X**2) * sp.sin(T) + sp.cos(X * T) * U),
    tr.from_sympy(X ** (T + 1) + (1 + X) ** (X * U) + (X / (1 + U)) ** sp.Rational(-4, 3)),
], ids=["quotient", "negative power", "log sin cos", "variable exponent"])
@pytest.mark.parametrize("name", ["x", "t", "u", "w"])
def test_diff_is_sympy_s_derivative(node, name):
    got = tr.diff(node, name)
    want = sp.diff(tr.to_sympy(node), {"x": X, "t": T, "u": U, "w": W}[name])
    for point in POINTS:
        value = tr.evaluate(got, point)
        assert value == pytest.approx(_at(want, point), rel=1e-13, abs=1e-13), point
    if name not in tr.names(node):
        assert got == tr.ZERO


def test_diff_ends_in_zero_by_structure():
    node = parse("3*x^2 + 2*x*t - u")
    d = tr.diff(tr.diff(node, "x"), "x")
    assert d == tr.num(6)
    assert tr.diff(d, "x") == tr.ZERO
    assert tr.diff(parse("2 + 0*u"), "u") == tr.ZERO
    # sympy keeps t**1.0, the derivative of t**2.0, as it is
    squared = ("pow", tr.T, tr.num(2.0))
    assert tr.diff(squared, "t") == ("mul", ("num", 2.0), ("pow", tr.T, ("num", 1.0)))


def test_caches_keep_numbers_of_other_types_apart():
    # 2 and 2.0 are equal, and so are the two trees, but each derivative
    # keeps its own types, whichever is asked first
    exact, real = ("pow", tr.T, tr.num(2)), ("pow", tr.T, tr.num(2.0))
    assert exact == real
    for first, second in ((exact, real), (real, exact)):
        tr._diff.cache_clear()
        tr.diff(first, "t")
        assert repr(tr.diff(second, "t")) == repr(tr.diff(second, "t"))
        assert str(tr.to_sympy(tr.diff(second, "t"))) == ("2*t" if second is exact else
                                                          "2.0*t**1.0")


def test_evaluate_takes_arrays_and_gives_nan_for_no_real_power():
    x = np.array([-1.0, 0.5, 2.0])
    got = tr.evaluate(parse("x^2 - 3*x + exp(x)"), {"x": x})
    assert np.array_equal(got, x**2 - 3 * x + np.exp(x))
    with np.errstate(invalid="ignore"):
        got = tr.evaluate(("pow", tr.X, tr.num(-4 / 3)), {"x": x})
    assert math.isnan(got[0]) and got[2] == 2.0 ** (-4 / 3)


@pytest.mark.parametrize("spec", [
    "x*psi^3 - 2*psi*(x + psi)",
    "(1 + psi)^2 * x",
    "(x*psi)^2/4 + 0.5",
    "psi^2 * psi^-1 + u*x - x*u",
    "(2*x - psi)^3 / (1 + x)",
    "3",
])
def test_power_sum_is_sympy_s_expansion(spec):
    node = parse(spec)
    terms = tr.power_sum(node, "w")
    expanded = sp.expand(tr.to_sympy(node))
    powers = sorted({float(p) for _, _, p in terms})
    want = sorted({float(sp.degree(t, W)) for t in sp.Add.make_args(expanded) if t != 0})
    assert powers == want
    for point in POINTS:
        value = sum(float(k) * tr.evaluate(c, point) * point["w"] ** float(p)
                    for k, c, p in terms)
        assert value == pytest.approx(_at(expanded, point), rel=1e-14)


def test_power_sum_collects_and_cancels_equal_terms():
    assert tr.power_sum(parse("x*psi + u*x - x*u + 2*psi*x"), "w") == ((3, tr.X, 1),)
    assert tr.power_sum(tr.ZERO, "w") == ()
    terms = tr.power_sum(tr.from_sympy(X * W ** sp.Float(0.37) + W), "w")
    assert {float(p) for _, _, p in terms} == {0.37, 1.0}


@pytest.mark.parametrize("spec", [
    "(x + psi)^2 - x^2 + exp(t)*(u + 1)",
    "(2*x - psi)^3 / (1 + x)",
    "u*x - x*u + 0.5*(t - u)^2",
])
def test_expand_is_sympy_s_expansion(spec):
    # the same function, and a sum of products of powers of the bases
    # expand does not open, with equal terms collected
    got = tr.expand(parse(spec))
    want = sp.expand(tr.to_sympy(parse(spec)))
    assert len(got[1:] if got[0] == "add" else [got]) == len(sp.Add.make_args(want))
    for point in POINTS:
        assert _at(tr.to_sympy(got), point) == pytest.approx(_at(want, point), rel=1e-14)


def test_expand_keeps_each_tree_s_number_types():
    # 2 and 2.0 make equal trees; each expands with its own coefficients,
    # whichever was expanded first
    exact = ("mul", tr.num(2), ("add", tr.U, tr.X))
    floating = ("mul", tr.num(2.0), ("add", tr.U, tr.X))
    assert exact == floating
    for first, second in ((exact, floating), (floating, exact)):
        tr._expanded.cache_clear()
        got = [tr.expand(first), tr.expand(second)]
        assert [type(term[1][1]) for e in got for term in e[1:]] == \
            [type(first[1][1])] * 2 + [type(second[1][1])] * 2


@pytest.mark.parametrize("spec", ["exp(psi)", "x/(1 + psi)", "(1 + psi)^-2"])
def test_power_sum_refuses_what_is_no_power_of_w(spec):
    with pytest.raises(DomainError):
        tr.power_sum(parse(spec), "w")


@pytest.mark.parametrize("node, text", [
    (("mul", tr.num(Fraction(-3, 2)), tr.X), "-3*x/2"),
    (("mul", tr.num(-1), tr.X, ("pow", tr.num(4), tr.num(-1))), "-x/4"),
    (("mul", tr.num(0), tr.X), "0"),
    (("mul", tr.num(2), ("pow", tr.num(3), tr.num(-1))), "2/3"),
    (("add", tr.X, ("mul", tr.num(-2), tr.W)), "x - 2*w"),
    (("mul", ("add", tr.ONE, tr.X), tr.num(0.5)), "(1 + x)*0.5"),
    (("pow", ("add", tr.ONE, tr.X), tr.num(Fraction(-4, 3))), "(1 + x)**(-4/3)"),
    (("pow", tr.num(Fraction(1, 2)), ("mul", tr.num(2), tr.X)), "(1/2)**(2*x)"),
    (("exp", ("pow", tr.W, tr.num(0.1 + 0.2))), "exp(w**0.30000000000000004)"),
], ids=["coefficient", "reciprocal", "zero", "number", "difference", "sum factor",
        "negative exponent", "compound base", "float"])
def test_to_text(node, text):
    assert tr.to_text(node) == text


SOLVE_ORDERS = (0.3, 0.5, 0.6, 0.79, 1.0, 1.4, 2.0)
# each solver parameter varied with the others at their defaults
SOLVE_PARAMS = [{**sy.CASE_DEFAULTS, key: v}
                for key, values in (("p", (2.0, 3.7, 0.5, -1.0)), ("b", (1.0, 2.0, 0.3)),
                                    ("c1", (0.0, 0.5, 1.0)))
                for v in values]


def _has_float(node):
    if node[0] == "num":
        return isinstance(node[1], float)
    return node[0] != "sym" and any(map(_has_float, node[1:]))


def _solved_functions():
    """(case, alpha, label, field, tree) of every xi, theta and rho solve prints."""
    for case in sy.CASES:
        if case.params is None:
            continue
        for alpha in SOLVE_ORDERS:
            for params in SOLVE_PARAMS:
                for cand in case.solve(alpha, **params):
                    r = cand.reduced
                    for field in ("xi", "theta", "rho"):
                        yield case.name, alpha, cand.label, field, getattr(r, field).tree


def test_solved_rows_without_a_float_print_as_sympy_does():
    exact = [(where, node) for *where, node in _solved_functions() if not _has_float(node)]
    assert len(exact) > 1000
    for where, node in exact:
        assert tr.to_text(node) == str(tr.to_sympy(node)), where


def test_constant_diffusivity_rho_reads_back_as_its_tree():
    # as the benchmark reads a printed row: sympify over plain x and w
    x, w = sp.symbols("x w")
    rhos = [(alpha, node) for name, alpha, label, field, node in _solved_functions()
            if name == "K=1" and label == "rho du" and field == "rho"]
    assert {alpha for alpha, _ in rhos} == set(SOLVE_ORDERS)
    xs, ws = np.meshgrid([0.2, 0.55, 1.0, 1.7], [0.2, 0.5, 1.0, 3.0])
    for alpha, node in rhos:
        read = sp.lambdify((x, w), sp.sympify(tr.to_text(node), locals={"x": x, "w": w}))
        want = tr.evaluate(node, {"x": xs, "w": ws})
        np.testing.assert_allclose(read(xs, ws), want, rtol=1e-15, atol=0, err_msg=str(alpha))
