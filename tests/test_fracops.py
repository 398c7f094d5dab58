import math

import pytest
import scipy.integrate
import sympy as sp

from psifrac import fracops as fo
from psifrac.errors import DomainError, JetOrderError
from psifrac.jets import JetFunction, T, W
from psifrac.psi import builtin
from psifrac.special import gamma

IDENTITY = builtin("identity", 0.0, 2.0)
POWER = builtin("power", 0.5, 2.0)
EXPONENTIAL = builtin("exponential", 0.0, 1.0)


def _w_expr(psi):
    return sp.expand(psi.expr - psi.expr.subs(T, psi.a))


# -- order bookkeeping ---------------------------------------------------------


def test_fractional_order_m():
    assert fo.FractionalOrder(0.5).m == 1
    assert fo.FractionalOrder(1.5).m == 2
    assert fo.FractionalOrder(2.0).m == 2
    assert fo.FractionalOrder(3.0).m == 3
    assert fo.FractionalOrder(2.0).is_integer


def test_quadrature_spec_minimum_nodes():
    with pytest.raises(DomainError):
        fo.QuadratureSpec(2)


# -- power rule ----------------------------------------------------------------


@pytest.mark.parametrize("psi", [IDENTITY, POWER, EXPONENTIAL], ids=lambda p: p.name)
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
@pytest.mark.parametrize("beta", [1.0, 2.5])
def test_power_rule_quadrature(psi, alpha, beta):
    f = JetFunction.of_t(_w_expr(psi) ** sp.nsimplify(beta))
    t = psi.a + 0.6 * (psi.b - psi.a)
    w = psi(t) - psi(psi.a)
    expected = gamma(beta + 1) / gamma(beta + 1 - alpha) * w ** (beta - alpha)
    got = fo.frac_derivative(f, psi, alpha, t)
    assert got == pytest.approx(expected, rel=1e-7)


@pytest.mark.parametrize("psi", [IDENTITY, POWER], ids=lambda p: p.name)
def test_power_rule_exact_routine(psi):
    alpha = 0.5
    t = psi.a + 0.7 * (psi.b - psi.a)
    w = psi(t) - psi(psi.a)
    got = fo.frac_deriv_psi_powers(3 * W**2, alpha, w)
    expected = 3 * gamma(3.0) / gamma(3.0 - alpha) * w ** (2 - alpha)
    assert got == pytest.approx(expected, rel=1e-14)


def test_power_rule_annihilates_critical_exponent():
    # D^{alpha} w^{alpha-1} = 0: the reciprocal gamma hits its pole exactly
    alpha = 0.6
    assert fo.frac_deriv_psi_powers(W ** (alpha - 1), alpha, 0.8) == 0.0


def test_power_rule_rejects_nonintegrable_exponent():
    with pytest.raises(DomainError):
        fo.frac_deriv_psi_powers(W ** (-1.2), 0.5, 0.8)


def test_power_rule_rejects_non_power_sum():
    with pytest.raises(DomainError):
        fo.frac_deriv_psi_powers(sp.exp(W), 0.5, 0.8)


def test_power_rule_zero_expression():
    assert fo.frac_deriv_psi_powers(sp.Integer(0), 0.5, 0.8) == 0.0


# -- classic values ------------------------------------------------------------


def test_derivative_of_constant_classical():
    # D^{1/2} 1 = t^{-1/2} / Gamma(1/2)
    f = JetFunction.of_t(sp.Integer(1))
    got = fo.frac_derivative(f, IDENTITY, 0.5, 1.0)
    assert got == pytest.approx(1.0 / math.gamma(0.5), rel=1e-9)


def test_integral_order_one_is_plain_integral():
    f = JetFunction.of_t(sp.Integer(1))
    assert fo.frac_integral(f, IDENTITY, 1.0, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_integer_order_dispatches_to_jet_derivative():
    f = JetFunction.of_t(T**2)
    assert fo.frac_derivative(f, IDENTITY, 1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert fo.frac_derivative(f, IDENTITY, 2.0, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_against_independent_singular_quadrature():
    # classical RL integral of e^t via scipy's algebraic-weight quadrature
    alpha, t = 0.5, 1.0
    ref, _ = scipy.integrate.quad(math.exp, 0.0, t, weight="alg", wvar=(0, alpha - 1))
    ref /= math.gamma(alpha)
    f = JetFunction.of_t(sp.exp(T))
    assert fo.frac_integral(f, IDENTITY, alpha, t) == pytest.approx(ref, rel=1e-9)


# -- backend agreement -----------------------------------------------------------


@pytest.mark.parametrize("psi", [IDENTITY, EXPONENTIAL], ids=lambda p: p.name)
@pytest.mark.parametrize("alpha", [0.3, 1.5])
def test_backends_agree_on_smooth_function(psi, alpha):
    f = JetFunction.of_t(sp.exp(T))
    t = psi.a + 0.5 * (psi.b - psi.a)
    iq = fo.frac_integral(f, psi, alpha, t)
    isr = fo.frac_integral_series(f, psi, alpha, t, terms=30)
    assert isr.value == pytest.approx(iq, rel=1e-9, abs=1e-9)
    dq = fo.frac_derivative(f, psi, alpha, t)
    dsr = fo.frac_derivative_series(f, psi, alpha, t, terms=30)
    assert dsr.value == pytest.approx(dq, rel=1e-9, abs=1e-9)


def test_series_terminates_on_polynomials_in_w():
    f = JetFunction.of_t(_w_expr(POWER) ** 3)
    res = fo.frac_derivative_series(f, POWER, 0.5, 1.4, terms=20)
    assert res.tail == 0.0  # exact termination: last computed term vanished


def test_series_tail_reported_for_nonpolynomial():
    f = JetFunction.of_t(sp.exp(T))
    res = fo.frac_derivative_series(f, IDENTITY, 0.5, 1.0, terms=10)
    assert res.tail > 0.0


# -- operator laws ----------------------------------------------------------------


def test_semigroup_of_integrals():
    # I^a I^b f = I^{a+b} f, inner value supplied as a plain callable
    f = JetFunction.of_t(sp.exp(T))
    quad = fo.QuadratureSpec(256)
    a_, b_ = 0.7, 0.3
    t = 1.5

    def inner(s):
        return fo.frac_integral(f, IDENTITY, a_, s, quad) if s > 0 else 0.0

    lhs = fo.frac_integral(inner, IDENTITY, b_, t, quad)
    rhs = fo.frac_integral(f, IDENTITY, a_ + b_, t, quad)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_derivative_left_inverse_of_integral():
    # D^alpha I^alpha f = f, with I^alpha of the psi-power sum f in closed form
    coeffs = (1.3, 0.8, 0.6)
    quad = fo.QuadratureSpec(256)
    for psi in (IDENTITY, POWER):
        for alpha in (sp.Rational(1, 2), sp.Rational(3, 2)):
            integral = sum(
                c * sp.gamma(k + 1) / sp.gamma(k + 1 + alpha) * W ** (k + alpha)
                for k, c in enumerate(coeffs)
            )
            g = JetFunction.of_t(integral.subs(W, _w_expr(psi)))
            for t in (psi.a + 0.3 * (psi.b - psi.a), psi.b):
                w = psi(t) - psi(psi.a)
                want = sum(c * w**k for k, c in enumerate(coeffs))
                got = fo.frac_derivative(g, psi, float(alpha), t, quad)
                assert got == pytest.approx(want, rel=1e-8), (psi.name, alpha, t)


# -- Leibniz and product-integral rules --------------------------------------------


@pytest.mark.parametrize("psi", [IDENTITY, POWER], ids=lambda p: p.name)
def test_leibniz_monotone_convergence(psi):
    wa = _w_expr(psi)
    f = JetFunction.of_t(sp.expand(wa**2 + 1))
    g = JetFunction.of_t(sp.expand(wa**3 + wa))
    alpha = 0.5
    t = psi.a + 0.6 * (psi.b - psi.a)
    w = psi(t) - psi(psi.a)
    direct = fo.frac_deriv_psi_powers(
        sp.expand((W**2 + 1) * (W**3 + W)), alpha, w
    )
    errs = [
        abs(fo.leibniz_product(f, g, psi, alpha, t, terms=n) - direct)
        for n in range(1, 11)
    ]
    assert errs[-1] <= 1e-6
    for hi, lo in zip(errs, errs[1:]):
        assert lo <= hi + 1e-12


def test_leibniz_with_constant_factor_is_exact():
    f = JetFunction.of_t(sp.Integer(1))
    g = JetFunction.of_t(T)
    got = fo.leibniz_product(f, g, IDENTITY, 0.5, 1.0, terms=1)
    want = fo.frac_deriv_psi_powers(W, 0.5, 1.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_product_integral_expansion():
    wa = _w_expr(IDENTITY)
    f = JetFunction.of_t(sp.expand(wa**2))
    g = JetFunction.of_t(sp.exp(T))
    alpha, t = 0.5, 1.0
    fg = JetFunction.of_t(sp.expand(f.expr * g.expr))
    direct = fo.frac_integral(fg, IDENTITY, alpha, t)
    got = fo.product_integral(f, g, IDENTITY, alpha, t, terms=10)
    assert got == pytest.approx(direct, rel=1e-8)


# -- guard rails --------------------------------------------------------------------


def test_operators_reject_t_at_or_below_a():
    f = JetFunction.of_t(T)
    with pytest.raises(DomainError):
        fo.frac_integral(f, IDENTITY, 0.5, 0.0)
    with pytest.raises(DomainError):
        fo.frac_op_series(f, IDENTITY, 0.5, 0.0)


@pytest.mark.parametrize("psi", [IDENTITY, POWER], ids=lambda p: p.name)
@pytest.mark.parametrize(
    "alpha, where",
    [(0.5, "b"), (1.5, "b"), (1.5, "a+1e-7"), (5.5, "mid"), (5.5, "b")],
)
def test_derivative_exact_at_interval_ends_and_high_order(request, psi, alpha, where):
    if psi is POWER and alpha > 5:
        # the expanded order-6 jets of w^(5/2) cancel catastrophically near
        # t = a (sums like t^6 - 0.75 t^4 + ... for (t^2 - 1/4)^3); the
        # fault is in the symbolic jets, which the nodes near x = 0 sample
        request.applymarker(pytest.mark.xfail(strict=True, reason="jet cancellation"))
    fw = 1 + W**2 + W ** sp.Rational(5, 2)
    f = JetFunction.of_t(fw.subs(W, _w_expr(psi)))
    t = {"b": psi.b, "a+1e-7": psi.a + 1e-7, "mid": 0.5 * (psi.a + psi.b)}[where]
    w = psi(t) - psi(psi.a)
    want = fo.frac_deriv_psi_powers(fw, alpha, w)
    assert fo.frac_derivative(f, psi, alpha, t) == pytest.approx(want, rel=1e-10)


def test_derivative_needs_jet_function():
    with pytest.raises(DomainError):
        fo.frac_derivative(math.exp, IDENTITY, 0.5, 1.0)


def test_series_needs_enough_jet_orders():
    f = JetFunction.of_t(sp.exp(T), max_order=5)
    with pytest.raises(JetOrderError):
        fo.frac_op_series(f, IDENTITY, 0.5, 1.0, terms=10)


def test_callable_psi_limits_jet_depth():
    psi = builtin("identity", 0.0, 2.0)
    raw = type(psi)(
        "raw", 0.0, 2.0, _eval=lambda t: t, _deriv=lambda t: 1.0
    )
    f = JetFunction.of_t(T**2)
    assert fo.psi_deriv_m(f, raw, 1.0, 1) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        fo.psi_deriv_m(f, raw, 1.0, 3)


def test_callable_psi_derivative_orders_below_two():
    raw = type(IDENTITY)(
        "raw", 0.0, 2.0, _eval=lambda t: t, _deriv=lambda t: 1.0,
        _deriv2=lambda t: 0.0, inverse=lambda v: v,
    )
    f = JetFunction.of_t(T**2)
    for alpha in (0.5, 1.5):
        want = fo.frac_derivative(f, IDENTITY, alpha, 1.2)
        assert fo.frac_derivative(f, raw, alpha, 1.2) == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        fo.frac_derivative(f, raw, 2.5, 1.2)
