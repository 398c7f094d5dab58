import dataclasses
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import sympy as sp

from psifrac import cli, forward
from psifrac import fracops as fo
from psifrac import tree as tr
from psifrac import prolong as pr
from psifrac.errors import DomainError
from psifrac.jets import JetFunction, T, U, W, X
from psifrac.psi import PsiFunction, builtin
from psifrac.special import gamma, gen_binom, rgamma

IDENTITY = builtin("identity", 0.0, 2.0)
POWER = builtin("power", 0.5, 2.0)
EXPONENTIAL = builtin("exponential", 0.0, 1.0)
# given by its expression alone: inverted by bisection and secant
CUBIC = PsiFunction("t + t^3", 0.0, 1.5, expr=T + T**3)


def _w_expr(psi):
    return sp.expand(psi.expr - psi.expr.subs(T, psi.a))


# -- order bookkeeping ---------------------------------------------------------


def test_quadrature_spec_minimum_nodes():
    with pytest.raises(DomainError):
        fo.QuadratureSpec(2)


# -- quadrature rule -----------------------------------------------------------

RULE_EXPONENTS = (-0.95, -0.5, 0.3, 3.7, 12.3)


def _chebyshev_moment(k, a):
    """int_{-1}^{1} (1-y)^a T_k(y) dy to 60 digits, from the terminating
    hypergeometric form T_k(y) = 2F1(-k, k; 1/2; (1-y)/2)."""
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        term, acc = mpmath.mpf(1), mpmath.mpf(0)
        for i in range(k + 1):
            acc += term / (a + i + 1)
            term *= mpmath.mpf(i - k) * (k + i) / ((i + mpmath.mpf(1) / 2) * (i + 1))
        return float(2 ** (a + 1) * acc)


@pytest.mark.parametrize("a", RULE_EXPONENTS)
@pytest.mark.parametrize("n", [4, 17, 64])
def test_rule_integrates_chebyshev_polynomials_exactly(n, a):
    ys, ws = fo._jacobi_rule(n, a)
    assert len(ys) == len(ws) == n
    ys = np.array(ys)
    # rounding a node moves T_k there by up to k^2 ulp, so even exact
    # weights agree only to a few 1e-14 * sum |w_j| at n = 64
    tol = 1e-13 * float(np.abs(ws).sum())
    for k in range(n):
        tk = np.polynomial.chebyshev.chebval(ys, [0.0] * k + [1.0])
        assert abs(float(np.dot(ws, tk)) - _chebyshev_moment(k, a)) <= tol, k


@pytest.mark.parametrize("a", RULE_EXPONENTS)
def test_rule_agrees_with_gauss_jacobi(a):
    ys, ws = fo._jacobi_rule(64, a)
    gy, gw = scipy.special.roots_jacobi(64, a, 0.0)
    for g in (np.exp, lambda y: np.cos(3.0 * y)):
        want = float(np.dot(gw, g(gy)))
        assert float(np.dot(ws, g(np.array(ys)))) == pytest.approx(want, rel=1e-11)


def test_rule_is_computed_once_per_exponent(monkeypatch):
    # a Leibniz sum asks for one exponent at several orders (D^{0.6} and
    # I^{0.4} both weigh by (1 - y)^{-0.6}); each (n, exponent) is computed once
    f = JetFunction.of_t(sp.exp(T) + T**2)
    g = JetFunction.of_t(T**3 + sp.Rational(1, 3) * T)
    rule, asked = fo._jacobi_rule, []
    monkeypatch.setattr(fo, "_jacobi_rule", lambda n, a: asked.append((n, a)) or rule(n, a))

    def sums():
        fo.leibniz_product(f, g, IDENTITY, 0.6, 1.1, 6)
        fo.product_integral(f, g, IDENTITY, 0.6, 1.1, 6)

    rule.cache_clear()
    sums()
    assert len(asked) > len(set(asked))
    misses = rule.cache_info().misses
    assert misses == len(set(asked))
    asked.clear()
    sums()
    assert asked and rule.cache_info().misses == misses


def _scalar_rule(n, a):
    """The weights by the moment recurrence in its plain scalar form:
    integer k, the sign (-1)^k taken per moment, plain twiddles."""
    twiddle = np.exp(0.5j * math.pi / n * np.arange(n))
    two = 2.0 ** (a + 1.0)
    r = two / (a + 1.0)
    moments = [0.5 * r]
    r *= a / (a + 2.0)
    moments.append(-r)
    for k in range(2, n):
        r = -(two + k * (k - a - 2.0) * r) / ((k - 1) * (k + a + 1.0))
        moments.append(-r if k & 1 else r)
    return (4.0 * np.fft.ifft(twiddle * moments, 2 * n)[:n].real).tolist()


@pytest.mark.parametrize("n", [4, 17, 64, 513, cli.MAX_NODES])
def test_rule_bits_equal_the_scalar_recurrence(n):
    for a in (-0.999, -0.7, -0.3, 0.0, 0.0018, 0.7, 1.95, 11.3):
        ys, ws = fo._jacobi_rule(n, a)
        assert not ws.flags.writeable  # a cached rule no caller can change
        assert list(ws) == _scalar_rule(n, a), a
        assert ys == fo._chebyshev_points(n)[0]
    fo._jacobi_rule.cache_clear()


# -- node tables -----------------------------------------------------------------


def _clear_node_tables():
    fo._nodes.cache_clear()
    fo._node_values.cache_clear()
    fo._jacobi_rule.cache_clear()


def _reference_moments(f, psi, m, beta, t, n):
    """The per-node loop the node tables replace: invert psi at each node,
    evaluate every jet there, and accumulate c * f^{[j]} with c = w_i x_i^j
    by repeated multiplication.  The jets of a tree come by forward mode at
    that one node."""
    va = psi(psi.a)
    V = psi(t) - va
    ys, ws = fo._jacobi_rule(n, beta - 1.0)
    acc = [0.0] * (m + 1)
    for yi, wi in zip(ys, ws.tolist()):
        x = 0.5 * (yi + 1.0)
        s = psi.invert(va + V * x)
        if f.symbolic:
            jets = [fo._psi_jet_fn(f.expr, psi.expr, j)(s) for j in range(m + 1)]
        else:
            one = forward.jets(f.tree, psi, np.array([s]), m)
            jets = [float(j[0]) for j in one]
        c = wi
        for j in range(m + 1):
            acc[j] += c * jets[j]
            c *= x
    scale = 0.5**beta
    return V, [a * scale for a in acc]


@pytest.mark.parametrize("psi", [IDENTITY, POWER, EXPONENTIAL, CUBIC],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("m", [0, 1, 2])
def test_moments_equal_the_per_node_loop(psi, m):
    # a sympy f, and a parsed spec with a reciprocal (whose forward-mode
    # jets on a curved kernel take another formula below order 2)
    fs = (JetFunction.of_t(sp.exp(T) * T + 1 / (T + 2)),
          cli._as_f_of_t("exp(t)*t + 1/(t+2)", psi))
    for n in (4, 17, 64, 513):
        quad = fo.QuadratureSpec(n)
        for f in fs:
            for where in (0.2, 0.9):
                t = psi.a + where * (psi.b - psi.a)
                for beta in (0.3, 0.85, 1.0, 2.4):
                    want = _reference_moments(f, psi, m, beta, t, n)
                    got = fo._jacobi_moments(f, psi, m, beta, t, quad)
                    assert got == want, (n, f.symbolic, t, beta)
                    assert all(type(g) is float for g in got[1])


def test_an_integral_then_a_derivative_take_one_forward_pass(monkeypatch):
    # the first quadrature of a tree at a point asks for order 0, and its
    # pass takes the jets through order 2, which a derivative of order
    # below 2 reads
    calls = []
    jets = forward.jets
    monkeypatch.setattr(forward, "jets", lambda *a: calls.append(a[3]) or jets(*a))
    for psi in (IDENTITY, POWER, EXPONENTIAL, CUBIC):
        f = cli._as_f_of_t("exp(t)*t + 1/(t+2)", psi)
        t = psi.a + 0.6 * (psi.b - psi.a)
        _clear_node_tables()
        calls.clear()
        fo.frac_integral(f, psi, 0.7, t)
        fo.frac_derivative(f, psi, 0.4, t)
        fo.frac_derivative(f, psi, 1.6, t)
        fo.frac_integral(f, psi, 2.5, t)
        assert calls == [0], psi.name
        fo.frac_derivative(f, psi, 2.5, t)  # order 3 extends the table
        assert calls == [0, 3], psi.name


def test_a_deeper_jet_that_overflows_leaves_the_integral_alone():
    # the nodes of t = 1e-100 reach 1.5e-104, where t^-3, in the order-2
    # jet of 1/t, overflows: that order holds inf there, with no exception
    # and no warning, and the integral reads order 0 alone
    psi = builtin("identity", 0.0, 1.0)
    f = cli._as_f_of_t("t^-1", psi)
    _clear_node_tables()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jets = forward.jets(f.tree, psi, fo._nodes(psi, 1e-100, 64)[1], 0)
        assert np.isfinite(jets[0]).all() and not np.isfinite(jets[2]).all()
        got = fo._jacobi_moments(f, psi, 0, 0.5, 1e-100, fo.QuadratureSpec())
        assert fo.frac_integral(f, psi, 0.5, 1e-100) == 6.9083923153710345e+50
    assert got == _reference_moments(f, psi, 0, 0.5, 1e-100, 64)


def test_a_number_whose_power_overflows_in_a_deeper_jet_leaves_the_operators_alone():
    # (1 + 10^160 t)^-1 on psi = t: the order-2 jet holds (10^160)^2, which
    # is inf, with no exception and no warning; the integral and the
    # derivative of order 0.5 read orders 0 and 1 alone
    psi = builtin("identity", 0.0, 1.0)
    f = cli._as_f_of_t("(1+1" + "0" * 160 + "*t)^-1", psi)
    _clear_node_tables()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jets = forward.jets(f.tree, psi, np.array([0.25, 0.5]), 0)
        assert np.isfinite(jets[1]).all() and not np.isfinite(jets[2]).any()
        assert fo.frac_integral(f, psi, 0.5, 0.5) == 9.769942106591788e-160
        assert fo.frac_derivative(f, psi, 0.5, 0.5) == -9.769957176116033e-160


@pytest.mark.parametrize("psi", [builtin("power", 0.5, 2.0, rho=2.7),
                                 builtin("exponential", 0.0, 1.0)], ids=lambda p: p.name)
@pytest.mark.parametrize("spec", ["t^3", "1/(t+2)", "t^4+t", "(t+1)^5", "exp(t)^3"])
def test_an_integer_order_takes_the_jet_of_the_depth_2_pass(psi, spec):
    # a power of a series curved in w rounds its jets of order 0 and 1
    # otherwise in a shallower forward pass; frac_op at order 0 and
    # frac_derivative at order 1 read the same pass the node tables do
    f = cli._as_f_of_t(spec, psi)
    for t in np.linspace(psi.a + 0.05, psi.b, 15).tolist():
        want = forward.jets(f.tree, psi, np.array([t]), 2)
        assert fo.frac_op(f, psi, 0.0, t) == float(want[0][0]), t
        assert fo.frac_derivative(f, psi, 1.0, t) == float(want[1][0]), t
        assert fo.frac_derivative(f, psi, 2.0, t) == float(want[2][0]), t


def test_a_sum_of_negative_zeros_is_zero():
    # -(t - t) is -0.0 at every node; the moment loop began at acc = 0.0,
    # so the value printed is 0.0, not -0.0
    f = cli._as_f_of_t("-(t - t)", IDENTITY)
    for op in (fo.frac_integral, fo.frac_derivative):
        assert math.copysign(1.0, op(f, IDENTITY, 0.5, 1.0)) == 1.0


def _point_ops(psi, t):
    f = JetFunction.of_t(sp.exp(T) + T**2)
    g = JetFunction.of_t(T**3 + sp.Rational(1, 3) * T)
    return {
        "frac_integral": lambda: fo.frac_integral(f, psi, 0.7, t),
        "frac_derivative": lambda: fo.frac_derivative(f, psi, 1.3, t),
        "leibniz_product": lambda: fo.leibniz_product(f, g, psi, 0.6, t, 6),
        "product_integral": lambda: fo.product_integral(f, g, psi, 0.6, t, 6),
        "omega_commutator": lambda: pr.omega_commutator(g, psi, 0.45, t),
        # the warm-up: other orders of f and g at the same point, two of them
        # (D^{0.3}, D^{0.4}) with the rule's exponents -0.3 and -0.4 above
        "other orders": lambda: [op(h, psi, nu, t) for h in (f, g)
                                 for op in (fo.frac_integral, fo.frac_derivative)
                                 for nu in (0.25, 0.3, 0.4, 1.75, 2.5)],
    }


@pytest.mark.parametrize("psi", [IDENTITY, POWER, EXPONENTIAL, CUBIC],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("name", ["frac_integral", "frac_derivative", "leibniz_product",
                                  "product_integral", "omega_commutator"])
def test_warm_node_tables_give_the_cold_values(psi, name):
    t = psi.a + 0.55 * (psi.b - psi.a)
    ops = _point_ops(psi, t)
    _clear_node_tables()
    cold = ops[name]()
    _clear_node_tables()
    ops["other orders"]()
    hits, rule_hits = fo._nodes.cache_info().hits, fo._jacobi_rule.cache_info().hits
    warm = ops[name]()
    assert fo._nodes.cache_info().hits > hits  # the op read the shared nodes
    assert fo._jacobi_rule.cache_info().hits > rule_hits  # and a shared rule
    assert warm == cold


def test_new_kernels_share_no_node_entries():
    f = JetFunction.of_t(sp.exp(T))
    _clear_node_tables()
    # each builtin identity or power kernel carries its own inverse
    for name in ("identity", "power"):
        first, second = builtin(name, 0.5, 2.0), builtin(name, 0.5, 2.0)
        fo.frac_integral(f, first, 0.5, 1.2)
        nodes, values = fo._nodes.cache_info(), fo._node_values.cache_info()
        fo.frac_integral(f, second, 0.5, 1.2)
        assert fo._nodes.cache_info().misses == nodes.misses + 1, name
        assert fo._node_values.cache_info().misses == values.misses + 1, name
    # kernels that differ only in the inverse, analytic or by bisection:
    # here the two inversions differ in the last bits, and each kernel
    # keeps its own
    numeric = dataclasses.replace(EXPONENTIAL, inverse=None)
    _clear_node_tables()
    cold = fo.frac_integral(f, numeric, 0.5, 0.9)
    _clear_node_tables()
    assert fo.frac_integral(f, EXPONENTIAL, 0.5, 0.9) != cold
    assert fo.frac_integral(f, numeric, 0.5, 0.9) == cold
    # an equal kernel is the same inversion, and reads the same nodes
    misses = fo._nodes.cache_info().misses
    fo.frac_integral(f, dataclasses.replace(EXPONENTIAL), 0.5, 0.9)
    assert fo._nodes.cache_info().misses == misses


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


# a power sum in w whose coefficients hold x and u; at alpha = 2.5 its
# w^{3/2} term sits on a pole of the reciprocal gamma
MIXED_POWER_SUM = (
    X**2 / 2 * W ** sp.Float(0.35)
    + sp.exp(X) * U * W**2
    - 3 * U**2
    + sp.Rational(2, 7) * W ** sp.Rational(3, 2)
    + X * U * W
)


def _within_ulps(a: float, b: float, n: int, scale: float = 0.0) -> bool:
    """|a - b| is at most n ulp of the larger of |a|, |b| and scale."""
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b), scale))


@pytest.mark.parametrize("alpha", [0.3, 0.65, 1.5, 2.5])
def test_grid_power_rule_matches_the_pointwise_rule(alpha):
    # the determining systems' form: w and the coefficients' x and u as
    # arrays that broadcast; each node is the pointwise rule at its values
    # up to the last bits of numpy's array power, which can round apart
    # from Python's float power
    xs, us, ws = (0.2, 0.9), (0.5, 1.7), (0.3, 1.4)
    grid = fo.frac_deriv_psi_powers(
        MIXED_POWER_SUM, alpha, np.reshape(ws, (1, 1, -1)),
        {"x": np.reshape(xs, (-1, 1, 1)), "u": np.reshape(us, (1, -1, 1))})
    assert grid.shape == (2, 2, 2)
    for i, x in enumerate(xs):
        for j, u in enumerate(us):
            for k, w in enumerate(ws):
                want = fo.frac_deriv_psi_powers(MIXED_POWER_SUM, alpha, w, {"x": x, "u": u})
                assert _within_ulps(float(grid[i, j, k]), float(want), 4), (x, u, w)


def test_power_rule_drops_the_critical_exponent_exactly():
    # a term at a pole of the reciprocal gamma is left out, w^(alpha-1)
    # and all, so w = 0 takes no negative power of 0
    alpha = 0.6
    at = {"x": np.array([0.3, 0.8]), "u": np.array([0.5, 2.0])}
    for w in (0.0, 0.8, np.array([0.0, 0.8])):
        assert fo.frac_deriv_psi_powers(W ** (alpha - 1), alpha, w) == 0.0
        assert fo.frac_deriv_psi_powers(X * U * W ** (alpha - 1), alpha, w, at) == 0.0


@pytest.mark.parametrize("expr", [W ** (-1.2), sp.exp(W), X * W**-1, W**X],
                         ids=("nonintegrable", "exp", "nonintegrable-times-x",
                              "symbolic-exponent"))
def test_power_rule_rejects_a_non_power_sum_before_any_term(expr, monkeypatch):
    def refuse(*args):
        raise AssertionError("a term evaluated")

    monkeypatch.setattr(fo.tr, "evaluate", refuse)
    with pytest.raises(DomainError):
        fo.frac_deriv_psi_powers(expr, 0.5, np.array([0.2, 0.8]), {"x": np.array([0.4, 0.9])})


def test_power_rule_needs_a_value_for_each_coefficient_variable():
    with pytest.raises(DomainError, match="holds x"):
        fo.frac_deriv_psi_powers(X * W**2, 0.5, 0.8)
    with pytest.raises(DomainError, match="holds u"):
        fo.frac_deriv_psi_powers(MIXED_POWER_SUM, 0.5, 0.8, {"x": 0.3})
    # a variable the coefficients do not hold needs no value
    assert fo.frac_deriv_psi_powers(W**2, 0.5, 0.8, {}) == fo.frac_deriv_psi_powers(
        W**2, 0.5, 0.8, {"x": 0.3})


def test_power_rule_takes_a_tree_a_number_and_sympy_alike():
    node = ("add", ("mul", tr.num(3), ("pow", tr.W, tr.num(2))), tr.num(Fraction(1, 3)))
    want = fo.frac_deriv_psi_powers(3 * W**2 + sp.Rational(1, 3), 0.4, 0.7)
    assert repr(fo.frac_deriv_psi_powers(node, 0.4, 0.7)) == repr(want)
    assert repr(fo.frac_deriv_psi_powers(Fraction(1, 3), 0.4, 0.7)) == repr(
        fo.frac_deriv_psi_powers(sp.Rational(1, 3), 0.4, 0.7))
    assert fo.frac_deriv_psi_powers(2, 1.0, 0.7) == 0.0


def test_pointwise_power_rule_keeps_its_float_arithmetic_bit_for_bit():
    # k, Gamma(p+1), 1/Gamma(p+1-nu), c and w^(p-nu) multiplied left to
    # right and summed in tree.power_sum's order, bit for bit; the grid's
    # value at each node agrees up to numpy's array power (as above), and
    # the loop over sympy's terms that the rule once was, which sums in
    # another order, within 4 ulp of the largest term
    def split_loop(expr_in_w, nu, w):
        """The sum, and the largest |term|."""
        acc, top = 0.0, 0.0
        for k, c, p in tr.power_sum(tr.from_sympy(sp.sympify(expr_in_w)), "w"):
            p = float(p)
            if rgamma(p + 1.0 - nu) != 0.0:
                term = float(k) * gamma(p + 1.0) * rgamma(p + 1.0 - nu) * tr.evaluate(
                    c, {}) * w ** (p - nu)
                acc, top = acc + term, max(top, abs(term))
        return acc, top

    def reference(expr_in_w, nu, w):
        e = sp.expand(sp.sympify(expr_in_w))
        if e == 0:
            return 0.0
        acc = 0.0
        for term in e.as_ordered_terms():
            c, rest = term.as_independent(W)
            if rest == 1:
                c, p = float(c), 0.0
            elif rest == W:
                c, p = float(c), 1.0
            else:
                c, p = float(c), float(rest.exp)
            acc += c * gamma(p + 1.0) * rgamma(p + 1.0 - nu) * w ** (p - nu)
        return acc

    ws = (0.2, 0.83, 1.9)
    for nu in (0.3, 0.6, 1.5, 2.5):
        sums = (
            3 * W**2,
            sp.sqrt(2) * W ** sp.Rational(1, 2) - sp.Rational(1, 3),
            W ** (nu - 1) + 0.7 * W ** (2 * nu - 1),
            MIXED_POWER_SUM.subs({X: 0.3, U: 1.1}),
            MIXED_POWER_SUM.subs({X: 0.7, U: 0.6}),
        )
        for expr in sums:
            grid = np.broadcast_to(fo.frac_deriv_psi_powers(expr, nu, np.array(ws)), 3)
            for w, g in zip(ws, grid.tolist()):
                got = fo.frac_deriv_psi_powers(expr, nu, w)
                assert type(got) is float
                want, top = split_loop(expr, nu, w)
                assert repr(got) == repr(want), (expr, nu, w)
                assert _within_ulps(got, g, 4, top), (expr, nu, w)
                assert _within_ulps(got, reference(expr, nu, w), 4, top), (expr, nu, w)


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


# shapes whose derivatives multiply and add their floats: products of three
# numbers, a square, 3 * 3 applied in turn, a float distributed over a sum,
# and a negative power of a sum
FLOAT_SHAPES = ("1.27*exp(1.668*t^3)", "1.27*exp(1.27*t^3)",
                "3*exp(0.1*t^3 + 0.895*exp(2.5*t^3))", "t*(0.7*t + (t + 0.7*t)^2)",
                "(t*(t^3 - 0.84) + t)^-3")


@pytest.mark.parametrize("spec", FLOAT_SHAPES)
@pytest.mark.parametrize("psi", [IDENTITY, POWER, EXPONENTIAL], ids=lambda p: p.name)
def test_symbolic_psi_jets_match_forward_mode(psi, spec):
    # f given in sympy takes its quadrature psi-jets from sp.diff, the same
    # f as a tree from forward mode: the operators agree to rounding; where
    # f does not fit a double (exp(853) on psi = t^2), forward mode's value
    # is not finite and the compiled sympy jets raise
    from psifrac.parser import parse, parse_expr

    symbolic, tree = JetFunction.of_t(parse_expr(spec)), JetFunction.of_t(parse(spec))
    t = psi.a + 0.6 * (psi.b - psi.a)
    for alpha in (0.4, 1.3, 2.6):
        for op in (fo.frac_integral, fo.frac_derivative):
            want = op(tree, psi, alpha, t)
            if not math.isfinite(want):
                with pytest.raises(OverflowError):
                    op(symbolic, psi, alpha, t)
                continue
            got = op(symbolic, psi, alpha, t)
            assert abs(got - want) <= 1e-13 * (1 + abs(want)), (op.__name__, alpha, got, want)


def test_series_terminates_on_polynomials_in_w():
    f = JetFunction.of_t(_w_expr(POWER) ** 3)
    res = fo.frac_derivative_series(f, POWER, 0.5, 1.4, terms=20)
    assert res.tail == 0.0  # exact termination: last computed term vanished


def test_series_tail_reported_for_nonpolynomial():
    f = JetFunction.of_t(sp.exp(T))
    res = fo.frac_derivative_series(f, IDENTITY, 0.5, 1.0, terms=10)
    assert res.tail > 0.0


def test_jet_series_matches_the_binomial_form_bit_for_bit():
    # the series carries the falling product of gen_binom instead of
    # recomputing it per term: the same float operations in the same order
    def reference(jets, nu, w):
        acc = last = 0.0
        for m, d in enumerate(jets):
            last = gen_binom(nu, m) * w ** (m - nu) * rgamma(m + 1 - nu) * d
            acc += last
        return fo.SeriesValue(acc, abs(last))

    tables = ([1.0 / (m + 1) for m in range(31)],
              [(-0.7) ** m * math.sqrt(m + 2) for m in range(31)],
              [3.0 - m for m in range(5)],  # ends early, as at a vanishing jet
              [])
    for jets in tables:
        # at an integer nu > 0 the terms m < nu, at poles of 1/Gamma, are 0
        for nu in (-2.3, -0.5, 0.25, 1.0, 1.5, 2.0, 4.75):
            for w in (0.3, 1.7):
                got = fo.jet_series(jets, nu, w)
                assert repr(got) == repr(reference(jets, nu, w))


def test_jet_series_at_an_integer_order_and_the_lower_limit():
    # at w = 0 the terms m < nu sit at poles of 1/Gamma and are 0, with w
    # never raised to m - nu < 0; the term m = nu is jets[nu] itself
    jets = [1.5, -0.25, 3.0, 0.75, -2.0]
    for nu in (1, 2.0, 4):
        assert fo.jet_series(jets, nu, 0.0).value == jets[int(nu)]
        assert fo.jet_series(jets[:int(nu)], nu, 0.0).value == 0.0


def test_jet_series_divides_by_the_same_factorials_and_gammas():
    # the loop as it was, with math.factorial and rgamma per term: the
    # cached float factorials and the inline 1/Gamma give the same bits,
    # and a list past 171 terms raises where it did (171! is no double)
    def loop(jets, nu, w):
        acc = last = 0.0
        num = 1.0
        pole = float(nu).is_integer()
        for m, d in enumerate(jets):
            if not pole or m >= nu:
                last = num / math.factorial(m) * w ** (m - nu) * rgamma(m + 1 - nu) * d
                acc += last
            num *= nu - m
        return fo.SeriesValue(acc, abs(last))

    def outcome(fn, *args):
        try:
            return repr(fn(*args))
        except ArithmeticError as e:
            return type(e).__name__

    rng = np.random.default_rng(26)
    nus = (-171.5, -40.25, -2.0, -0.5, 0.0, 0.3, 1.0, 1.5, 2.0, 7.75, 170.5, 172.0, 180.25)
    for case in range(2000):
        n = (0, 1, 5, 31, 171, 172, 200)[case % 7]
        jets = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)).tolist()
        nu = nus[case % len(nus)] if case % 3 else float(rng.uniform(-3, 5))
        w = (0.0, 0.25, 1.7, 40.0)[case % 4] if case % 5 else float(rng.uniform(0, 3))
        assert outcome(fo.jet_series, jets, nu, w) == outcome(loop, jets, nu, w), (n, nu, w)


# -- operator laws ----------------------------------------------------------------


def test_semigroup_of_integrals():
    # I^b I^a f = I^{a+b} f, with I^a of the psi-power sum f in closed form
    coeffs = (1.3, 0.8, 0.6)
    quad = fo.QuadratureSpec(256)
    for psi in (IDENTITY, POWER):
        wa = _w_expr(psi)
        f = JetFunction.of_t(sum(c * W**k for k, c in enumerate(coeffs)).subs(W, wa))
        for a_, b_ in ((sp.Rational(7, 10), 0.3), (sp.Rational(1, 2), 1.25)):
            inner = sum(
                c * sp.gamma(k + 1) / sp.gamma(k + 1 + a_) * W ** (k + a_)
                for k, c in enumerate(coeffs)
            )
            inner = JetFunction.of_t(inner.subs(W, wa))
            for t in (psi.a + 0.3 * (psi.b - psi.a), psi.b):
                lhs = fo.frac_integral(inner, psi, b_, t, quad)
                rhs = fo.frac_integral(f, psi, float(a_) + b_, t, quad)
                assert lhs == pytest.approx(rhs, rel=1e-6), (psi.name, a_, t)


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
def test_derivative_exact_at_interval_ends_and_high_order(psi, alpha, where):
    # on the power kernel the order-6 jets of w^(5/2) would cancel
    # catastrophically near t = a if each step multiplied out (t^2 - 1/4)^3
    fw = 1 + W**2 + W ** sp.Rational(5, 2)
    f = JetFunction.of_t(fw.subs(W, _w_expr(psi)))
    t = {"b": psi.b, "a+1e-7": psi.a + 1e-7, "mid": 0.5 * (psi.a + psi.b)}[where]
    w = psi(t) - psi(psi.a)
    want = fo.frac_deriv_psi_powers(fw, alpha, w)
    assert fo.frac_derivative(f, psi, alpha, t) == pytest.approx(want, rel=1e-10)


def test_derivative_needs_jet_function():
    with pytest.raises(DomainError):
        fo.frac_derivative(math.exp, IDENTITY, 0.5, 1.0)


def test_integral_needs_jet_function():
    with pytest.raises(DomainError):
        fo.frac_integral(math.exp, IDENTITY, 0.5, 1.0)


def test_integral_order_below_the_rule_is_a_domain_error():
    # alpha - 1 rounds to -1, the pole of the rule's first moment
    f = JetFunction.of_t(T**2)
    for alpha in (5e-324, 1e-17):
        with pytest.raises(DomainError, match="too small"):
            fo.frac_integral(f, IDENTITY, alpha, 1.0)


@pytest.mark.parametrize("alpha", [0.0, -0.5])
@pytest.mark.parametrize("op", [fo.frac_derivative, fo.frac_derivative_series])
def test_derivative_order_must_be_positive(op, alpha):
    f = JetFunction.of_t(T**2)
    with pytest.raises(DomainError, match="must be positive"):
        op(f, IDENTITY, alpha, 1.0)
