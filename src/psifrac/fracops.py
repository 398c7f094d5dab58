"""psi-Riemann-Liouville fractional integral and derivative.

Two independent backends are provided for each operator:

* quadrature: with V = psi(t) - psi(a) and v = psi(a) + V x, every
  psi-operator becomes an integral over x in [0, 1] of a psi-jet of f
  against the weight (1 - x)^{beta-1}, absorbed into Fejer's first rule
  for that weight: fixed Chebyshev points, with weights from the modified
  moments of the weight (Piessens & Branders, BIT 13, 1973).  The
  integral is the case beta = alpha.  The derivative of order alpha
  (beta = m - alpha) applies (1/psi' d/dt)^m = (d/dV)^m under the
  integral sign, exactly:

      D^{alpha;psi} f(t) = beta sum_{j=0}^{m} C(m, j) V^{j-alpha}
          / Gamma(beta+1-m+j) int_0^1 (1-x)^{beta-1} x^j f^{[j]}_psi(s_x) dx,

  with s_x = psi^{-1}(psi(a) + V x) (Kilbas, Srivastava & Trujillo 2006,
  sec. 2.5).  The nodes s_x and the jet values there depend on (psi, t,
  n) and not on the order: they are kept per point, in numpy arrays
  (:func:`_nodes`, :func:`_node_values`), so every quadrature at t, of
  any order and in the Leibniz and product-integral sums too, shares one
  inversion of psi and one evaluation of each jet per node.  The rule's
  weights are per exponent, computed once while it recurs, and each
  moment is one sequential array sum (:func:`_jacobi_moments`): the
  float operations of a loop over the nodes, in its order, so each value
  is the one that loop gives, with no Python run per node;

* series: the expansion in psi-jet derivatives
  f^{[m]}_psi = (1/psi' d/dt)^m f with generalized binomial coefficients,
  which terminates exactly for polynomials in psi(t) - psi(a).  Its jets
  come by Taylor mode (:func:`psi_jets`): f's expression is compiled once
  into a program over truncated Taylor series in w = psi - psi(t)
  (:mod:`psifrac.taylor`), and the jets at a point are m! times the
  coefficients, with no symbolic differentiation.  Its sum,
  :func:`jet_series`, runs over a list of float jets and is shared with
  the prolongation formulas.

This module owns the psi-jets.  The quadrature backend takes them, up to
order ceil(alpha), at every node at once: for f given as a tree (a parsed
spec), by forward mode (:mod:`psifrac.forward`: truncated Taylor series
in psi(t) - psi(s), vectorised over the nodes s, with t by series
reversion), with no sympy, in one pass through order 2 at least, so
that an integral and a derivative at a point take one pass; for f given
in sympy, symbolically by sympy alone and only to the order asked
(:func:`_psi_jet_expr` builds them with ``sp.diff`` and
:func:`_psi_jet_fn` compiles them, through
:func:`~psifrac.jets.compiled`).  The series backend reads one
Taylor-mode table per point, shared by both series there and by the
Leibniz and product-integral sums; :mod:`psifrac.prolong` builds its
tables by the same Taylor mode.  The two backends share only the
expression of f, and the forward mode shares with Taylor mode only the
tree.

Also here: the product-integral expansion, the Leibniz rule for the
fractional derivative of a product, and the one exact power rule for
power sums in w = psi(t) - psi(a), at a point or on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import forward
from . import tree as tr
from .errors import DomainError, NumericsError
from .jets import JetFunction, compiled, symbol
from .psi import PsiFunction
from .special import gamma, gen_binom, rgamma
from .taylor import program

__all__ = [
    "QuadratureSpec",
    "SeriesValue",
    "psi_jets",
    "psi_deriv_m",
    "frac_integral",
    "frac_integral_series",
    "frac_derivative",
    "frac_derivative_series",
    "frac_op",
    "frac_op_series",
    "jet_series",
    "frac_deriv_psi_powers",
    "leibniz_product",
    "product_integral",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Number of Chebyshev points of Fejer's first rule for the weight
    (1 - y)^{beta-1}, which is singular at the endpoint y = 1."""

    nodes: int = 64

    def __post_init__(self):
        if self.nodes < 4:
            raise DomainError(f"need at least 4 quadrature nodes, got {self.nodes}")


class SeriesValue(NamedTuple):
    value: float
    tail: float


# -- psi-jet derivatives ----------------------------------------------------


@lru_cache(maxsize=16384)
def _psi_jet_expr(f_expr, psi_expr, m: int):
    """(1/psi' d/dt)^m f_expr, in sympy; any symbol other than t is held
    fixed."""
    if m == 0:
        return f_expr
    import sympy as sp

    # distributing products keeps the expression a flat sum, so repeated
    # differentiation stays linear in the term count; a denominator that
    # is a sum stays a product, not a long expanded polynomial
    prev = _psi_jet_expr(f_expr, psi_expr, m - 1)
    t = symbol("t")
    return sp.expand_mul(sp.diff(prev, t) / sp.diff(psi_expr, t))


# one lookup per jet on the hot paths, where _psi_jet_expr and compiled
# would take two
@lru_cache(maxsize=1024)
def _psi_jet_fn(f_expr, psi_expr, m: int):
    """Compiled (1/psi' d/dt)^m f_expr as a function of t."""
    return compiled(_psi_jet_expr(f_expr, psi_expr, m))


def _jets_at(f: JetFunction, psi: PsiFunction, s: np.ndarray, m: int, start: int = 0) -> list:
    """f^{[j]}_psi at each point of the array s, for j = start..m at least:
    a list of arrays.  For f given as a tree, one forward pass takes the
    orders through max(m, 2) (:func:`~psifrac.forward.jets`); for f given
    in sympy each order costs a compile, and only the orders asked for are
    taken."""
    if not isinstance(f, JetFunction):
        raise DomainError("the fractional operators need f as a JetFunction")
    if f.symbolic:
        ts = s.tolist()
        return [np.fromiter(map(_psi_jet_fn(f.expr, psi.expr, j), ts), float, len(ts))
                for j in range(start, m + 1)]
    return forward.jets(f.tree, psi, s, m)[start:]


def _jet_at(f: JetFunction, psi: PsiFunction, t: float, m: int) -> float:
    """f^{[m]}_psi(t), for the quadrature backend's integer orders: the
    bits of the node tables' pass (:func:`_jets_at`)."""
    return float(_jets_at(f, psi, np.array([float(t)]), m, m)[0][0])


# a table is built once per (f, psi, t, n) and read by both series at the
# point and by the Leibniz sums after them; few points are ever revisited
@lru_cache(maxsize=64)
def _jet_table(f: JetFunction, psi: PsiFunction, t: float, n: int) -> tuple:
    prog = program(f.tree, psi.tree)
    # the jets past the degree of f in psi(t) - psi(a) vanish exactly
    top = n if prog.degree is None else min(n, prog.degree)
    return tuple(prog.jets(t, top + 1).tolist()) + (0.0,) * (n - top)


def psi_jets(f: JetFunction, psi: PsiFunction, t: float, n: int) -> list:
    """f^{[m]}_psi(t) for m = 0..n, by Taylor-mode arithmetic: m! times the
    Taylor coefficients of f in w = psi(s) - psi(t) at s = t
    (:mod:`psifrac.taylor`), since (1/psi') d/dt is d/dw.  f's expression
    is compiled once; no sympy runs per point.  The jets past the degree
    of f as a polynomial in psi(t) - psi(a) are exactly 0.0."""
    return list(_table(f, psi, t, n))


def psi_deriv_m(
    f: JetFunction, psi: PsiFunction, t: float, m: int, depth: int = 0
) -> float:
    """f^{[m]}_psi(t) = ((1/psi') d/dt)^m f, read from the table of jets
    0..max(m, depth) at t (:func:`psi_jets`); a caller reading the jets
    0..depth one by one passes depth, so that they share one table."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return _table(f, psi, t, max(m, depth))[m]


def _table(f: JetFunction, psi: PsiFunction, t: float, n: int) -> tuple:
    if not isinstance(f, JetFunction):
        raise DomainError("the psi-jets need f as a JetFunction")
    if n < 0:
        raise ValueError("n must be non-negative")
    return _jet_table(f, psi, float(t), n)


# -- quadrature backend -----------------------------------------------------


@lru_cache(maxsize=16)
def _chebyshev_points(n: int):
    """y_j = cos(theta_j), theta_j = (j + 1/2) pi / n, the same points
    x_j = (y_j + 1)/2 in [0, 1] (a read-only array), the twiddle factors
    (-1)^k exp(i k pi / 2n) that turn the cosine sums over them into one
    FFT, and the moment recurrence's (k, k - 1) as floats, for k = 2..n-1."""
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    y = np.cos(theta)
    ys = tuple(y.tolist())
    xs = 0.5 * (y + 1.0)
    xs.flags.writeable = False
    twiddle = np.exp(0.5j * math.pi / n * np.arange(n))
    twiddle[1::2] = -twiddle[1::2]
    return ys, xs, twiddle, tuple((float(k), float(k - 1)) for k in range(2, n))


# a point's Leibniz and product-integral sums ask for one exponent again
# and again: at most 32 exponents of n floats each, about 20 MB at
# --nodes 20000, the same order as the node tables below
@lru_cache(maxsize=32)
def _jacobi_rule(n: int, a: float):
    """Fejer's first rule for int_{-1}^{1} (1 - y)^a g(y) dy, a > -1: the
    n Chebyshev points (a tuple shared by all calls with this n) and their
    weights (a read-only array); computed once per exponent while it
    recurs, keyed on (n, a) exactly.

    It integrates the interpolant sum_{k<n} c_k T_k of g exactly, so the
    weights are w_j = (2/n) sum_k' M_k cos(k theta_j) (the k = 0 term
    halved), with the modified moments M_k = int (1 - y)^a T_k(y) dy
    (Waldvogel, BIT 46, 2006).  r_k = (-1)^k M_k follows QUADPACK's DQMOMO
    recurrence, which is stable forward; the sign (-1)^k is in the twiddles.
    """
    ys, _, twiddle, ks = _chebyshev_points(n)
    two = 2.0 ** (a + 1.0)
    r = two / (a + 1.0)
    moments = [0.5 * r]
    r *= a / (a + 2.0)
    moments.append(r)
    for k, k1 in ks:
        r = -(two + k * (k - a - 2.0) * r) / (k1 * (k + a + 1.0))
        moments.append(r)
    # sum_k c_k cos(k theta_j) = Re sum_k c_k e^{i k pi / 2n} e^{2 pi i k j / 2n}
    ws = 4.0 * np.fft.ifft(twiddle * moments, 2 * n)[:n].real
    ws.flags.writeable = False
    return ys, ws


# nodes and jet values are kept per point, for every order there: a caller
# takes the integral and the derivative of f at one t, and the Leibniz and
# product-integral sums take up to terms + 1 quadratures of g at that t;
# few points are revisited after that, so small bounds suffice
@lru_cache(maxsize=64)
def _nodes(psi: PsiFunction, t: float, n: int):
    """V = psi(t) - psi(a) and the nodes psi^{-1}(psi(a) + V x_i) of the
    n-point rule at t (x_i from :func:`_chebyshev_points`), a read-only
    array: psi(a) + V x_i is one array expression, and the kernel's inverse
    maps it with the float operations a call per node takes
    (:meth:`~psifrac.psi.PsiFunction.invert`).

    Keyed on the kernel itself: its equality includes the inverse, so two
    kernels that differ only there never share nodes."""
    va = psi(psi.a)
    V = psi(t) - va
    if not V > 0:
        raise NumericsError(f"psi(t) - psi(a) = {V} is not positive")
    nodes = psi.invert(va + V * _chebyshev_points(n)[1])
    nodes.flags.writeable = False
    return V, nodes


@lru_cache(maxsize=128)
def _node_values(f: JetFunction, psi: PsiFunction, t: float, n: int) -> list:
    """The psi-jets of f at the nodes of :func:`_nodes` (psi, t, n) taken so
    far, one array per order 0, 1, ...: every quadrature of f at the point
    reads this one table, and one that needs a higher order extends it
    (:func:`_node_jets`)."""
    return []


def _node_jets(f: JetFunction, psi: PsiFunction, t: float, n: int, m: int) -> list:
    """The table of :func:`_node_values`, holding the orders 0..m at least:
    a forward pass takes the orders through 2 at least (:func:`_jets_at`),
    so an integral and then a derivative there run one pass, not two."""
    table = _node_values(f, psi, t, n)
    if len(table) <= m:
        table += _jets_at(f, psi, _nodes(psi, t, n)[1], m, len(table))
    return table


def _jacobi_moments(
    f: JetFunction, psi: PsiFunction, m: int, beta: float, t: float, quad
):
    """V = psi(t) - psi(a) and, for j = 0..m, the moments
    int_0^1 (1-x)^{beta-1} x^j f^{[j]}_psi(psi^{-1}(psi(a) + V x)) dx, as
    Python floats (numpy 2 prints a numpy scalar as ``np.float64(...)``).

    The nodes and the jet values there are shared by every quadrature at
    the point (:func:`_nodes`, :func:`_node_values`), the weights w_i by
    every one of exponent beta - 1 (computed once while it recurs); only
    the arrays w_i x_i^j, with x_i^j by repeated multiplication, and one
    sum per moment are taken for this order.  Each sum is the loop
    ``acc += c * v`` from acc = 0.0 in node order, bit for bit:
    np.add.accumulate adds left to right, where np.dot, np.sum and
    math.fsum add in another order or exactly, and round otherwise.  So a
    moment's bits do not depend on what the caches held."""
    if not t > psi.a:
        raise DomainError(f"need t > a = {psi.a}, got t={t}")
    if not isinstance(f, JetFunction):
        raise DomainError("the fractional operators need f as a JetFunction")
    t = float(t)
    n = quad.nodes
    V = _nodes(psi, t, n)[0]
    xs = _chebyshev_points(n)[1]
    _, cs = _jacobi_rule(n, beta - 1.0)
    # the rule's weight is (1 - y)^{beta-1} in y = 2x - 1
    scale = 0.5**beta
    out, jets = [], _node_jets(f, psi, t, n, m)[:m + 1]
    # a jet that is not finite at a node (forward mode's inf where f
    # overflows) makes its moment inf or nan, with no warning
    with np.errstate(all="ignore"):
        for j, values in enumerate(jets):
            if j:
                cs = cs * xs
            # + 0.0: a loop from acc = 0.0 turns a sum of -0.0 products into 0.0
            acc = float(np.add.accumulate(cs * values)[-1]) + 0.0
            out.append(acc * scale)
    return V, out


def frac_integral(
    f: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Left-sided fractional integral I^{alpha;psi} f(t), alpha > 0:

    V^alpha / Gamma(alpha) int_0^1 (1-x)^{alpha-1} f(psi^{-1}(psi(a) + V x)) dx,

    V = psi(t) - psi(a).
    """
    alpha = float(order)
    if alpha <= 0:
        raise DomainError(f"integral order must be positive, got {alpha}")
    if alpha - 1.0 == -1.0:
        # the rule's weight exponent alpha - 1 would round to the pole at -1
        raise DomainError(f"integral order {alpha!r} is too small for the quadrature")
    V, (g0,) = _jacobi_moments(f, psi, 0, alpha, t, quad)
    return g0 * V**alpha * rgamma(alpha)


def frac_derivative(
    f: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Left-sided fractional derivative D^{alpha;psi} f(t), quadrature backend.

    (d/dV)^m of I^{m-alpha;psi} f, m = floor(alpha) + 1, taken under the
    integral sign (module docstring): exact in structure at every t in
    (a, b] and every order.  An integer order is the psi-jet of that order.
    """
    alpha = float(order)
    if alpha <= 0:
        raise DomainError(f"fractional order must be positive, got {alpha}")
    if alpha.is_integer():
        return _jet_at(f, psi, t, int(alpha))
    m = math.floor(alpha) + 1
    beta = m - alpha
    V, moments = _jacobi_moments(f, psi, m, beta, t, quad)
    return beta * sum(
        math.comb(m, j) * V ** (j - alpha) * rgamma(beta + 1 - m + j) * g
        for j, g in enumerate(moments)
    )


# -- series backend ---------------------------------------------------------


def jet_series(jets: Sequence[float], nu: float, w: float) -> SeriesValue:
    """sum_m binom(nu, m) w^{m-nu} / Gamma(m+1-nu) jets[m], the jet series
    of D^{nu;psi} (an integral for nu < 0) with w = psi(t) - psi(a).

    jets[m] is the m-th psi-jet at the point; a list that ends early ends
    the sum, as where the next jet vanishes identically.  A term at a pole
    of 1/Gamma (integer nu, m < nu) is 0, so at w = 0 an integer nu >= 0
    gives jets[nu].  The tail estimate is the magnitude of the last term.
    """
    acc = 0.0
    last = 0.0
    num = 1.0  # nu (nu - 1) ... (nu - m + 1), the numerator of gen_binom(nu, m)
    pole = float(nu).is_integer()
    for m, d in enumerate(jets):
        if not pole or m >= nu:  # w ** (m - nu) is not taken at a pole
            x = m + 1 - nu
            # 1/Gamma(x) inline where Gamma(x) is finite and at least 0.88;
            # rgamma at its poles and where Gamma overflows or underflows
            last = (num / (_FACTORIALS[m] if m < len(_FACTORIALS) else math.factorial(m))
                    * w ** (m - nu)
                    * (1.0 / math.gamma(x) if 1.0 <= x <= 171.0 else rgamma(x)) * d)
            acc += last
        num *= nu - m
    return SeriesValue(acc, abs(last))


# m! as floats for m <= 170 (171! overflows a double): a float divided by
# the int m! is divided by the float the int converts to, so the quotient
# is the same; past 170 the int stays, and the division raises as before
_FACTORIALS = tuple(float(math.factorial(m)) for m in range(171))


def frac_op_series(
    f: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    terms: int = 20,
) -> SeriesValue:
    """Series form of D^{nu;psi} f for any real nu (integral for nu < 0):

    sum_m binom(nu, m) (psi(t)-psi(a))^{m-nu} / Gamma(m+1-nu) f^{[m]}_psi(t).

    Terminates exactly when f is polynomial in psi(t) - psi(a).
    """
    if not isinstance(f, JetFunction):
        raise DomainError("series backend needs a JetFunction")
    w = psi(t) - psi(psi.a)
    if not w > 0:
        raise DomainError(f"need t > a, got psi(t)-psi(a) = {w}")
    return jet_series(psi_jets(f, psi, t, terms), float(order), w)


def frac_integral_series(
    f: JetFunction, psi: PsiFunction, order: float, t: float, terms: int = 20
) -> SeriesValue:
    """I^{alpha;psi} f by the jet expansion (alpha > 0)."""
    if order <= 0:
        raise DomainError(f"integral order must be positive, got {order}")
    return frac_op_series(f, psi, -float(order), t, terms)


def frac_derivative_series(
    f: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    terms: int = 20,
) -> SeriesValue:
    """D^{alpha;psi} f by the jet expansion (alpha > 0)."""
    alpha = float(order)
    if alpha <= 0:
        raise DomainError(f"derivative order must be positive, got {alpha}")
    return frac_op_series(f, psi, alpha, t, terms)


def frac_op(
    f: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Signed-order dispatch: derivative for order > 0, identity at 0,
    integral of order -order for order < 0 (quadrature backend)."""
    nu = float(order)
    if nu > 0:
        return frac_derivative(f, psi, nu, t, quad)
    if nu == 0:
        return _jet_at(f, psi, t, 0)
    return frac_integral(f, psi, -nu, t, quad)


# -- exact power rule -------------------------------------------------------


def frac_deriv_psi_powers(expr_in_w, order: float, w, values=None):
    """Exact D^{nu;psi} of a finite sum of powers of w = psi(t) - psi(a),
    at w (a float or an array): the sum of k Gamma(p+1)/Gamma(p+1-nu) c
    w^{p-nu} over the terms k c w^p of :func:`psifrac.tree.power_sum`, in
    its order, a term at a pole of 1/Gamma (w^{nu-1}, nu > 0) left out.

    expr_in_w is a tree, a number or a sympy expression; values holds the
    variables of the coefficients c, as floats or arrays that broadcast
    with w (the determining systems' x and u nodes).  DomainError, before
    any term is evaluated, where it is no sum of integrable powers of w or
    a coefficient holds a variable that values does not.
    """
    if isinstance(expr_in_w, tuple):
        node = expr_in_w
    elif isinstance(expr_in_w, (int, float, Fraction)):
        node = tr.num(expr_in_w)
    else:
        node = tr.from_sympy(expr_in_w)
    try:
        terms = tr.power_sum(node, "w")
    except DomainError:
        raise DomainError(f"{tr.to_text(node)} is no sum of terms c*w**p") from None
    for _, c, p in terms:
        if p <= -1:
            raise DomainError(f"non-integrable power w^{float(p)} in {tr.to_text(node)}")
        missing = tr.names(c) - set(values or ())
        if missing:
            raise DomainError(f"coefficient {tr.to_text(c)} holds {min(missing)}, with no value")
    nu = float(order)
    acc = 0.0
    for k, c, p in terms:
        p = float(p)
        r = rgamma(p + 1.0 - nu)
        if r != 0.0:
            acc = acc + float(k) * gamma(p + 1.0) * r * tr.evaluate(c, values) * w ** (p - nu)
    return acc


# -- product formulas -------------------------------------------------------


def leibniz_product(
    f: JetFunction,
    g: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    terms: int = 10,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Truncated Leibniz rule for the fractional derivative of a product:

    D^{alpha;psi}(fg) = sum_m binom(alpha, m) f^{[m]}_psi D^{alpha-m;psi} g.

    Orders alpha - m < 0 dispatch to the fractional integral of order
    m - alpha.
    """
    alpha = float(order)
    acc = 0.0
    for m in range(terms + 1):
        fm = psi_deriv_m(f, psi, t, m, terms)
        if fm == 0.0:
            continue
        acc += gen_binom(alpha, m) * fm * frac_op(g, psi, alpha - m, t, quad)
    return acc


def product_integral(
    f: JetFunction,
    g: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    terms: int = 10,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Truncated product-integral expansion:

    I^{alpha;psi}(fg) = sum_k binom(-alpha, k) f^{[k]}_psi I^{alpha+k;psi} g.
    """
    alpha = float(order)
    if alpha <= 0:
        raise DomainError(f"integral order must be positive, got {alpha}")
    acc = 0.0
    for k in range(terms + 1):
        fk = psi_deriv_m(f, psi, t, k, terms)
        if fk == 0.0:
            continue
        acc += gen_binom(-alpha, k) * fk * frac_integral(g, psi, alpha + k, t, quad)
    return acc
