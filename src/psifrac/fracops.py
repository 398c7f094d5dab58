"""psi-Riemann-Liouville fractional integral and derivative.

Two independent backends are provided for each operator:

* quadrature: with V = psi(t) - psi(a) and v = psi(a) + V x, every
  psi-operator becomes an integral over x in [0, 1] of a psi-jet of f
  against the weight (1 - x)^{beta-1}, absorbed into one Gauss-Jacobi
  rule.  The integral is the case beta = alpha.  The derivative of order
  alpha (beta = m - alpha) applies (1/psi' d/dt)^m = (d/dV)^m under the
  integral sign, exactly:

      D^{alpha;psi} f(t) = beta sum_{j=0}^{m} C(m, j) V^{j-alpha}
          / Gamma(beta+1-m+j) int_0^1 (1-x)^{beta-1} x^j f^{[j]}_psi(s_x) dx,

  with s_x = psi^{-1}(psi(a) + V x) (Kilbas, Srivastava & Trujillo 2006,
  sec. 2.5); all m + 1 integrals share the nodes and one inversion of psi
  per node;

* series: the expansion in psi-jet derivatives
  f^{[m]}_psi = (1/psi' d/dt)^m f with generalized binomial coefficients,
  which terminates exactly for polynomials in psi(t) - psi(a).

Also here: the product-integral expansion and the Leibniz rule for the
fractional derivative of a product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Union

import sympy as sp
from scipy.special import roots_jacobi

from .errors import DomainError, JetOrderError, NumericsError
from .jets import T, W, JetFunction
from .psi import PsiFunction
from .special import gamma, gen_binom, rgamma

__all__ = [
    "FractionalOrder",
    "QuadratureSpec",
    "SeriesValue",
    "psi_deriv_m",
    "frac_integral",
    "frac_integral_series",
    "frac_derivative",
    "frac_derivative_series",
    "frac_op",
    "frac_op_series",
    "frac_deriv_psi_powers",
    "leibniz_product",
    "product_integral",
]


@dataclass(frozen=True)
class FractionalOrder:
    """Real order alpha > 0 with its integer ceiling m."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise DomainError(f"fractional order must be positive, got {self.alpha}")

    @property
    def is_integer(self) -> bool:
        return float(self.alpha).is_integer()

    @property
    def m(self) -> int:
        # smallest integer strictly greater than alpha for the non-integer
        # branch, alpha itself on the integer branch
        if self.is_integer:
            return int(self.alpha)
        return math.floor(self.alpha) + 1


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Jacobi rule with the weight exponent on the singular endpoint."""

    nodes: int = 64

    def __post_init__(self):
        if self.nodes < 4:
            raise DomainError(f"need at least 4 quadrature nodes, got {self.nodes}")


class SeriesValue(NamedTuple):
    value: float
    tail: float


Func = Union[JetFunction, Callable[[float], float]]

# -- psi-jet derivatives ----------------------------------------------------


@lru_cache(maxsize=16384)
def _psi_jet_expr(f_expr: sp.Expr, psi_expr: sp.Expr, m: int) -> sp.Expr:
    """(1/psi' d/dt)^m f_expr; any symbol other than t is held fixed."""
    if m == 0:
        return f_expr
    # expanding keeps the expression a flat sum, so repeated
    # differentiation stays linear in the term count
    prev = _psi_jet_expr(f_expr, psi_expr, m - 1)
    return sp.expand(sp.diff(prev, T) / sp.diff(psi_expr, T))


@lru_cache(maxsize=4096)
def _psi_jet_fn(f_expr: sp.Expr, psi_expr: sp.Expr, m: int):
    return sp.lambdify(T, _psi_jet_expr(f_expr, psi_expr, m), "math")


def psi_deriv_m(f: JetFunction, psi: PsiFunction, t: float, m: int) -> float:
    """f^{[m]}_psi(t) = ((1/psi') d/dt)^m f, by exact symbolic expansion."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return f(t)
    if f.max_order < m:
        raise JetOrderError(f"jet order {f.max_order} < requested m={m}")
    if psi.has_expr:
        return float(_psi_jet_fn(f.expr, psi.expr, m)(t))
    # callable-backed psi: only low orders are available analytically
    fp = f.partial
    d1 = psi.deriv(t)
    if m == 1:
        return fp((1,), t) / d1
    if m == 2:
        d2 = psi.deriv(t, 2)
        return (fp((2,), t) * d1 - fp((1,), t) * d2) / d1**3
    raise DomainError(
        f"psi '{psi.name}' has no analytic derivatives beyond order 2; m={m}"
    )


# -- quadrature backend -----------------------------------------------------


@lru_cache(maxsize=256)
def _jacobi_rule(n: int, a_exp: float):
    return roots_jacobi(n, a_exp, 0.0)


def _jet_fn(f: Func, psi: PsiFunction, j: int) -> Callable[[float], float]:
    """Compiled f^{[j]}_psi; a plain callable f stands for itself (j = 0)."""
    if not isinstance(f, JetFunction):
        return f
    if j and not psi.has_expr:
        return partial(psi_deriv_m, f, psi, m=j)
    if f.max_order < j:
        raise JetOrderError(f"jet order {f.max_order} < requested m={j}")
    return _psi_jet_fn(f.expr, psi.expr, j)


def _jacobi_moments(f: Func, psi: PsiFunction, m: int, beta: float, t: float, quad):
    """V = psi(t) - psi(a) and, for j = 0..m, the moments
    int_0^1 (1-x)^{beta-1} x^j f^{[j]}_psi(psi^{-1}(psi(a) + V x)) dx."""
    if not t > psi.a:
        raise DomainError(f"need t > a = {psi.a}, got t={t}")
    fns = [_jet_fn(f, psi, j) for j in range(m + 1)]
    va = psi(psi.a)
    V = psi(t) - va
    if not V > 0:
        raise NumericsError(f"psi(t) - psi(a) = {V} is not positive")
    ys, ws = _jacobi_rule(quad.nodes, beta - 1.0)
    acc = [0.0] * (m + 1)
    # python floats: numpy scalar arithmetic would dominate this loop
    for yi, wi in zip(ys.tolist(), ws.tolist()):
        x = 0.5 * (yi + 1.0)
        s = psi.invert(va + V * x)
        c = wi
        for j, fn in enumerate(fns):
            acc[j] += c * fn(s)
            c *= x
    # the rule's weight is (1 - y)^{beta-1} in y = 2x - 1
    scale = 0.5**beta
    return V, [a * scale for a in acc]


def frac_integral(
    f: Func,
    psi: PsiFunction,
    order: float,
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Left-sided fractional integral I^{alpha;psi} f(t), alpha > 0:

    V^alpha / Gamma(alpha) int_0^1 (1-x)^{alpha-1} f(psi^{-1}(psi(a) + V x)) dx,

    V = psi(t) - psi(a).  f may be a plain callable of t.
    """
    alpha = float(order.alpha) if isinstance(order, FractionalOrder) else float(order)
    if alpha <= 0:
        raise DomainError(f"integral order must be positive, got {alpha}")
    V, (g0,) = _jacobi_moments(f, psi, 0, alpha, t, quad)
    return g0 * V**alpha * rgamma(alpha)


def frac_derivative(
    f: JetFunction,
    psi: PsiFunction,
    order: Union[FractionalOrder, float],
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Left-sided fractional derivative D^{alpha;psi} f(t), quadrature backend.

    (d/dV)^m of I^{m-alpha;psi} f, taken under the integral sign (module
    docstring): exact in structure at every t in (a, b] and every order.
    A psi given only by callables supplies jets up to m = 2.
    """
    if not isinstance(f, JetFunction):
        raise DomainError("the fractional derivative needs f as a JetFunction")
    if not isinstance(order, FractionalOrder):
        order = FractionalOrder(float(order))
    if order.is_integer:
        return psi_deriv_m(f, psi, t, order.m)
    m, alpha = order.m, order.alpha
    beta = m - alpha
    V, moments = _jacobi_moments(f, psi, m, beta, t, quad)
    return beta * sum(
        math.comb(m, j) * V ** (j - alpha) * rgamma(beta + 1 - m + j) * g
        for j, g in enumerate(moments)
    )


# -- series backend ---------------------------------------------------------


def frac_op_series(
    f: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    terms: int = 20,
) -> SeriesValue:
    """Series form of D^{nu;psi} f for any real nu (integral for nu < 0):

    sum_m binom(nu, m) (psi(t)-psi(a))^{m-nu} / Gamma(m+1-nu) f^{[m]}_psi(t).

    Terminates exactly when f is polynomial in psi(t) - psi(a); the tail
    estimate is the magnitude of the last computed term.
    """
    if not isinstance(f, JetFunction):
        raise DomainError("series backend needs a JetFunction")
    if f.max_order < terms:
        raise JetOrderError(f"jet order {f.max_order} < requested terms {terms}")
    nu = float(order)
    w = psi(t) - psi(psi.a)
    if not w > 0:
        raise DomainError(f"need t > a, got psi(t)-psi(a) = {w}")
    acc = 0.0
    last = 0.0
    for m in range(terms + 1):
        last = gen_binom(nu, m) * w ** (m - nu) * rgamma(m + 1 - nu) * psi_deriv_m(
            f, psi, t, m
        )
        acc += last
    return SeriesValue(acc, abs(last))


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
    order: Union[FractionalOrder, float],
    t: float,
    terms: int = 20,
) -> SeriesValue:
    """D^{alpha;psi} f by the jet expansion (alpha > 0)."""
    alpha = order.alpha if isinstance(order, FractionalOrder) else float(order)
    if alpha <= 0:
        raise DomainError(f"derivative order must be positive, got {alpha}")
    return frac_op_series(f, psi, alpha, t, terms)


def frac_op(
    f: Func,
    psi: PsiFunction,
    order: float,
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Signed-order dispatch: derivative for order > 0, identity at 0,
    integral of order -order for order < 0 (quadrature backend)."""
    nu = float(order)
    if nu > 0:
        return frac_derivative(f, psi, FractionalOrder(nu), t, quad)
    if nu == 0:
        return float(_jet_fn(f, psi, 0)(t))
    return frac_integral(f, psi, -nu, t, quad)


# -- exact power rule -------------------------------------------------------


def frac_deriv_psi_powers(expr_in_w: sp.Expr, order: float, w: float) -> float:
    """Exact D^{nu;psi} of a finite sum of powers c * (psi(t)-psi(a))^p.

    Power rule: D^{nu;psi} w^p = Gamma(p+1)/Gamma(p+1-nu) w^{p-nu}, with
    the reciprocal gamma vanishing at poles (so w^{nu-1} maps to 0 for
    positive nu).  Raises DomainError when the expression is not a power
    sum in w.
    """
    nu = float(order)
    e = sp.expand(sp.sympify(expr_in_w))
    if e == 0:
        return 0.0
    acc = 0.0
    for term in e.as_ordered_terms():
        c, p = _match_power(term)
        if p <= -1:
            raise DomainError(f"non-integrable power w^{p} in {expr_in_w}")
        acc += float(c) * gamma(p + 1.0) * rgamma(p + 1.0 - nu) * w ** (p - nu)
    return acc


def _match_power(term: sp.Expr):
    poly = term.as_independent(W)
    c, rest = poly
    if rest == 1:
        return float(c), 0.0
    if rest == W:
        return float(c), 1.0
    if rest.is_Pow and rest.base == W and rest.exp.is_number:
        return float(c), float(rest.exp)
    raise DomainError(f"term {term} is not of the form c*w**p")


# -- product formulas -------------------------------------------------------


def leibniz_product(
    f: JetFunction,
    g: JetFunction,
    psi: PsiFunction,
    order: Union[FractionalOrder, float],
    t: float,
    terms: int = 10,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Truncated Leibniz rule for the fractional derivative of a product:

    D^{alpha;psi}(fg) = sum_m binom(alpha, m) f^{[m]}_psi D^{alpha-m;psi} g.

    Orders alpha - m < 0 dispatch to the fractional integral of order
    m - alpha.
    """
    alpha = order.alpha if isinstance(order, FractionalOrder) else float(order)
    if f.max_order < terms:
        raise JetOrderError(f"jet order {f.max_order} < requested terms {terms}")
    acc = 0.0
    for m in range(terms + 1):
        fm = psi_deriv_m(f, psi, t, m)
        if fm == 0.0:
            continue
        acc += gen_binom(alpha, m) * fm * frac_op(g, psi, alpha - m, t, quad)
    return acc


def product_integral(
    f: JetFunction,
    g: Func,
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
    if f.max_order < terms:
        raise JetOrderError(f"jet order {f.max_order} < requested terms {terms}")
    acc = 0.0
    for k in range(terms + 1):
        fk = psi_deriv_m(f, psi, t, k)
        if fk == 0.0:
            continue
        acc += gen_binom(-alpha, k) * fk * frac_integral(g, psi, alpha + k, t, quad)
    return acc
