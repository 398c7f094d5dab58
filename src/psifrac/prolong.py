"""Infinitesimal prolongation of fractional order.

Evaluates, at a point (x, t) on a given solution jet, the coefficients a
vector field xi d/dx + tau d/dt + eta d/du acquires when extended to act
on derivatives of u: the integer x-prolongations eta^(i), the psi-time
prolongations eta^(m;psi), and the full alpha-th order coefficient
eta^(alpha;psi) together with its two correction terms mu (nonlinearity
of eta in u) and omega (moving lower limit when tau does not vanish at
t = a).

All chain-rule expansions are exact sympy manipulations along the jet;
fractional pieces use the terminating jet series from fracops, except
omega, which is the difference of two quadrature derivatives:
D^{alpha;psi} D_t^{1;psi} u - D^{alpha+1;psi} u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import sympy as sp

from .errors import DomainError
from .fracops import (
    FractionalOrder,
    QuadratureSpec,
    SeriesValue,
    _psi_jet_expr,
    frac_derivative,
    frac_op_series,
)
from .jets import T, U, W, X, JetFunction, SolutionJet
from .psi import PsiFunction
from .special import gen_binom, rgamma

__all__ = [
    "Infinitesimals",
    "ReducedInfinitesimals",
    "total_frac_deriv",
    "eta_integer",
    "eta_m_psi",
    "mu_term",
    "omega_commutator",
    "omega_term",
    "eta_alpha_psi",
    "eta_alpha_psi_compact",
]


@dataclass(frozen=True)
class Infinitesimals:
    """Vector field coefficients xi, tau, eta as functions of (x, t, u)."""

    xi: JetFunction
    tau: JetFunction
    eta: JetFunction

    @classmethod
    def from_exprs(cls, xi, tau, eta, max_order: int = 12) -> "Infinitesimals":
        return cls(
            JetFunction.of_xtu(xi, max_order),
            JetFunction.of_xtu(tau, max_order),
            JetFunction.of_xtu(eta, max_order),
        )

    def tau_tilde(self, x: float, a: float, u_at_a: float) -> float:
        """tau restricted to the lower limit t = a."""
        return self.tau(x, a, u_at_a)


@dataclass(frozen=True)
class ReducedInfinitesimals:
    """Generator in the a-priori shape admitted by fractional evolution
    equations: xi = xi(x), tau with psi-component c0 + c1 w + c2 w^2 for
    w = psi(t) - psi(a), and eta = theta(x) u + rho(x, w), plus the
    gamma = (alpha-1)/2 contribution to eta when c2 != 0.

    tau coefficients are stated in psi-units (the component on d/dpsi);
    the t-component is (c0 + c1 w + c2 w^2) / psi'(t).
    """

    alpha: float
    xi: JetFunction  # function of x
    c0: float
    c1: float
    c2: float
    theta: JetFunction  # function of x
    rho: JetFunction  # function of (x, w)
    label: str = ""

    def __post_init__(self):
        if self.xi.vars != (X,):
            raise DomainError("xi must be a function of x alone")
        if self.theta.vars != (X,):
            raise DomainError("theta must be a function of x alone")
        if self.rho.vars != (X, W):
            raise DomainError("rho must be a function of (x, w)")

    @property
    def gamma_flag(self) -> bool:
        return self.c2 != 0.0

    @property
    def gamma(self) -> float:
        return 0.5 * (self.alpha - 1.0)

    def tau_psi(self, w: float) -> float:
        return self.c0 + self.c1 * w + self.c2 * w * w

    def dtau_psi(self, w: float) -> float:
        """D_t^{1;psi} of tau, a polynomial identity in w."""
        return self.c1 + 2.0 * self.c2 * w

    def tau_tilde(self, psi: PsiFunction) -> float:
        """tau in t-units at t = a: c0 / psi'(a)."""
        return self.c0 / psi.deriv(psi.a)

    def eta_expr(self, psi: PsiFunction) -> sp.Expr:
        w = psi.expr - psi.expr.subs(T, psi.a)
        e = self.theta.expr * U + self.rho.expr.subs(W, w)
        if self.gamma_flag:
            e = e + self.gamma * (2 * self.c2 * w + self.c1) * U
        return e

    def to_general(self, psi: PsiFunction, max_order: int = 12) -> Infinitesimals:
        if not psi.has_expr:
            raise DomainError("reduced form needs a symbolic psi")
        w = psi.expr - psi.expr.subs(T, psi.a)
        tau_t = (self.c0 + self.c1 * w + self.c2 * w**2) / sp.diff(psi.expr, T)
        return Infinitesimals(
            JetFunction.of_xtu(self.xi.expr, max_order),
            JetFunction.of_xtu(sp.simplify(tau_t), max_order),
            JetFunction.of_xtu(sp.expand(self.eta_expr(psi)), max_order),
        )


# -- exact chain-rule machinery ----------------------------------------------

# the benchmark's tests (bench/test_bench.py) reset this cache by its former
# name; it is the fracops recurrence, not a copy
_dt_expr = _psi_jet_expr


@lru_cache(maxsize=16384)
def _fn_xt(expr: sp.Expr):
    return sp.lambdify((X, T), expr, "math")


@lru_cache(maxsize=16384)
def _fn_xtu(expr: sp.Expr):
    return sp.lambdify((X, T, U), expr, "math")


def _series_xt(
    expr: sp.Expr, psi: PsiFunction, nu: float, x: float, t: float, terms: int
) -> float:
    """sum_m binom(nu,m) w^{m-nu}/Gamma(m+1-nu) D_t^{m;psi} expr at (x,t),
    for expr in (x, t) fully composed along the solution."""
    w = psi(t) - psi(psi.a)
    acc = 0.0
    for m in range(terms + 1):
        d = _psi_jet_expr(expr, psi.expr, m)
        if d == 0:
            break
        acc += gen_binom(nu, m) * w ** (m - nu) * rgamma(m + 1 - nu) * _fn_xt(d)(x, t)
    return acc


def _series_frozen_u(
    expr: sp.Expr,
    psi: PsiFunction,
    nu: float,
    x: float,
    t: float,
    uval: float,
    terms: int,
) -> float:
    """Fractional partial t-series of expr(x, t, u) with u held fixed."""
    w = psi(t) - psi(psi.a)
    acc = 0.0
    for m in range(terms + 1):
        d = _psi_jet_expr(expr, psi.expr, m)
        if d == 0:
            break
        acc += (
            gen_binom(nu, m)
            * w ** (m - nu)
            * rgamma(m + 1 - nu)
            * _fn_xtu(d)(x, t, uval)
        )
    return acc


def _compose(f: JetFunction, jet: SolutionJet) -> sp.Expr:
    """Substitute u(x, t) for the u slot, yielding an expression in (x, t)."""
    return sp.expand(f.expr.subs(U, jet.expr))


def _require_expr(psi: PsiFunction):
    if not psi.has_expr:
        raise DomainError(f"prolongation needs a symbolic psi, got '{psi.name}'")


# -- operations ---------------------------------------------------------------


def total_frac_deriv(
    f: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    terms: int = 20,
) -> SeriesValue:
    """Fractional total derivative of a function already composed along the
    solution (a JetFunction of t): the jet series of D^{alpha;psi} where
    every D_t^{m;psi} is a total derivative.  Negative orders give the
    corresponding integral series."""
    return frac_op_series(f, psi, order, t, terms)


def eta_integer(
    i: int, inf: Infinitesimals, jet: SolutionJet, x: float, t: float
) -> float:
    """Integer x-prolongation coefficient
    eta^(i) = D_x^i(eta - xi u_x - tau u_t) + xi u_{(i+1)x} + tau u_{ix,t}."""
    if i < 1:
        raise DomainError(f"prolongation order must be >= 1, got {i}")
    uexpr = jet.expr
    xi_c = inf.xi.expr.subs(U, uexpr)
    tau_c = inf.tau.expr.subs(U, uexpr)
    q = (
        inf.eta.expr.subs(U, uexpr)
        - xi_c * sp.diff(uexpr, X)
        - tau_c * sp.diff(uexpr, T)
    )
    e = (
        sp.diff(q, X, i)
        + xi_c * sp.diff(uexpr, X, i + 1)
        + tau_c * sp.diff(sp.diff(uexpr, T), X, i)
    )
    return float(_fn_xt(sp.expand(e))(x, t))


def eta_m_psi(
    m: int,
    inf: Infinitesimals,
    jet: SolutionJet,
    psi: PsiFunction,
    x: float,
    t: float,
) -> float:
    """psi-time prolongation coefficient
    eta^(m;psi) = D_t^{m;psi}(eta - xi u_x - tau u_t)
                  + xi D_t^{m;psi} u_x + tau D_t^{m+1;psi} u."""
    _require_expr(psi)
    if m < 0:
        raise DomainError(f"m must be non-negative, got {m}")
    uexpr = jet.expr
    xi_c = inf.xi.expr.subs(U, uexpr)
    tau_c = inf.tau.expr.subs(U, uexpr)
    q = sp.expand(
        inf.eta.expr.subs(U, uexpr)
        - xi_c * sp.diff(uexpr, X)
        - tau_c * sp.diff(uexpr, T)
    )
    ux = sp.diff(uexpr, X)
    e = (
        _psi_jet_expr(q, psi.expr, m)
        + xi_c * _psi_jet_expr(sp.expand(ux), psi.expr, m)
        + tau_c * _psi_jet_expr(sp.expand(uexpr), psi.expr, m + 1)
    )
    return float(_fn_xt(sp.expand(e))(x, t))


def mu_term(
    inf: Infinitesimals,
    jet: SolutionJet,
    psi: PsiFunction,
    order: Union[FractionalOrder, float],
    x: float,
    t: float,
    M: int = 10,
) -> float:
    """Quadruple-sum correction accounting for nonlinearity of eta in u:

    mu = sum_{m=2}^{M} sum_{n=2}^{m} sum_{k=2}^{n} sum_{r=0}^{k-1}
         binom(alpha,m) C(m,n) C(k,r) / k! * w^{m-alpha}/Gamma(m+1-alpha)
         * (-u)^r * D_t^{n;psi}(u^{k-r}) * D_t^{m-n;psi}(d^k eta / du^k),

    where the last factor is a partial t-derivative (u held fixed).
    Vanishes identically when eta is linear in u.
    """
    _require_expr(psi)
    alpha = order.alpha if isinstance(order, FractionalOrder) else float(order)
    w = psi(t) - psi(psi.a)
    uexpr = jet.expr
    uval = float(_fn_xt(uexpr)(x, t))
    # u-partials of eta; the sum over k stops once they vanish identically
    eta_k = {}
    kmax = 1
    for k in range(2, M + 1):
        d = sp.expand(sp.diff(inf.eta.expr, U, k))
        if d == 0:
            break
        eta_k[k] = d
        kmax = k
    if not eta_k:
        return 0.0
    acc = 0.0
    for m in range(2, M + 1):
        cm = gen_binom(alpha, m) * w ** (m - alpha) * rgamma(m + 1 - alpha)
        for n in range(2, m + 1):
            cn = cm * math.comb(m, n)
            for k in range(2, min(n, kmax) + 1):
                ek = _psi_jet_expr(eta_k[k], psi.expr, m - n)
                if ek == 0:
                    continue
                ekv = _fn_xtu(ek)(x, t, uval)
                for r in range(k):
                    un = _psi_jet_expr(sp.expand(uexpr ** (k - r)), psi.expr, n)
                    acc += (
                        cn
                        * math.comb(k, r)
                        / math.factorial(k)
                        * (-uval) ** r
                        * _fn_xt(un)(x, t)
                        * ekv
                    )
    return acc


def omega_commutator(
    u: JetFunction,
    psi: PsiFunction,
    order: Union[FractionalOrder, float],
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """(D^{alpha;psi} D_t^{1;psi} - D_t^{1;psi} D^{alpha;psi}) u at t.

    For Riemann-Liouville operators D_t^{1;psi} D^{alpha;psi} = D^{alpha+1;psi},
    so the commutator is the difference of two quadrature derivatives; it
    equals -u(a) w^{-alpha-1} / Gamma(-alpha) for w = psi(t) - psi(a), and
    vanishes for integer alpha."""
    _require_expr(psi)
    alpha = order.alpha if isinstance(order, FractionalOrder) else float(order)
    if float(alpha).is_integer():
        return 0.0
    u1 = JetFunction.of_t(_psi_jet_expr(u.expr, psi.expr, 1), max_order=u.max_order)
    return frac_derivative(u1, psi, alpha, t, quad) - frac_derivative(
        u, psi, alpha + 1.0, t, quad
    )


def omega_term(
    inf: Union[Infinitesimals, ReducedInfinitesimals],
    u: JetFunction,
    psi: PsiFunction,
    order: Union[FractionalOrder, float],
    x: float,
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Lower-limit correction omega = psi'(a) tau~ [D^{alpha;psi}, D_t^{1;psi}] u,
    tau~ = tau at t = a.  Exactly zero when tau~ = 0 (the commutator is
    never evaluated in that case)."""
    if isinstance(inf, ReducedInfinitesimals):
        tau_tilde = inf.tau_tilde(psi)
    else:
        tau_tilde = inf.tau_tilde(x, psi.a, u(psi.a))
    if tau_tilde == 0.0:
        return 0.0
    return psi.deriv(psi.a) * tau_tilde * omega_commutator(u, psi, order, t, quad)


def eta_alpha_psi(
    inf: Infinitesimals,
    jet: SolutionJet,
    psi: PsiFunction,
    order: Union[FractionalOrder, float],
    x: float,
    t: float,
    terms: int = 12,
    quad: QuadratureSpec = QuadratureSpec(),
    include_omega: bool = True,
) -> float:
    """Full alpha-th order prolongation coefficient, expanded form:

    eta^(alpha;psi) = (partial fractional t-derivative of eta, u fixed)
      + [eta_u - alpha D_t^{1;psi} tau] D^{alpha;psi} u
      - u D^{alpha;psi}(eta_u, u fixed)
      - sum_{m>=1} binom(alpha,m) D_t^{m;psi}(xi) D^{alpha-m;psi}(u_x)
      + sum_{m>=1} [binom(alpha,m) D_t^{m;psi}(eta_u)
                    - binom(alpha,m+1) D_t^{m+1;psi}(tau)] D^{alpha-m;psi}(u)
      + mu + omega.

    D_t^{m;psi} of xi, tau, eta_u are total derivatives along the
    solution; negative orders alpha - m are integral-series terms.
    """
    _require_expr(psi)
    alpha = order.alpha if isinstance(order, FractionalOrder) else float(order)
    uexpr = jet.expr
    ux = sp.expand(sp.diff(uexpr, X))
    uval = float(_fn_xt(uexpr)(x, t))
    xi_c = sp.expand(inf.xi.expr.subs(U, uexpr))
    tau_c = sp.expand(inf.tau.expr.subs(U, uexpr))
    etau = sp.expand(sp.diff(inf.eta.expr, U))
    etau_c = sp.expand(etau.subs(U, uexpr))

    acc = _series_frozen_u(inf.eta.expr, psi, alpha, x, t, uval, terms)
    d_alpha_u = _series_xt(sp.expand(uexpr), psi, alpha, x, t, terms)
    dtau1 = _fn_xt(_psi_jet_expr(tau_c, psi.expr, 1))(x, t)
    acc += (_fn_xtu(etau)(x, t, uval) - alpha * dtau1) * d_alpha_u
    acc -= uval * _series_frozen_u(etau, psi, alpha, x, t, uval, terms)
    for m in range(1, terms + 1):
        xim = _psi_jet_expr(xi_c, psi.expr, m)
        if xim != 0:
            acc -= (
                gen_binom(alpha, m)
                * _fn_xt(xim)(x, t)
                * _series_xt(ux, psi, alpha - m, x, t, terms)
            )
        cm = gen_binom(alpha, m) * _fn_xt(_psi_jet_expr(etau_c, psi.expr, m))(x, t)
        cm -= gen_binom(alpha, m + 1) * _fn_xt(_psi_jet_expr(tau_c, psi.expr, m + 1))(x, t)
        if cm != 0.0:
            acc += cm * _series_xt(sp.expand(uexpr), psi, alpha - m, x, t, terms)
    acc += mu_term(inf, jet, psi, alpha, x, t, M=terms)
    if include_omega:
        u_t = JetFunction.of_t(uexpr.subs(X, x), max_order=40)
        acc += omega_term(inf, u_t, psi, alpha, x, t, quad)
    return acc


def eta_alpha_psi_compact(
    inf: Infinitesimals,
    jet: SolutionJet,
    psi: PsiFunction,
    order: Union[FractionalOrder, float],
    x: float,
    t: float,
    terms: int = 12,
    quad: QuadratureSpec = QuadratureSpec(),
    include_omega: bool = True,
) -> float:
    """Compact form of the alpha-th prolongation coefficient, valid when
    eta is linear in u:

    D^{alpha;psi}(eta - xi u_x - tau u_t) + xi D^{alpha;psi} u_x
      + tau psi'(t) D^{alpha+1;psi} u + omega,

    with the leading term a fractional total derivative along the jet.
    """
    _require_expr(psi)
    alpha = order.alpha if isinstance(order, FractionalOrder) else float(order)
    uexpr = jet.expr
    ux = sp.expand(sp.diff(uexpr, X))
    ut = sp.diff(uexpr, T)
    xi_c = inf.xi.expr.subs(U, uexpr)
    tau_c = inf.tau.expr.subs(U, uexpr)
    q = sp.expand(inf.eta.expr.subs(U, uexpr) - xi_c * ux - tau_c * ut)
    acc = _series_xt(q, psi, alpha, x, t, terms)
    acc += _fn_xt(sp.expand(xi_c))(x, t) * _series_xt(ux, psi, alpha, x, t, terms)
    acc += (
        _fn_xt(sp.expand(tau_c))(x, t)
        * psi.deriv(t)
        * _series_xt(sp.expand(uexpr), psi, alpha + 1.0, x, t, terms)
    )
    if include_omega:
        u_t = JetFunction.of_t(uexpr.subs(X, x), max_order=40)
        acc += omega_term(inf, u_t, psi, alpha, x, t, quad)
    return acc
