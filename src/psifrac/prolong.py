"""Infinitesimal prolongation of fractional order.

Evaluates, at a point (x, t) on a given solution jet, the coefficients a
vector field xi d/dx + tau d/dt + eta d/du acquires when extended to act
on derivatives of u: the integer x-prolongations eta^(i), the psi-time
prolongations eta^(m;psi), and the full alpha-th order coefficient
eta^(alpha;psi) together with its two correction terms mu (nonlinearity
of eta in u) and omega (moving lower limit when tau does not vanish at
t = a).  eta^(m;psi) is the compact form of eta^(alpha;psi) at the
integer order alpha = m, where it holds for any eta.

All chain-rule expansions are exact sympy manipulations along the jet,
done before any sum: each factor becomes a table of its float psi-jets at
the point, by Taylor mode (:func:`_jets`, :mod:`psifrac.taylor`, the
engine of the series backend), and the sums run over those tables; no
table is differentiated symbolically.  Every first derivative (eta_u, the
u-derivatives of mu, u_x and u_t of the characteristic) comes from
:func:`psifrac.jets.diff`: it is taken once per shape of the generator
and jet, the numbers put back, and equals sp.diff's bit for bit, so a
second generator of the same shape is not differentiated again.
Fractional pieces use the terminating jet series
:func:`~psifrac.fracops.jet_series`, and omega is in closed form, so no
prolongation runs a quadrature; :func:`omega_commutator`, the quadrature
D^{alpha;psi} D_t^{1;psi} u - D^{alpha+1;psi} u, is its reference.

A reduced generator and its general form (:meth:`ReducedInfinitesimals.to_general`)
are trees (:mod:`psifrac.tree`), and the determining systems read them
without sympy; sympy is imported by the prolongation itself, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from . import tree as tr
from .errors import DomainError
from .fracops import QuadratureSpec, _psi_jet_expr, frac_derivative, jet_series
from .jets import JetFunction, SolutionJet, compiled, diff
from .psi import PsiFunction
from .special import gen_binom, rgamma
from .taylor import program
from .tree import from_sympy

__all__ = [
    "Infinitesimals",
    "ReducedInfinitesimals",
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
    def from_exprs(cls, xi, tau, eta) -> "Infinitesimals":
        return cls(*(JetFunction.of_xtu(e) for e in (xi, tau, eta)))


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

    def __post_init__(self):
        if self.xi.names != ("x",):
            raise DomainError("xi must be a function of x alone")
        if self.theta.names != ("x",):
            raise DomainError("theta must be a function of x alone")
        if self.rho.names != ("x", "w"):
            raise DomainError("rho must be a function of (x, w)")

    @property
    def gamma(self) -> float:
        """(alpha - 1)/2 when c2 != 0, else 0."""
        return 0.5 * (self.alpha - 1.0) if self.c2 != 0.0 else 0.0

    def tau_tilde(self, psi: PsiFunction) -> float:
        """tau in t-units at t = a: c0 / psi'(a)."""
        return self.c0 / psi.deriv(psi.a)

    def _eta(self, w: tuple) -> tuple:
        """eta as a tree in x, t and u, for w the tree of psi(t) - psi(a)."""
        u = tr.U
        return tr.add(tr.mul(self.theta.tree, u), tr.subs(self.rho.tree, "w", w),
                      tr.mul(tr.num(self.gamma), tr.add(tr.mul(tr.num(2 * self.c2), w),
                                                       tr.num(self.c1)), u))

    def eta_expr(self, psi: PsiFunction):
        """eta in sympy."""
        return tr.to_sympy(self._eta(psi.shifted))

    def to_general(self, psi: PsiFunction) -> Infinitesimals:
        """The same generator as (xi, tau, eta) in t-units, as trees.

        tau is (c0 + c1 w + c2 w^2) / psi'(t), with the division left out
        where psi' is 1, as on psi = t, and no term whose coefficient is 0,
        so that its t-derivatives end by structure where a polynomial's do."""
        w = psi.shifted
        tau = tr.add(tr.num(self.c0), tr.mul(tr.num(self.c1), w),
                     tr.mul(tr.num(self.c2), tr.power(w, tr.num(2))))
        tau = tr.mul(tau, tr.power(tr.diff(psi.tree, "t"), tr.num(-1)))
        return Infinitesimals.from_exprs(self.xi.source, tau, self._eta(w))


# -- jets along a solution ----------------------------------------------------

# the benchmark's tests (bench/test_bench.py) reset these caches by their
# former names; they are the fracops recurrence and the shared compile cache
_dt_expr = _psi_jet_expr
_fn_xt = _fn_xtu = compiled


def _jets(expr, psi: PsiFunction, upto: int, x: float, t: float, *u) -> list:
    """The psi-jets 0..upto of expr at (x, t), as floats, for expr in (x, t)
    fully composed along the solution or, with u given, in (x, t, u) with
    u held fixed.  The jets come by Taylor mode, from one program per
    expression that takes x (and u) as run-time inputs
    (:func:`psifrac.taylor.program`, through the tree of expr).  The list ends at the degree of expr
    in psi(t) - psi(a), past which every jet vanishes exactly; an
    expression that is 0 gives []."""
    prog = program(from_sympy(expr), psi.tree, ("x", "u") if u else ("x",))
    if prog.constant == 0.0:
        return []
    top = upto if prog.degree is None else min(upto, prog.degree)
    return prog.jets(t, top + 1, x, *u).tolist()


def _nth(jets: list, m: int) -> float:
    """jets[m] of a table from :func:`_jets`; 0 past its end."""
    return jets[m] if m < len(jets) else 0.0


def _characteristic(inf: Infinitesimals, uexpr):
    """xi and tau along the solution, and the characteristic
    Q = eta - xi u_x - tau u_t, each expanded."""
    import sympy as sp

    from .jets import T, U, X

    xi_c = sp.expand(inf.xi.expr.subs(U, uexpr))
    tau_c = sp.expand(inf.tau.expr.subs(U, uexpr))
    q = sp.expand(
        inf.eta.expr.subs(U, uexpr)
        - xi_c * diff(uexpr, X)
        - tau_c * diff(uexpr, T)
    )
    return xi_c, tau_c, q


# -- operations ---------------------------------------------------------------


def eta_integer(
    i: int, inf: Infinitesimals, jet: SolutionJet, x: float, t: float
) -> float:
    """Integer x-prolongation coefficient
    eta^(i) = D_x^i(eta - xi u_x - tau u_t) + xi u_{(i+1)x} + tau u_{ix,t}."""
    if i < 1:
        raise DomainError(f"prolongation order must be >= 1, got {i}")
    import sympy as sp

    from .jets import T, X

    uexpr = jet.expr
    xi_c, tau_c, q = _characteristic(inf, uexpr)
    e = (
        sp.diff(q, X, i)
        + xi_c * sp.diff(uexpr, X, i + 1)
        + tau_c * sp.diff(diff(uexpr, T), X, i)
    )
    return JetFunction.of_xt(sp.expand(e))(x, t)


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
                  + xi D_t^{m;psi} u_x + tau psi'(t) D_t^{m+1;psi} u,

    the last term being tau d/dt D_t^{m;psi} u; at m = 0 it is eta.  It
    is the compact form at the integer order m, for any eta."""
    if m < 0:
        raise DomainError(f"m must be non-negative, got {m}")
    return eta_alpha_psi_compact(inf, jet, psi, m, x, t, terms=m + 1)


def mu_term(
    inf: Infinitesimals,
    jet: SolutionJet,
    psi: PsiFunction,
    order: float,
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
    import sympy as sp

    from .jets import U

    alpha = float(order)
    w = psi(t) - psi(psi.a)
    uexpr = jet.expr
    # u-partials of eta, each one derivative from the order before; the sum
    # over k stops once they vanish identically
    eta_k = {}
    d = diff(inf.eta.expr, U)
    for k in range(2, M + 1):
        d = sp.expand(diff(d, U))
        if d == 0:
            break
        eta_k[k] = d
    if not eta_k:
        return 0.0
    kmax = max(eta_k)
    # the jet tables: psi-jets of u^j, t-partials of eta_k with u fixed
    upow = {j: _jets(sp.expand(uexpr**j), psi, M, x, t) for j in range(1, kmax + 1)}
    uval = _nth(upow[1], 0)
    ek = {k: _jets(d, psi, M - 2, x, t, uval) for k, d in eta_k.items()}
    acc = 0.0
    for m in range(2, M + 1):
        cm = gen_binom(alpha, m) * w ** (m - alpha) * rgamma(m + 1 - alpha)
        for n in range(2, m + 1):
            cn = cm * math.comb(m, n)
            for k in range(2, min(n, kmax) + 1):
                if m - n >= len(ek[k]):
                    continue
                ekv = ek[k][m - n]
                for r in range(k):
                    acc += (
                        cn
                        * math.comb(k, r)
                        / math.factorial(k)
                        * (-uval) ** r
                        * _nth(upow[k - r], n)
                        * ekv
                    )
    return acc


def omega_commutator(
    u: JetFunction,
    psi: PsiFunction,
    order: float,
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """(D^{alpha;psi} D_t^{1;psi} - D_t^{1;psi} D^{alpha;psi}) u at t.

    For Riemann-Liouville operators D_t^{1;psi} D^{alpha;psi} = D^{alpha+1;psi},
    so the commutator is the difference of two quadrature derivatives; it
    equals -u(a) w^{-alpha-1} / Gamma(-alpha) for w = psi(t) - psi(a), the
    closed form of :func:`omega_term`, which is tested against it."""
    alpha = float(order)
    if alpha.is_integer():
        return 0.0
    u1 = JetFunction.of_t(_psi_jet_expr(u.expr, psi.expr, 1))
    return frac_derivative(u1, psi, alpha, t, quad) - frac_derivative(
        u, psi, alpha + 1.0, t, quad
    )


def omega_term(
    inf: Union[Infinitesimals, ReducedInfinitesimals],
    u: JetFunction,
    psi: PsiFunction,
    order: float,
    x: float,
    t: float,
) -> float:
    """Lower-limit correction omega = psi'(a) tau~ [D^{alpha;psi}, D_t^{1;psi}] u,
    tau~ = tau at t = a, in closed form: -psi'(a) tau~ u(a) w^{-alpha-1} / Gamma(-alpha).
    tau and u, of t or of (x, t), are read at (x, a) by one-term Taylor programs
    on psi = t, in psi(a)'s floats: a pole of u at a is an error, 0^p (p > 0) is 0.
    Exactly zero at an integer order, where tau~ is not read, and when tau~ = 0."""
    alpha = float(order)
    if alpha.is_integer():
        return 0.0

    def at_a(f: JetFunction, *u_a: float) -> float:  # f at (x, a), with u = u_a if given
        prog = program(f.tree, tr.T, ("x", "u")[:1 + len(u_a)])
        return float(prog.series(psi.a, 1, x, *u_a)[0])

    u_a = None if isinstance(inf, ReducedInfinitesimals) else at_a(u)
    tau_tilde = inf.tau_tilde(psi) if u_a is None else at_a(inf.tau, u_a)
    if tau_tilde == 0.0:
        return 0.0
    u_a = at_a(u) if u_a is None else u_a
    w = psi(t) - psi(psi.a)
    return psi.deriv(psi.a) * (-tau_tilde * u_a * w ** (-alpha - 1.0) * rgamma(-alpha))


def eta_alpha_psi(
    inf: Infinitesimals,
    jet: SolutionJet,
    psi: PsiFunction,
    order: float,
    x: float,
    t: float,
    terms: int = 12,
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
    import sympy as sp

    from .jets import U, X

    alpha = float(order)
    uexpr = jet.expr
    w = psi(t) - psi(psi.a)
    xi_c = sp.expand(inf.xi.expr.subs(U, uexpr))
    tau_c = sp.expand(inf.tau.expr.subs(U, uexpr))
    etau = sp.expand(diff(inf.eta.expr, U))
    # the jet tables: eta and eta_u with u fixed, the rest along the solution
    u_j = _jets(sp.expand(uexpr), psi, terms, x, t)
    uval = _nth(u_j, 0)
    eta_j = _jets(inf.eta.expr, psi, terms, x, t, uval)
    etau_j = _jets(etau, psi, terms, x, t, uval)
    etau_c_j = _jets(sp.expand(etau.subs(U, uexpr)), psi, terms, x, t)
    xi_j = _jets(xi_c, psi, terms, x, t)
    tau_j = _jets(tau_c, psi, terms + 1, x, t)
    ux_j = _jets(sp.expand(diff(uexpr, X)), psi, terms, x, t)

    acc = jet_series(eta_j, alpha, w).value
    d_alpha_u = jet_series(u_j, alpha, w).value
    acc += (_nth(etau_j, 0) - alpha * _nth(tau_j, 1)) * d_alpha_u
    acc -= uval * jet_series(etau_j, alpha, w).value
    for m in range(1, terms + 1):
        if m < len(xi_j):
            acc -= gen_binom(alpha, m) * xi_j[m] * jet_series(ux_j, alpha - m, w).value
        cm = gen_binom(alpha, m) * _nth(etau_c_j, m)
        cm -= gen_binom(alpha, m + 1) * _nth(tau_j, m + 1)
        if cm != 0.0:
            acc += cm * jet_series(u_j, alpha - m, w).value
    acc += mu_term(inf, jet, psi, alpha, x, t, M=terms)
    return acc + omega_term(inf, jet.u, psi, alpha, x, t)


def eta_alpha_psi_compact(
    inf: Infinitesimals,
    jet: SolutionJet,
    psi: PsiFunction,
    order: float,
    x: float,
    t: float,
    terms: int = 12,
) -> float:
    """Compact form of the alpha-th prolongation coefficient, valid when
    eta is linear in u, and at an integer order m equal to eta^(m;psi)
    (:func:`eta_m_psi`) for any eta:

    D^{alpha;psi}(eta - xi u_x - tau u_t) + xi D^{alpha;psi} u_x
      + tau psi'(t) D^{alpha+1;psi} u + omega,

    with the leading term a fractional total derivative along the jet.
    """
    import sympy as sp

    from .jets import X

    alpha = float(order)
    uexpr = jet.expr
    w = psi(t) - psi(psi.a)
    xi_c, tau_c, q = _characteristic(inf, uexpr)
    q_j = _jets(q, psi, terms, x, t)
    ux_j = _jets(sp.expand(diff(uexpr, X)), psi, terms, x, t)
    u_j = _jets(sp.expand(uexpr), psi, terms, x, t)
    acc = jet_series(q_j, alpha, w).value
    acc += _nth(_jets(xi_c, psi, 0, x, t), 0) * jet_series(ux_j, alpha, w).value
    acc += (_nth(_jets(tau_c, psi, 0, x, t), 0) * psi.deriv(t)
            * jet_series(u_j, alpha + 1.0, w).value)
    return acc + omega_term(inf, jet.u, psi, alpha, x, t)
