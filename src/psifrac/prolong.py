"""Infinitesimal prolongation of fractional order.

Evaluates, at a point (x, t) on a given solution jet, the coefficients a
vector field xi d/dx + tau d/dt + eta d/du acquires when extended to act
on derivatives of u: the integer x-prolongations eta^(i), the psi-time
prolongations eta^(m;psi), and the full alpha-th order coefficient
eta^(alpha;psi) together with its two correction terms mu (nonlinearity
of eta in u) and omega (moving lower limit when tau does not vanish at
t = a).  eta^(m;psi) is the compact form of eta^(alpha;psi) at the
integer order alpha = m, where it holds for any eta.

Convention: the lower limit moves with the flow, as every other point
does; omega is the term the moving limit adds, and the compact form is
the prolongation for any eta, nonlinear in u too.  A system that holds the
limit fixed asks tau(a) = 0 instead (tau(t=0) of the classical system).

Every factor is built on trees (:mod:`psifrac.tree`), whether the
generator and jet were given as trees, as the CLI parses them, or in sympy,
read through their trees: the solution is put in for u
(:func:`~psifrac.tree.subs`), each first derivative (eta_u, the
u-derivatives of mu, u_x and u_t of the characteristic) comes from
:func:`~psifrac.tree.diff`, and each factor is expanded by
:func:`~psifrac.tree.expand`, the expansion the exact power rule splits.
Each expanded factor becomes a table of its float psi-jets at the point, by
Taylor mode (:func:`_jets`, :mod:`psifrac.taylor`, the engine of the series
backend), and the sums run over those tables; no table is differentiated.
Fractional pieces use the terminating jet series
:func:`~psifrac.fracops.jet_series`, and omega is in closed form, so no
prolongation runs a quadrature or loads sympy.  :func:`omega_commutator`,
the quadrature D^{alpha;psi} D_t^{1;psi} u - D^{alpha+1;psi} u, is omega's
reference, and it alone takes a symbolic psi-jet.  One row
(:class:`_Row`) shares the tables of a point between the expanded sum, the
compact sum and mu, so a caller that prints both forms, mu and omega, as
the CLI does, computes each once.

A reduced generator and its general form (:meth:`ReducedInfinitesimals.to_general`)
are trees too, and the determining systems read them without sympy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from . import tree as tr
from .errors import DomainError
from .fracops import QuadratureSpec, _psi_jet_expr, frac_derivative, jet_series
from .jets import JetFunction, SolutionJet, compiled
from .psi import PsiFunction
from .special import gen_binom, rgamma
from .taylor import program

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


def _jets(expr: tuple, psi: PsiFunction, upto: int, x: float, t: float, *u) -> list:
    """The psi-jets 0..upto of the tree expr at (x, t), as floats, for expr
    in (x, t) fully composed along the solution or, with u given, in
    (x, t, u) with u held fixed.  The jets come by Taylor mode, from one
    program per expression that takes x (and u) as run-time inputs
    (:func:`psifrac.taylor.program`).  The list ends at the degree of expr
    in psi(t) - psi(a), past which every jet vanishes exactly; an
    expression that is 0 gives []."""
    prog = program(expr, psi.tree, ("x", "u") if u else ("x",))
    if prog.constant == 0.0:
        return []
    top = upto if prog.degree is None else min(upto, prog.degree)
    return prog.jets(t, top + 1, x, *u).tolist()


def _nth(jets: list, m: int) -> float:
    """jets[m] of a table from :func:`_jets`; 0 past its end."""
    return jets[m] if m < len(jets) else 0.0


def _value(expr: tuple, x: float, t: float, *u: float) -> float:
    """The tree expr at (x, t), with u = u[0] if given: a one-term Taylor
    program on psi = t."""
    return float(program(expr, tr.T, ("x", "u")[:1 + len(u)]).series(t, 1, x, *u)[0])


def _along(f: JetFunction, u: tuple) -> tuple:
    """f with the solution u, a tree, put in for u, expanded."""
    return tr.expand(tr.subs(f.tree, "u", u))


def _characteristic(inf: Infinitesimals, u: tuple, xi_c: tuple, tau_c: tuple) -> tuple:
    """The characteristic Q = eta - xi u_x - tau u_t along u, expanded, for
    xi_c and tau_c xi and tau along u."""
    minus = tr.num(-1)
    return tr.expand(tr.add(tr.subs(inf.eta.tree, "u", u),
                            tr.mul(minus, xi_c, tr.diff(u, "x")),
                            tr.mul(minus, tau_c, tr.diff(u, "t"))))


class _Row:
    """The prolongation of one generator along one jet at (x, t) with
    ``terms`` jets: the expanded form's sum before mu and omega, the
    compact form's before omega, and mu.  The tables the forms share (u,
    u_x, xi and tau along the solution) are built once, at the depth each
    form reads them at."""

    def __init__(self, inf, jet, psi, alpha, x, t, terms):
        self.inf, self.jet, self.psi = inf, jet, psi
        self.alpha, self.x, self.t, self.terms = float(alpha), x, t, terms
        self.u = jet.u.tree
        self.w = psi(t) - psi(psi.a)

    @cached_property
    def u_j(self) -> list:
        return _jets(tr.expand(self.u), self.psi, self.terms, self.x, self.t)

    @cached_property
    def ux_j(self) -> list:
        ux = tr.expand(tr.diff(self.u, "x"))
        return _jets(ux, self.psi, self.terms, self.x, self.t)

    @cached_property
    def xi_tau(self) -> tuple:
        return _along(self.inf.xi, self.u), _along(self.inf.tau, self.u)

    def expanded(self) -> float:
        """The expanded form before mu and omega (:func:`eta_alpha_psi`)."""
        alpha, psi, terms, x, t, w = self.alpha, self.psi, self.terms, self.x, self.t, self.w
        xi_c, tau_c = self.xi_tau
        etau = tr.expand(tr.diff(self.inf.eta.tree, "u"))
        # the jet tables: eta and eta_u with u fixed, the rest along the solution
        u_j = self.u_j
        uval = _nth(u_j, 0)
        eta_j = _jets(tr.expand(self.inf.eta.tree), psi, terms, x, t, uval)
        etau_j = _jets(etau, psi, terms, x, t, uval)
        etau_c_j = _jets(tr.expand(tr.subs(etau, "u", self.u)), psi, terms, x, t)
        xi_j = _jets(xi_c, psi, terms, x, t)
        tau_j = _jets(tau_c, psi, terms + 1, x, t)
        ux_j = self.ux_j

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
        return acc

    def compact(self) -> float:
        """The compact form before omega (:func:`eta_alpha_psi_compact`)."""
        alpha, psi, terms, x, t, w = self.alpha, self.psi, self.terms, self.x, self.t, self.w
        xi_c, tau_c = self.xi_tau
        q_j = _jets(_characteristic(self.inf, self.u, xi_c, tau_c), psi, terms, x, t)
        acc = jet_series(q_j, alpha, w).value
        acc += _nth(_jets(xi_c, psi, 0, x, t), 0) * jet_series(self.ux_j, alpha, w).value
        acc += (_nth(_jets(tau_c, psi, 0, x, t), 0) * psi.deriv(t)
                * jet_series(self.u_j, alpha + 1.0, w).value)
        return acc

    def mu(self) -> float:
        """mu with M = terms (:func:`mu_term`)."""
        alpha, psi, M, x, t, w = self.alpha, self.psi, self.terms, self.x, self.t, self.w
        # u-partials of eta, each one derivative from the order before; the sum
        # over k stops once they vanish identically
        eta_k = {}
        d = tr.diff(self.inf.eta.tree, "u")
        for k in range(2, M + 1):
            d = tr.expand(tr.diff(d, "u"))
            if d == tr.ZERO:
                break
            eta_k[k] = d
        if not eta_k:
            return 0.0
        kmax = max(eta_k)
        # the jet tables: psi-jets of u^j, t-partials of eta_k with u fixed
        upow = {j: _jets(tr.expand(tr.power(self.u, tr.num(j))), psi, M, x, t)
                for j in range(2, kmax + 1)}
        upow[1] = self.u_j
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


# -- operations ---------------------------------------------------------------


def eta_integer(
    i: int, inf: Infinitesimals, jet: SolutionJet, x: float, t: float
) -> float:
    """Integer x-prolongation coefficient
    eta^(i) = D_x^i(eta - xi u_x - tau u_t) + xi u_{(i+1)x} + tau u_{ix,t}."""
    if i < 1:
        raise DomainError(f"prolongation order must be >= 1, got {i}")

    def d_x(e: tuple, n: int) -> tuple:
        for _ in range(n):
            e = tr.diff(e, "x")
        return e

    u = jet.u.tree
    xi_c, tau_c = _along(inf.xi, u), _along(inf.tau, u)
    q = _characteristic(inf, u, xi_c, tau_c)
    e = tr.add(d_x(q, i), tr.mul(xi_c, d_x(u, i + 1)), tr.mul(tau_c, d_x(tr.diff(u, "t"), i)))
    return _value(tr.expand(e), x, t)


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
    return _Row(inf, jet, psi, order, x, t, M).mu()


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
    closed form of :func:`omega_term`, which is tested against it.  The one
    function here that uses sympy: u's first psi-jet is symbolic."""
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
    u_a = None if isinstance(inf, ReducedInfinitesimals) else _value(u.tree, x, psi.a)
    tau_tilde = inf.tau_tilde(psi) if u_a is None else _value(inf.tau.tree, x, psi.a, u_a)
    if tau_tilde == 0.0:
        return 0.0
    u_a = _value(u.tree, x, psi.a) if u_a is None else u_a
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
    row = _Row(inf, jet, psi, order, x, t, terms)
    acc = row.expanded()
    return (acc + row.mu()) + omega_term(inf, jet.u, psi, order, x, t)


def eta_alpha_psi_compact(
    inf: Infinitesimals,
    jet: SolutionJet,
    psi: PsiFunction,
    order: float,
    x: float,
    t: float,
    terms: int = 12,
) -> float:
    """Compact form of the alpha-th prolongation coefficient, for any eta,
    linear in u or not, with the lower limit moving with the flow (module
    docstring), and at an integer order m equal to eta^(m;psi)
    (:func:`eta_m_psi`):

    D^{alpha;psi}(eta - xi u_x - tau u_t) + xi D^{alpha;psi} u_x
      + tau psi'(t) D^{alpha+1;psi} u + omega,

    with the leading term a fractional total derivative along the jet.
    """
    acc = _Row(inf, jet, psi, order, x, t, terms).compact()
    return acc + omega_term(inf, jet.u, psi, order, x, t)
