"""Determining-equation systems and symmetry verification.

Each determining system is exposed as a residual functional: given a
candidate generator it evaluates every equation of the system on a grid
of (x, t, u) nodes and reports the max-abs residual per equation, and the
equation with the largest one with the first node where it is taken.  A
candidate is accepted when every residual is below tolerance.

The grid is fixed: 5 x 5 x 5 equispaced nodes with x and t - a in
[0.2, 1] and u in [0.5, 2], two fixed (u_x, u_xx) probes for the free jet
coordinates, and a fixed cubic in w as the omega equation's u.

The reduced determining system is written once (:func:`_equations`):
the psi-fractional Burgers and diffusion systems report it, and the
classical reduced two-equation form on psi = t combines it over two jet
probes.  The classical expanded six-block form is written apart, the
independent side of the cross-method agreement checks.  A small ansatz
solver reproduces the closed-form generator bases case by case, each
unknown an exact root built as a tree.

Each system is a template in numpy: its equations are array expressions
in the candidate's functions (xi, theta and rho, or xi, tau and eta), the
coefficient g(u) or K(u), and their derivatives, each of them an array on
the broadcast grid.  The derivatives are trees (:func:`psifrac.tree.diff`,
taken once per tree), and a tree in x and u alone is evaluated on the grid
once (:func:`_fixed`).  The fractional term, D^{alpha;psi} rho (or, in the
expanded system, of eta - u eta_u with u fixed), is the one exact power
rule, :func:`psifrac.fracops.frac_deriv_psi_powers`, on the grid.
:func:`_grid_max` takes each equation's maximum over the grid and makes
the report.  No system loads sympy, save through a function given in
sympy and through the omega equation (v) of a candidate with c0 != 0,
whose quadrature reads a probe built in sympy.

:data:`CASES` is the one registry of the g(u) and K(u) cases: each
:class:`Case` names its coefficient, a tree with its parameters as exact
fractions, its family, its :func:`builtin_table` row and its solver
parameters, builds its equation and its published basis from them, and
compares a basis with the published one (:meth:`Case.matches`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from . import tree as tr
from .errors import DomainError
from .fracops import QuadratureSpec, frac_deriv_psi_powers
from .jets import JetFunction
from .prolong import (
    Infinitesimals,
    ReducedInfinitesimals,
    omega_commutator,
)
from .psi import PsiFunction
from .special import gamma, gen_binom

__all__ = [
    "EvolutionEquation",
    "GeneratorCandidate",
    "ResidualReport",
    "detsys_gfbe",
    "detsys_diffusion",
    "detsys_gazizov_rl",
    "detsys_zhang_rl",
    "solve_ansatz",
    "builtin_table",
    "CASE_DEFAULTS",
    "Case",
    "CASES",
    "lookup_case",
]


# the residual grid: x and u nodes, and the t nodes as offsets from a
_XS = tuple(np.linspace(0.2, 1.0, 5))
_US = tuple(np.linspace(0.5, 2.0, 5))
# the x and u nodes as arrays that broadcast to the grid (x, t, u, probe)
_X = np.reshape(_XS, (-1, 1, 1, 1))
_U = np.reshape(_US, (1, 1, -1, 1))


# one entry per kernel's base point a
@lru_cache(maxsize=64)
def _ts(a: float) -> tuple:
    return tuple(a + np.linspace(0.2, 1.0, 5))


# the seeded draws that bench/refs.py and bench/workloads.omega_probe_u_at_a
# mirror, written out so that no generator runs: default_rng(20230815)'s
# uniform(-1.5, 1.5, size=2) twice as (u_x, u_xx), and the coefficients c_k
# of the omega probe sum c_k w^k, default_rng(20230816).uniform(0.5, 1.5, 4)
_JET_PROBES = ((-0.5445168242207112, 1.086291606832349),
               (0.5304325123377174, 0.10457819184325934))
_U_PROBE = (0.5337648579355345, 0.7190222608575713, 1.1823201539498678,
            1.207848357003816)

# equations n = 1.._GAZIZOV_TERMS of the expanded system's family
_GAZIZOV_TERMS = 8

# the coordinates of its node that a report's worst equation names: those
# the equation depends on, by system
_NODES = {
    "gfbe": {"i": "xt", "ii": "xt", "iii": "xtu", "iv": "xtu"},
    "diffusion": dict.fromkeys(("i", "ii", "iii", "iv"), "xtu"),
    "zhang": {"1": "xt", "2": "xtu"},
    "gazizov": {**dict.fromkeys(("structure", "family", "iii", "iv", "v"), "xtu"),
                "tau(t=0)": "xu"},
}


@dataclass(frozen=True)
class EvolutionEquation:
    """D^{alpha;psi} u = H[u].

    kind 'gfbe' carries g(u) (H = g(u) u_x + u_xx), 'diffusion' carries
    K(u) (H = (K(u) u_x)_x = K'(u) u_x^2 + K(u) u_xx).
    """

    kind: str
    alpha: float
    psi: PsiFunction
    g: Optional[JetFunction] = None
    K: Optional[JetFunction] = None

    def __post_init__(self):
        if self.kind not in ("gfbe", "diffusion"):
            raise DomainError(f"unknown equation kind '{self.kind}'")
        if self.kind == "gfbe":
            if self.g is None:
                raise DomainError("gfbe needs g(u)")
            if _constant(self.g.tree):
                raise DomainError("g(u) must not be constant")
        if self.kind == "diffusion" and self.K is None:
            raise DomainError("diffusion needs K(u)")


def _constant(coef: tuple) -> bool:
    """Whether the tree of a coefficient in u is constant: its derivative
    in u is 0 by structure."""
    return tr.diff(coef, "u") == tr.ZERO


@dataclass(frozen=True)
class GeneratorCandidate:
    """Exactly one of the two generator representations plus a label."""

    label: str
    reduced: Optional[ReducedInfinitesimals] = None
    general: Optional[Infinitesimals] = None

    def __post_init__(self):
        if (self.reduced is None) == (self.general is None):
            raise DomainError("provide exactly one of reduced/general")


@dataclass(frozen=True)
class ResidualReport:
    """The max |residual| of each equation, its tolerance and grid, and
    ``worst``: the equation with the largest residual (a NaN counts as the
    largest) and the first grid node where it is taken, as "iv @ x=0.2,
    t=0.2, u=2", or "" where every residual is 0.  (v) of the
    psi-fractional systems is no grid equation and names no node."""

    equations: dict
    tol: float
    grid: str
    worst: str = ""

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.equations.values())

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        body = ", ".join(f"{k}={v:.3e}" for k, v in self.equations.items())
        return f"[{status}] tol={self.tol:g} {body}"


# -- shared pieces ------------------------------------------------------------


def _nan_max(cur: float, e: float) -> float:
    """max(cur, e), except that a NaN is kept once seen (max() would drop
    it): a check that cannot be evaluated at some point never passes."""
    return e if e > cur or (e != e and cur == cur) else cur


def _reduced(candidate: GeneratorCandidate) -> ReducedInfinitesimals:
    if candidate.reduced is None:
        raise DomainError(f"candidate '{candidate.label}' must be in reduced form")
    return candidate.reduced


def _omega_residual(
    red: ReducedInfinitesimals,
    psi: PsiFunction,
    alpha: float,
    quad: QuadratureSpec,
) -> float:
    """Max |omega| over the t nodes with the non-constant u probe.
    Zero exactly when the tau component vanishes at t = a (c0 = 0)."""
    if red.c0 == 0.0:
        return 0.0
    from .jets import T

    w = psi.expr - psi.expr.subs(T, psi.a)
    probe = JetFunction.of_t(sum(c * w**k for k, c in enumerate(_U_PROBE)))
    v = 0.0
    for t in _ts(psi.a):
        v = _nan_max(v, abs(red.c0 * omega_commutator(probe, psi, alpha, t, quad)))
    return v


# -- the grid ---------------------------------------------------------------------


def _values(node: tuple, at: dict):
    """The values of a tree on the grid, for at the arrays of its
    variables: from :func:`_fixed` for a tree in x and u alone."""
    v = _fixed(node)
    return tr.evaluate(node, at) if v is None else v


# the x and u nodes never change: a coefficient, a candidate's xi and
# theta and their derivatives are evaluated once; a sweep meets a few
# dozen such trees
@lru_cache(maxsize=512)
def _fixed(node: tuple):
    """A tree in x and u alone on their nodes; None for any other tree."""
    if not tr.names(node) <= {"x", "u"}:
        return None
    with np.errstate(all="ignore"):
        return tr.evaluate(node, {"x": _X, "u": _U})


def _partials(node: tuple, name: str, at: dict) -> list:
    """A tree and its first and second derivatives in name, on the grid."""
    d1 = tr.diff(node, name)
    return [_values(n, at) for n in (node, d1, tr.diff(d1, name))]


def _grid_max(table: dict, ts: tuple, tol: float, nodes: dict, probes: int = 1,
              off_grid: tuple = ()) -> ResidualReport:
    """The report of table: the max |residual| of each name over the grid,
    then the (name, residual) pairs off_grid; worst is the name with the
    largest (a NaN counting as the largest, the first of equal ones) and
    the first node (x, t, u) in (x, t, u, probe) order where it is taken,
    by the coordinates nodes[name] (none off the grid), or "" where every
    residual is 0.  A NaN is kept, as the maximum and as the node: a check
    that cannot be evaluated somewhere never passes.

    table holds, for each name, the values of its equations: arrays or
    numbers that broadcast to the grid (x, t, u, probe) of the x nodes, the
    t nodes ts, the u nodes and the count of (u_x, u_xx) probes."""
    r, worst, top = {}, "", 0.0
    with np.errstate(all="ignore"):
        for name, eqs in table.items():
            r[name] = 0.0
            for v in eqs:
                r[name] = _nan_max(r[name], float(np.max(abs(v))))
        r.update(off_grid)
        for name, v in r.items():
            if v > top or (v != v and top == top):
                worst, top = name, v
        if worst in table:
            zero = np.zeros((len(_XS), len(ts), len(_US), probes))
            a = zero
            for v in table[worst]:
                a = np.maximum(a, abs(v + zero))  # a NaN at a node is kept there
            i, j, k = np.unravel_index(a.argmax(), a.shape)[:3]
            node = {"x": _XS[i], "t": ts[j], "u": _US[k]}
            worst += " @ " + ", ".join(f"{c}={node[c]:.3g}" for c in nodes[worst])
    grid = (f"{len(_XS)}x{len(ts)}x{len(_US)} nodes, "
            f"x in [{_XS[0]:.3g}, {_XS[-1]:.3g}], t in [{ts[0]:.3g}, {ts[-1]:.3g}], "
            f"u in [{_US[0]:.3g}, {_US[-1]:.3g}]")
    return ResidualReport(r, tol, grid, worst)


# -- psi-fractional Burgers and diffusion systems ---------------------------------


def detsys_gfbe(
    candidate: GeneratorCandidate,
    g: JetFunction,
    psi: PsiFunction,
    alpha: float,
    tol: float = 1e-8,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ResidualReport:
    """Determining system for D^{alpha;psi} u = g(u) u_x + u_xx with a
    reduced-form candidate:

      (i)   D^{alpha;psi} rho - rho_xx = 0
      (ii)  alpha D^{1;psi} tau - 2 xi' = 0
      (iii) (theta' u + rho_x) g(u) + theta'' u = 0
      (iv)  (alpha D^{1;psi} tau - xi') g(u)
            + (gamma D^{1;psi} tau u + theta u + rho) g'(u)
            - xi'' + 2 theta' = 0
      (v)   omega = 0

    (i)-(iv) are evaluated on the grid by :func:`_fractional`.  (iv) is
    minus the u_x coefficient of the invariance condition (Olver, ch. 2),
    as (iii) of :func:`detsys_gazizov_rl` is: the printed - 2 theta' is a typo.
    """
    return _fractional("gfbe", candidate, g, psi, alpha, tol, quad)


def detsys_diffusion(
    candidate: GeneratorCandidate,
    K: JetFunction,
    psi: PsiFunction,
    alpha: float,
    tol: float = 1e-8,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ResidualReport:
    """Determining system for D^{alpha;psi} u = (K(u) u_x)_x, 0 < alpha <= 2,
    evaluated as :func:`detsys_gfbe` is, by :func:`_fractional`.

    K'(u) = 0 dispatches to the shorter constant-diffusivity system.  The
    K'' equation is evaluated with the K' bracket added rather than
    subtracted; the subtracted variant rejects the system's own closed
    form solution K = (3u)^(-4/3), xi = x^2, theta = -3x (pinned by
    tests/test_symmetry.py::test_k_double_prime_bracket_is_added), so the
    sign as printed is treated as a typo.  The invariance condition that
    :func:`detsys_zhang_rl` states agrees: its u_x^2 coefficient is minus
    (iii) with the bracket added, monomial by monomial.
    """
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"diffusion system needs 0 < alpha <= 2, got {alpha}")
    return _fractional("diffusion", candidate, K, psi, alpha, tol, quad)


def _fractional(kind, candidate, coef, psi, alpha, tol, quad) -> ResidualReport:
    """The psi-fractional system of kind ('gfbe' or 'diffusion') with the
    coefficient coef (g or K) on a reduced candidate: (i)-(iv) and (v)."""
    red = _reduced(candidate)
    ts = _ts(psi.a)
    w = np.reshape([psi(t) - psi(psi.a) for t in ts], (1, -1, 1, 1))
    *_, eqs = _equations(kind, red, coef, alpha, w)
    table = {name: (e,) for name, e in zip(("i", "ii", "iii", "iv"), eqs)}
    v = _omega_residual(red, psi, alpha, quad)
    return _grid_max(table, ts, tol, _NODES[kind], off_grid=(("v", v),))


def _equations(kind, red, coef, alpha, w) -> tuple:
    """D^{alpha;psi} rho, K rho_xx and (i)-(iv) of the psi-fractional
    system of kind with the coefficient coef on the reduced candidate red,
    arrays on the grid at the w nodes w, with D^{1;psi} tau = c1 + 2 c2 w."""
    at, u = {"x": _X, "w": w, "u": _U}, _U
    with np.errstate(all="ignore"):
        frac = frac_deriv_psi_powers(red.rho.tree, alpha, w, at)
        _, xi1, xi2 = _partials(red.xi.tree, "x", at)
        th, th1, th2 = _partials(red.theta.tree, "x", at)
        rho, rho_x, rho_xx = _partials(red.rho.tree, "x", at)
        k, k1, k2 = _partials(coef.tree, "u", at)
        dtau = red.c1 + 2.0 * red.c2 * w
        lin = red.gamma * dtau * u + th * u + rho
        if kind == "gfbe":
            eqs = (frac - rho_xx, alpha * dtau - 2 * xi1, (th1 * u + rho_x) * k + th2 * u,
                   (alpha * dtau - xi1) * k + lin * k1 - xi2 + 2 * th1)
        elif _constant(coef.tree):
            eqs = (frac - (th2 * u + rho_xx) * k, (alpha * dtau - 2 * xi1) * k,
                   (xi2 - 2 * th1) * k, 0.0)
        else:
            eqs = (frac - (th2 * u + rho_xx) * k, lin * k1 + (alpha * dtau - 2 * xi1) * k,
                   lin * k2 + ((alpha + red.gamma) * dtau - 2 * xi1 + th) * k1,
                   2 * (th1 * u + rho_x) * k1 - (xi2 - 2 * th1) * k)
        return frac, k * rho_xx, eqs


# -- classical expanded system (six blocks) ------------------------------------


def detsys_gazizov_rl(
    candidate: GeneratorCandidate,
    g: JetFunction,
    alpha: float,
    tol: float = 1e-8,
) -> ResidualReport:
    """Classical (psi = t, a = 0) expanded determining system for
    D^alpha u = g(u) u_x + u_xx with a general candidate:

      structure:  xi_u = xi_t = tau_u = tau_x = eta_uu = 0
      family(n):  binom(alpha,n) D_t^n(eta_u)
                  - binom(alpha,n+1) D_t^{n+1}(tau) = 0,  n = 1..8
      (iii)  xi'' - alpha g tau' - 2 eta_xu + g xi' - eta g' = 0
      (iv)   2 xi' - alpha tau' = 0
      (v)    d_t^alpha(eta) - u d_t^alpha(eta_u) - eta_xx - g eta_x = 0
      tau(t=0):  tau(x, 0, u) = 0, as the lower limit t = 0 is fixed
             (Gazizov, Kasatkin & Lukashchuk, Phys. Scr. T136, 2009)

    The fractional t-partials in (v) hold u fixed and come from the exact
    power rule, with only its gamma ratios per call, so eta must be a
    power sum in t (DomainError otherwise, before any node is evaluated).
    tau(t=0) is evaluated at t = 0 on the x and u nodes.
    """
    if candidate.general is None:
        raise DomainError(f"candidate '{candidate.label}' must be in general form")
    inf = candidate.general
    ts = _ts(0.0)  # psi = t, a = 0
    t = np.reshape(ts, (1, -1, 1, 1))
    at = {"x": _X, "t": t, "u": _U}
    xi, tau, eta = inf.xi.tree, inf.tau.tree, inf.eta.tree
    d = tr.diff
    etau, taup, xi1, eta_x = d(eta, "u"), d(tau, "t"), d(xi, "x"), d(eta, "x")
    with np.errstate(all="ignore"):
        frac = frac_deriv_psi_powers(_held(eta, repr(eta)), alpha, t, at)

        def v(node):
            return _values(node, at)

        gv, g1, _ = _partials(g.tree, "u", at)
        family = [gen_binom(alpha, n) * v(dn_etau) - gen_binom(alpha, n + 1) * v(dn1_tau)
                  for n, (dn_etau, dn1_tau) in enumerate(_gazizov_family(etau, taup), 1)]
        table = {
            "structure": tuple(map(v, (d(xi, "u"), d(xi, "t"), d(tau, "u"), d(tau, "x"),
                                       d(etau, "u")))),
            "family": family,
            "iii": (v(d(xi1, "x")) - alpha * gv * v(taup) - 2 * v(d(etau, "x"))
                    + gv * v(xi1) - v(eta) * g1,),
            "iv": (2 * v(xi1) - alpha * v(taup),),
            "v": (frac - v(d(eta_x, "x")) - gv * v(eta_x),),
            "tau(t=0)": (_values(tau, {"x": _X, "t": 0.0, "u": _U}),),
        }
    return _grid_max(table, ts, tol, _NODES["gazizov"])


# one entry per generator a sweep checks; keyed by eta's text too, which
# tells apart trees whose numbers differ only in type (2 and 2.0)
@lru_cache(maxsize=64)
def _held(eta: tuple, text: str) -> tuple:
    """(v)'s part with u held fixed, eta - u eta_u, in w = t."""
    return tr.subs(tr.add(eta, tr.mul(tr.num(-1), tr.U, tr.diff(eta, "u"))), "t", tr.W)


def _gazizov_family(etau: tuple, taup: tuple) -> list:
    """(D_t^n eta_u, D_t^{n+1} tau) for n = 1.._GAZIZOV_TERMS, given the
    trees of eta_u and D_t tau.  Each derivative is one step from the order
    before; the list ends where both are 0 by structure, since every later
    equation is then 0 too."""
    fam = []
    for _ in range(_GAZIZOV_TERMS):
        etau, taup = tr.diff(etau, "t"), tr.diff(taup, "t")
        if etau == taup == tr.ZERO:
            break
        fam.append((etau, taup))
    return fam


# -- classical reduced two-equation system ------------------------------------


def detsys_zhang_rl(
    candidate: GeneratorCandidate,
    equation: EvolutionEquation,
    alpha: float,
    tol: float = 1e-8,
) -> ResidualReport:
    """Classical (psi = t, a = 0) reduced two-equation determining system
    for D^alpha u = H[u], H = g(u) u_x + u_xx (g not constant) or
    (K(u) u_x)_x:

      (1) D^alpha rho - sum_V H_{u_i} d^i rho / dx^i = 0
      (2) (eta_u - alpha tau') H - sum_i H_{u_i} eta^(i)
          + sum_V H_{u_i} d^i rho / dx^i = 0,

    with V the H terms linear in a jet coordinate with u-free coefficient:
    u_xx of the Burgers H, and K u_xx where K is constant.  The candidate is
    reduced with c0 = 0 (tau = c1 t + c2 t^2), eta = theta u + rho + gamma
    tau' u, and both equations are evaluated at the fixed (u_x, u_xx)
    probes too.  Split by its monomials in u_x and u_xx, (2) is (i)-(iv) of
    the psi-fractional system on psi = t, combined from :func:`_equations`:

      Burgers:     (1) = (i),  (2) = -(iii) - (iv) u_x - (ii) u_xx
      K constant:  (1) = D^alpha rho - K rho_xx,  (2) = ((i) - (1)) - (ii) u_xx + (iii) u_x
      other K:     (1) = D^alpha rho,  (2) = ((i) - (1)) - (ii) u_xx - (iii) u_x^2 - (iv) u_x
    """
    red = _reduced(candidate)
    if red.c0 != 0.0:
        raise DomainError("classical reduced system requires tau(0) = 0")
    ts = _ts(0.0)  # psi = t, a = 0
    ux, uxx = (np.reshape(c, (1, 1, 1, -1)) for c in zip(*_JET_PROBES))
    coef = equation.g if equation.kind == "gfbe" else equation.K
    frac, k_rho_xx, (i, ii, iii, iv) = _equations(
        equation.kind, red, coef, alpha, np.reshape(ts, (1, -1, 1, 1)))
    with np.errstate(all="ignore"):
        if equation.kind == "gfbe":
            eq1, eq2 = i, -iii - iv * ux - ii * uxx
        elif _constant(coef.tree):
            eq1 = frac - k_rho_xx
            eq2 = (i - eq1) - ii * uxx + iii * ux
        else:
            eq1, eq2 = frac, (i - frac) - ii * uxx - iii * ux**2 - iv * ux
    return _grid_max({"1": (eq1,), "2": (eq2,)}, ts, tol, _NODES["zhang"], len(_JET_PROBES))


# -- closed-form solutions ----------------------------------------------------


def _function(expr):
    """A tree as it is, a number as its tree, and anything else, as a
    sympy expression, through sympify."""
    if isinstance(expr, tuple):
        return expr
    if isinstance(expr, (int, float, Fraction)):
        return tr.num(expr)
    import sympy

    return sympy.sympify(expr)


def _jx(expr) -> JetFunction:
    return JetFunction(_function(expr), ("x",))


def _jxw(expr) -> JetFunction:
    return JetFunction(_function(expr), ("x", "w"))


def _generator(alpha, label, xi, c1, theta=0, rho=0) -> GeneratorCandidate:
    """Reduced candidate with c0 = c2 = 0: xi(x) d/dx + c1 w d/dpsi
    + (theta(x) u + rho(x, w)) d/du."""
    return GeneratorCandidate(label, reduced=ReducedInfinitesimals(
        alpha, _jx(xi), 0.0, c1, 0.0, _jx(theta), _jxw(rho)))


def _x_translation(alpha: float) -> GeneratorCandidate:
    return _generator(alpha, "X1: d/dx", 1, 0.0)


def diffusion_rho_fixture(alpha: float):
    """A verified solution of D^{alpha;psi} rho = rho_xx via the power rule:

    rho = Gamma(alpha)/Gamma(2 alpha) w^{2 alpha - 1} + (x^2/2) w^{alpha - 1}.

    The w^{alpha-1} term is annihilated by D^{alpha;psi}; the first term
    maps onto it, matching the second x-derivative exactly.  In sympy; its
    tree is :func:`_rho_fixture`.
    """
    return tr.to_sympy(_rho_fixture(alpha))


def _rho_fixture(alpha: float) -> tuple:
    """The tree of :func:`diffusion_rho_fixture`, whose sympy expression
    is the one the same operators give."""
    w, c = tr.W, gamma(alpha) / gamma(2 * alpha)
    return ("add", ("mul", tr.num(c), ("pow", w, tr.num(2 * alpha - 1))),
            ("mul", _ratio(("pow", tr.X, tr.num(2)), 2), ("pow", w, tr.num(alpha - 1))))


def _ratio(a, q) -> tuple:
    """The tree of a / q, each a tree or a number.  Two numbers, q not 0,
    give their exact quotient (a Fraction, or sympy's number where q is
    sympy's), which evaluates to the correctly rounded a / q its row
    prints; otherwise a / q is left a division, whose sympy expression is
    sympy's quotient (zoo where q is 0, as for a case parameter that its
    case rejects)."""
    if not (isinstance(a, tuple) or isinstance(q, tuple)) and q != 0:
        return tr.num(Fraction(a) / q)
    a, q = (v if isinstance(v, tuple) else tr.num(v) for v in (a, q))
    return ("mul", a, ("pow", q, tr.num(-1)))


#: default case parameters: p in g = u^p, b in g = e^(b u) and c1 in
#: K = (c1 + 3u)^(-4/3)
CASE_DEFAULTS = MappingProxyType({"p": 2.0, "b": 1.0, "c1": 0.0})


@lru_cache(maxsize=256)
def _rational(v: float):
    """sp.nsimplify(v): a case parameter as the exact number the table
    rows, the solver and the coefficients share.  Where a fraction with a
    denominator up to 10^6 is v as a float, nsimplify gives that fraction,
    and so does this, as an int or a Fraction, without sympy; any other v
    goes to nsimplify.  One table build rationalizes the same few
    parameters several times."""
    if math.isfinite(v):
        q = Fraction(v).limit_denominator(10**6)
        if float(q) == v:
            return q.numerator if q.denominator == 1 else q
    import sympy

    return sympy.nsimplify(v)


def builtin_table(
    alpha: float,
    p: float = CASE_DEFAULTS["p"],
    b: float = CASE_DEFAULTS["b"],
    c1: float = CASE_DEFAULTS["c1"],
) -> list:
    """Published generators as machine-readable fixtures:
    (case label, candidate) pairs for the Burgers cases, the constant
    diffusivity basis and the power-law diffusivity equation.

    The table is built once per parameter set; each call returns a new
    list of the shared (immutable) candidates."""
    return list(_table(alpha, p, b, c1))


# typed: p = 2 and p = 2.0 label their rows differently ("u^2", "u^2.0")
@lru_cache(maxsize=64, typed=True)
def _table(alpha: float, p: float, b: float, c1: float) -> tuple:
    two, x = 2.0 / alpha, tr.X
    return (
        ("arbitrary g", _x_translation(alpha)),
        ("g=u", _generator(alpha, "X2: x dx + (2w/a) dpsi - u du", x, two, -1)),
        ("g=u^p", _generator(alpha, f"X2 for u^{p}", x, two, _ratio(-1, _rational(p)))),
        ("g=e^(b u)", _generator(alpha, f"X2 for e^({b}u)", x, two, 0,
                                 _ratio(-1, _rational(b)))),
        ("g=u/(1+u)", _generator(alpha, "X2: x dx + (2w/a) dpsi + u du", x, two, 1)),
        # constant diffusivity basis
        ("K=1", _x_translation(alpha)),
        ("K=1", _generator(alpha, "X2: x dx + (2w/a) dpsi", x, two)),
        ("K=1", _generator(alpha, "X3: u du", 0, 0.0, 1)),
        ("K=1", _generator(alpha, "X4: rho du", 0, 0.0, 0,
                           _rho_fixture(alpha))),
        # power-law diffusivity K = (c1 + 3u)^(-4/3)
        ("K=(c1+3u)^(-4/3)", _projective(alpha, "X2: x^2 dx - x(c1+3u) du", c1)),
    )


def _projective(alpha: float, label: str, c1: float) -> GeneratorCandidate:
    """x^2 d/dx - x (c1 + 3u) d/du, a symmetry of K = (c1 + 3u)^(-4/3)."""
    x = tr.X
    return _generator(alpha, label, ("pow", x, tr.num(2)), 0.0, ("mul", tr.num(-3), x),
                      ("mul", tr.num(-_rational(c1)), x))


def solve_ansatz(equation: EvolutionEquation, case: str, **params) -> list:
    """Solve the determining system under the reduced ansatz (c0 = c2 = 0)
    for a supported closed-form case, returning a generator basis (always
    including the x-translation); of the equation only alpha is read.

    Cases: 'g=u', 'g=u^p' (p), 'g=e^(b u)' (b), 'g=u/(1+u)', 'K=1',
    'K=power-law' (c1), reduced as published, xi = x normalized.  The lead
    coefficient alpha D^{1;psi} tau - xi' of (iv) is then the integer 1, so
    a scaling's unknown v solves 1 + k v = 0 for k its coefficient in (iv),
    an exact fraction (:func:`_rational`): v is the tree of -1/k, as the
    published rows are (:func:`builtin_table`), and no symbolic solver runs.
    """
    return _solve(equation.alpha, case, params)


def _solve(alpha: float, case: str, params: dict) -> list:
    """:func:`solve_ansatz` at order alpha, with the case parameters params."""
    x, two = tr.X, 2.0 / alpha
    basis = [_x_translation(alpha)]

    def scaling(label, k, unknown="theta"):
        basis.append(_generator(alpha, label, x, two, **{unknown: _ratio(-1, k)}))

    if case == "g=u":
        # (iii) forces theta' = 0, rho_x = 0; (i) then rho = 0; (iv) on the
        # u coefficient: 1 + theta = 0
        scaling("scaling", 1)
    elif case == "g=u^p":
        p = _rational(params.get("p", CASE_DEFAULTS["p"]))
        if p == 0:
            raise DomainError("case g=u^p needs p != 0")
        # (iv) on the u^p coefficient: 1 + p theta = 0
        scaling(f"scaling p={p}", p)
    elif case == "g=e^(b u)":
        b = _rational(params.get("b", CASE_DEFAULTS["b"]))
        if b == 0:
            raise DomainError("case g=e^(b u) needs b != 0")
        # theta = 0; (iv): 1 + b rho = 0 with constant rho
        scaling(f"scaling b={b}", b, "rho")
    elif case == "g=u/(1+u)":
        # published reduction keeps the 1/u and 1/u^2 coefficients only:
        # rho = 0 and 1 - theta = 0
        scaling("scaling", -1)
    elif case == "K=1":
        basis += [_generator(alpha, "scaling", x, two),
                  _generator(alpha, "u-scaling", 0, 0.0, 1),
                  _generator(alpha, "rho du", 0, 0.0, 0, _rho_fixture(alpha))]
    elif case == "K=power-law":
        basis.append(_projective(alpha, "projective", params.get("c1", CASE_DEFAULTS["c1"])))
    else:
        raise DomainError(f"unknown case '{case}'")
    return basis


def _same_generator(a: GeneratorCandidate, b: GeneratorCandidate) -> bool:
    """Whether two reduced candidates are one generator: xi, theta and rho
    equal as expanded trees (:func:`psifrac.tree.expand`, exact in ints and
    Fractions), c0, c1 and c2 within 1e-12."""
    ra, rb = a.reduced, b.reduced
    if ra is None or rb is None:
        return False
    return (all(abs(p - q) < 1e-12 for p, q in ((ra.c0, rb.c0), (ra.c1, rb.c1), (ra.c2, rb.c2)))
            and all(tr.expand(tr.add(f.tree, tr.mul(tr.num(-1), g.tree))) == tr.ZERO
                    for f, g in ((ra.xi, rb.xi), (ra.theta, rb.theta), (ra.rho, rb.rho))))


# -- case registry --------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One g(u) or K(u) case of the two equation families.

    ``name`` is the case's name for ``--case`` and :func:`solve_ansatz`,
    ``kind`` its family ('gfbe' or 'diffusion'), ``row`` its
    :func:`builtin_table` label, ``coefficient(p, b, c1)`` its g(u) or
    K(u), ``params`` the names of the parameters the solver reads
    (None when the solver has no branch for the case), each of which
    must be finite, and ``nonzero`` those that make the coefficient
    constant at 0: p in u^p and b in e^(b u), whose table rows divide by
    them.
    """

    name: str
    kind: str
    row: str
    coefficient: Callable[[float, float, float], tuple]
    params: Optional[tuple] = ()
    nonzero: tuple = ()

    def check(self, p: float, b: float, c1: float) -> None:
        """DomainError for a parameter the case reads that is not finite,
        or one it needs nonzero that is 0."""
        given = {"p": p, "b": b, "c1": c1}
        for k in self.params or ():
            if not math.isfinite(given[k]):
                raise DomainError(f"case {self.name} needs a finite {k}, got {given[k]}")
        for k in self.nonzero:
            if given[k] == 0:
                raise DomainError(
                    f"case {self.name} needs {k} != 0 (its coefficient is constant at 0)")

    def jet(self, p: float, b: float, c1: float) -> JetFunction:
        self.check(p, b, c1)
        return JetFunction.of_u(self.coefficient(p, b, c1))

    def equation(
        self, alpha: float, psi: PsiFunction, p: float, b: float, c1: float
    ) -> EvolutionEquation:
        coef = {"g" if self.kind == "gfbe" else "K": self.jet(p, b, c1)}
        return EvolutionEquation(self.kind, alpha, psi, **coef)

    def rows(self, alpha: float, p: float, b: float, c1: float) -> list:
        """The case's candidates in :func:`builtin_table`, in table order."""
        self.check(p, b, c1)
        return [c for row, c in builtin_table(alpha, p, b, c1) if row == self.row]

    def published(self, alpha: float, p: float, b: float, c1: float) -> list:
        """The published basis: the x-translation and the case's rows."""
        return [_x_translation(alpha)] + self.rows(alpha, p, b, c1)

    def matches(self, basis: list, alpha: float, p: float, b: float, c1: float) -> bool:
        """Whether basis and the published basis hold the same generators
        (:func:`_same_generator`), each of either found in the other."""
        published = self.published(alpha, p, b, c1)
        return (all(any(_same_generator(g, h) for h in published) for g in basis)
                and all(any(_same_generator(h, g) for g in basis) for h in published))

    def solve(self, alpha: float, p: float, b: float, c1: float) -> list:
        """:func:`solve_ansatz` on the case at order alpha, with its
        parameters checked first."""
        self.check(p, b, c1)
        return _solve(alpha, self.name, {"p": p, "b": b, "c1": c1})


_u = tr.U
CASES = (
    Case("arbitrary g", "gfbe", "arbitrary g",
         lambda p, b, c1: ("add", ("pow", _u, tr.num(2)), _u), None),
    Case("g=u", "gfbe", "g=u", lambda p, b, c1: _u),
    Case("g=u^p", "gfbe", "g=u^p", lambda p, b, c1: ("pow", _u, tr.num(_rational(p))),
         ("p",), ("p",)),
    Case("g=e^(b u)", "gfbe", "g=e^(b u)",
         lambda p, b, c1: ("exp", ("mul", tr.num(_rational(b)), _u)), ("b",), ("b",)),
    Case("g=u/(1+u)", "gfbe", "g=u/(1+u)", lambda p, b, c1: _ratio(_u, ("add", tr.ONE, _u))),
    Case("K=1", "diffusion", "K=1", lambda p, b, c1: tr.ONE),
    # name and row differ: bench/workloads.py matches both spellings
    Case("K=power-law", "diffusion", "K=(c1+3u)^(-4/3)",
         lambda p, b, c1: ("pow", ("add", tr.num(_rational(c1)), ("mul", tr.num(3), _u)),
                           tr.num(Fraction(-4, 3))), ("c1",)),
)


def lookup_case(name: str, kind: Optional[str] = None) -> Case:
    """The registered case called name, of family kind when given."""
    for case in CASES:
        if case.name == name and kind in (None, case.kind):
            return case
    raise DomainError(f"unknown {kind + ' ' if kind else ''}case '{name}'")
