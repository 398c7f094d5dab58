"""Determining-equation systems and symmetry verification.

Each determining system is exposed as a residual functional: given a
candidate generator it evaluates every equation of the system on a grid
of (x, t, u) nodes and reports the max-abs residual per equation.  A
candidate is accepted when every residual is below tolerance.

The grid is fixed: 5 x 5 x 5 equispaced nodes with x and t - a in
[0.2, 1] and u in [0.5, 2], two fixed (u_x, u_xx) probes for the free jet
coordinates, and a fixed cubic in w as the omega equation's u.

Four systems are provided: the psi-fractional Burgers system and the
psi-fractional diffusion system (reduced-form candidates, arbitrary
admissible psi), and the two classical formulations (reduced two-equation
form and the expanded five-block form) used for cross-method agreement
checks.  A small ansatz solver reproduces the closed-form generator
bases case by case.

Each system is a table of named sympy equations, compiled for numpy
arrays once per coefficient and generator shape (its floats taken out),
with alpha, the generator's floats and the like as run-time arguments;
:func:`_grid_max` calls each equation of any table once, on the whole
grid.  The fractional term, D^{alpha;psi} rho (or, in the expanded
system, of eta - u eta_u with u fixed), is built once per shape too
(:func:`_power_rule`): per call come only its gamma ratios and the omega
quadrature.  Nothing calls ``simplify``.

:data:`CASES` is the one registry of the g(u) and K(u) cases: each
:class:`Case` names its coefficient, its family, its :func:`builtin_table`
row and its solver parameters, and builds its equation and its published
basis from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np
import sympy as sp

from .errors import DomainError
from .fracops import QuadratureSpec, power_rule_expr
from .jets import T, U, W, X, JetFunction, _numbers_out, compiled, compiled_array
from .prolong import (
    Infinitesimals,
    ReducedInfinitesimals,
    omega_commutator,
)
from .psi import PsiFunction
from .special import gamma, gen_binom, rgamma

__all__ = [
    "UX",
    "UXX",
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

# jet coordinates treated as independent variables in determining systems
UX = sp.Symbol("u_x", real=True)
UXX = sp.Symbol("u_xx", real=True)


# the residual grid: x and u nodes, and the t nodes as offsets from a
_XS = tuple(np.linspace(0.2, 1.0, 5))
_US = tuple(np.linspace(0.5, 2.0, 5))


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


@dataclass(frozen=True)
class EvolutionEquation:
    """D^{alpha;psi} u = H[u] with H split into terms.

    kind 'gfbe' carries g(u) (H = g(u) u_x + u_xx), 'diffusion' carries
    K(u) (H = (K(u) u_x)_x).
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
            if _constant_in_u(self.g.expr):
                raise DomainError("g(u) must not be constant")
        if self.kind == "diffusion" and self.K is None:
            raise DomainError("diffusion needs K(u)")

    def terms(self) -> tuple:
        """All terms effective in H, as expressions in the jet coordinates."""
        if self.kind == "gfbe":
            return (self.g.expr * UX, UXX)
        k = self.K.expr
        return (sp.diff(k, U) * UX**2, k * UXX)

    @staticmethod
    def is_linear_term(term: sp.Expr) -> bool:
        """A term belongs to V when it is linear in one jet coordinate with
        a u-free coefficient (the paper's classification: u_xx yes,
        g(u) u_x no)."""
        for v in (UX, UXX):
            c = sp.diff(term, v)
            if c != 0:
                return sp.diff(term, v, 2) == 0 and not (
                    c.has(U) or c.has(UX) or c.has(UXX)
                )
        return False


# a sweep builds an equation per check, on a handful of coefficients
@lru_cache(maxsize=64)
def _constant_in_u(expr) -> bool:
    return sp.diff(expr, U) == 0


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
    w = psi.expr - psi.expr.subs(T, psi.a)
    probe = JetFunction.of_t(sum(c * w**k for k, c in enumerate(_U_PROBE)))
    v = 0.0
    for t in _ts(psi.a):
        v = _nan_max(v, abs(red.c0 * omega_commutator(probe, psi, alpha, t, quad)))
    return v


# -- tables and the grid --------------------------------------------------------

# the run-time arguments of the tables: alpha, a reduced candidate's c1, c2
# and gamma, and binom(alpha, n) for n = 1.._GAZIZOV_TERMS + 1
_ALPHA, _C1, _C2, _GAMMA = sp.symbols("alpha_ c1_ c2_ gamma_", real=True)
_BINOMS = sp.symbols(f"binom_1:{_GAZIZOV_TERMS + 2}", real=True)


def _compile(table: dict, args: tuple) -> MappingProxyType:
    """A table of named equations, each name holding a tuple of sympy
    expressions, with each compiled for arrays over args; one that is
    exactly 0 is left out, as its residual is 0 at every node."""
    return MappingProxyType({name: tuple(compiled_array(e, args) for e in eqs if e != 0)
                             for name, eqs in table.items()})


def _grid_max(table, ts: tuple, ws: tuple, args: tuple, frac=None, probes=((),)) -> tuple:
    """(r, at, grid): the max |residual| r[name] of each name of a compiled
    table over the grid, the first node (x, t, u) in (x, t, u, probe)
    order where the first name takes its maximum (None where that is 0),
    and the grid's description.  A NaN is kept, as the maximum and as the
    node: a check that cannot be evaluated somewhere never passes.

    Each callable is called once, on arrays x, w, u and the probe's (u_x,
    u_xx) that broadcast to the grid (x, t, u, probe), then args; ws are
    psi(t) - psi(a) at the t nodes ts, probes the (u_x, u_xx) probes (one
    empty probe for a table without them).  frac = (name, f) adds f(x, w,
    u), evaluated once, to each of name's equations, or stands for them
    where name has none."""
    shape = (len(_XS), len(ts), len(_US), len(probes))
    x, u = np.reshape(_XS, (-1, 1, 1, 1)), np.reshape(_US, (1, 1, -1, 1))
    w = np.reshape(ws, (1, -1, 1, 1))
    jet = [np.reshape(c, (1, 1, 1, -1)) for c in zip(*probes)]
    zero = np.zeros(shape, dtype=int)  # broadcasts a value to the grid, keeping its type
    add, fn = frac or (None, None)
    first, r, at = next(iter(table)), {}, None
    with np.errstate(all="ignore"):
        extra = fn(x, w, u) if fn else 0.0
        for name, eqs in table.items():
            vals = [f(x, w, u, *jet, *args) for f in eqs]
            if name == add:
                vals = [extra + e for e in vals or (0.0,)]
            if not vals:
                r[name] = 0.0
                continue
            a = abs(vals[0] + zero)
            for v in vals[1:]:
                a = np.maximum(a, abs(v + zero))  # a NaN at a node is kept there
            top = a.max()
            r[name] = float(top)  # also where an equation is a constant int
            if name == first and not top <= 0:
                i, j, k = np.unravel_index(a.argmax(), a.shape)[:3]
                at = (_XS[i], ts[j], _US[k])
    grid = (f"{len(_XS)}x{len(ts)}x{len(_US)} nodes, "
            f"x in [{_XS[0]:.3g}, {_XS[-1]:.3g}], t in [{ts[0]:.3g}, {ts[-1]:.3g}], "
            f"u in [{_US[0]:.3g}, {_US[-1]:.3g}]")
    return r, at, grid


# one entry per fractional part's shape, as for the systems' own builds
@lru_cache(maxsize=64)
def _power_rule(shape, placeholders: tuple) -> tuple:
    """(kp, f) for D^{alpha;psi} of shape = sum_j k_j c_j w^p_j, c_j the
    factor in x and u, k_j and p_j numbers that may hold placeholders:
    kp(*numbers) gives the k_j, then the p_j, and f = sum_j R_j c_j w^E_j
    takes arrays (x, w, u), R, E and the numbers, for R_j = k_j
    Gamma(p_j + 1)/Gamma(p_j + 1 - alpha) and E_j = p_j - alpha.
    DomainError where shape is no such sum."""
    terms = []
    e = sp.expand(shape)
    for term in [] if e == 0 else e.as_ordered_terms():
        c, rest = term.as_independent(W)
        base, p = (W, sp.Integer(0)) if rest == 1 else sp.powsimp(rest).as_base_exp()
        if base != W or not p.free_symbols <= set(placeholders):
            raise DomainError(f"term {term} is not of the form c*w**p")
        terms.append((*c.as_independent(X, U, as_Add=False), p))
    ratios = sp.symbols(f"ratio_:{len(terms)}", real=True, seq=True)
    powers = sp.symbols(f"power_:{len(terms)}", real=True, seq=True)
    f = sp.Add(*(r * c * W**q for r, (_, c, _), q in zip(ratios, terms, powers)))
    kp = sp.Tuple(*(k for k, _, _ in terms), *(p for _, _, p in terms))
    return (compiled(kp, placeholders),
            compiled_array(f, (X, W, U, *ratios, *powers, *placeholders)))


def _fractional_part(shape, numbers: dict, alpha: float):
    """D^{alpha;psi} of a power sum in w, given as a shape and its numbers
    (:func:`_numbers_out`), by the exact power rule, as a callable of (x,
    w, u) arrays: its terms come from :func:`_power_rule`, once per shape,
    and a call computes only their gamma ratios, as
    :func:`~psifrac.fracops.frac_deriv_psi_powers` does.  DomainError,
    before any node is evaluated, when it is no sum of integrable powers."""
    try:
        kp, f = _power_rule(shape, tuple(numbers))
    except DomainError:
        power_rule_expr(shape.xreplace(numbers), alpha)  # the error, with the numbers in
        raise
    values = tuple(map(float, numbers.values()))
    nu, kps = float(alpha), kp(*values)
    n = len(kps) // 2
    ratios, powers = [], []
    for k, p in zip(kps[:n], kps[n:]):
        p = float(p)
        if p <= -1:
            raise DomainError(f"non-integrable power w^{p} in {shape.xreplace(numbers)}")
        r = rgamma(p + 1.0 - nu)
        ratios.append(0.0 if r == 0.0 else float(k) * gamma(p + 1.0) * r)
        powers.append(p - nu)
    return lambda x, w, u: f(x, w, u, *ratios, *powers, *values)


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
            - xi'' - 2 theta' = 0
      (v)   omega = 0

    (i)-(iv) come from :func:`_fractional_equations`, compiled once per g
    and generator shape, and so do the terms of D^{alpha;psi} rho; their
    gamma ratios and (v) are computed per call.
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
    built as :func:`detsys_gfbe` is, from :func:`_fractional_equations`.

    K'(u) = 0 dispatches to the shorter constant-diffusivity system.  The
    K'' equation is evaluated with the K' bracket added rather than
    subtracted; the subtracted variant rejects the system's own closed
    form solution K = (3u)^(-4/3), xi = x^2, theta = -3x (pinned by
    tests/test_symmetry.py::test_k_double_prime_bracket_is_added), so the
    sign as printed is treated as a typo.
    """
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"diffusion system needs 0 < alpha <= 2, got {alpha}")
    return _fractional("diffusion", candidate, K, psi, alpha, tol, quad)


def _fractional(kind, candidate, coef, psi, alpha, tol, quad) -> ResidualReport:
    """The psi-fractional system of kind ('gfbe' or 'diffusion') with the
    coefficient coef (g or K) on a reduced candidate."""
    red = _reduced(candidate)
    ts = _ts(psi.a)
    shapes, numbers = _numbers_out((red.xi.expr, red.theta.expr, red.rho.expr))
    table = _fractional_system(kind, coef.expr, *shapes, tuple(numbers))
    args = (alpha, red.c1, red.c2, red.gamma, *map(float, numbers.values()))
    ws = tuple(psi(t) - psi(psi.a) for t in ts)
    r, at, grid = _grid_max(table, ts, ws, args,
                            ("i", _fractional_part(shapes[2], numbers, alpha)))
    r["v"] = _omega_residual(red, psi, alpha, quad)
    worst = "i @ x={:.3g}, t={:.3g}" + (", u={:.3g}" if kind == "diffusion" else "")
    return ResidualReport(r, tol, grid, worst.format(*at) if at else "")


# one entry per kind, coefficient and generator shape, as for _zhang_system
@lru_cache(maxsize=64)
def _fractional_system(kind: str, coef, xi, theta, rho, placeholders: tuple):
    """:func:`_fractional_equations` compiled over (x, w, u, alpha, c1, c2,
    gamma, numbers)."""
    return _compile(_fractional_equations(kind, coef, xi, theta, rho),
                    (X, W, U, _ALPHA, _C1, _C2, _GAMMA, *placeholders))


def _fractional_equations(kind: str, coef, xi, theta, rho) -> dict:
    """(i)-(iv) of the psi-fractional system of kind for the coefficient
    coef(u) (g or K) and xi(x), theta(x), rho(x, w), in the symbols alpha_,
    c1_, c2_ and gamma_; (i) without its D^{alpha;psi} rho, which is added
    by :func:`_grid_max`."""
    dtau = _C1 + 2 * _C2 * W  # D^{1;psi} tau, a polynomial identity in w
    xi1, xi2 = sp.diff(xi, X), sp.diff(xi, X, 2)
    th1, th2 = sp.diff(theta, X), sp.diff(theta, X, 2)
    rho_x, rho_xx = sp.diff(rho, X), sp.diff(rho, X, 2)
    lin = _GAMMA * dtau * U + theta * U + rho
    k1 = sp.diff(coef, U)
    if kind == "gfbe":
        eqs = (-rho_xx, _ALPHA * dtau - 2 * xi1, (th1 * U + rho_x) * coef + th2 * U,
               (_ALPHA * dtau - xi1) * coef + lin * k1 - xi2 - 2 * th1)
    elif k1 == 0:  # constant diffusivity
        eqs = (-(th2 * U + rho_xx) * coef, (_ALPHA * dtau - 2 * xi1) * coef,
               (xi2 - 2 * th1) * coef, sp.Integer(0))
    else:
        eqs = (-(th2 * U + rho_xx) * coef, lin * k1 + (_ALPHA * dtau - 2 * xi1) * coef,
               lin * sp.diff(coef, U, 2) + ((_ALPHA + _GAMMA) * dtau - 2 * xi1 + theta) * k1,
               2 * (th1 * U + rho_x) * k1 - (xi2 - 2 * th1) * coef)
    return {name: (e,) for name, e in zip(("i", "ii", "iii", "iv"), eqs)}


# -- classical expanded system (five blocks) ----------------------------------


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

    The table is built once per generator shape and g
    (:func:`_gazizov_system`), and so are the terms of the fractional
    t-partials in (v): they hold u fixed and come from the exact power
    rule, with only its gamma ratios per call, so eta must be a power sum
    in t (DomainError otherwise, before any node is evaluated).
    """
    if candidate.general is None:
        raise DomainError(f"candidate '{candidate.label}' must be in general form")
    inf = candidate.general
    ts = _ts(0.0)  # psi = t, a = 0
    shapes, numbers = _numbers_out((inf.xi.expr, inf.tau.expr, inf.eta.expr))
    table, fixed = _gazizov_system(shapes, g.expr, tuple(numbers))
    args = (alpha, *[gen_binom(alpha, n) for n in range(1, _GAZIZOV_TERMS + 2)],
            *map(float, numbers.values()))
    r, _, grid = _grid_max(table, ts, ts, args,
                           ("v", _fractional_part(fixed, numbers, alpha)))
    return ResidualReport(r, tol, grid)


# one entry per generator shape and g: a run meets a handful of shapes,
# however many alphas it sweeps, so the bound keeps every one of them
@lru_cache(maxsize=64)
def _gazizov_system(shapes: tuple, gexpr: sp.Expr, placeholders: tuple) -> tuple:
    """The table of the structure block, the family, (iii), (iv) and (v)
    but its fractional part, for xi, tau, eta = shapes and g, compiled over
    (x, t, u, alpha, binoms, numbers) (t in w's place); and (v)'s u-fixed
    part eta - u eta_u in w = t, uncompiled."""
    xi, tau, eta = shapes
    etau = sp.diff(eta, U)
    struct = (sp.diff(xi, U), sp.diff(xi, T), sp.diff(tau, U), sp.diff(tau, X), sp.diff(etau, U))
    taup = sp.diff(tau, T)
    table = {
        "structure": struct,
        "family": _gazizov_family(etau, taup, _BINOMS),
        "iii": (sp.diff(xi, X, 2) - _ALPHA * gexpr * taup - 2 * sp.diff(etau, X)
                + gexpr * sp.diff(xi, X) - eta * sp.diff(gexpr, U),),
        "iv": (2 * sp.diff(xi, X) - _ALPHA * taup,),
        "v": (-sp.diff(eta, X, 2) - gexpr * sp.diff(eta, X),),
    }
    return (_compile(table, (X, T, U, _ALPHA, *_BINOMS, *placeholders)),
            sp.expand(eta - U * etau).subs(T, W))


def _gazizov_family(etau: sp.Expr, taup: sp.Expr, binoms: tuple) -> list:
    """binom(alpha,n) D_t^n(eta_u) - binom(alpha,n+1) D_t^{n+1}(tau), with
    binoms[n-1] = binom(alpha,n), for n = 1..len(binoms)-1, given eta_u and
    D_t tau.  Each derivative is one step from the order before; the list
    ends where both vanish, since every later equation is then 0 too."""
    fam = []
    dn_etau, dn1_tau = etau, taup
    for n in range(1, len(binoms)):
        dn_etau, dn1_tau = sp.diff(dn_etau, T), sp.diff(dn1_tau, T)
        if dn_etau == 0 and dn1_tau == 0:
            break
        fam.append(binoms[n - 1] * dn_etau - binoms[n] * dn1_tau)
    return fam


# -- classical reduced two-equation system ------------------------------------


def detsys_zhang_rl(
    candidate: GeneratorCandidate,
    equation: EvolutionEquation,
    alpha: float,
    tol: float = 1e-8,
) -> ResidualReport:
    """Classical (psi = t, a = 0) reduced two-equation determining system
    for D^alpha u = H[u]:

      (1) D^alpha rho - sum_V H_{u_i} d^i rho / dx^i = 0
      (2) (eta_u - alpha tau') H - xi H_x - tau H_t
          - sum_V H_{u_i} (eta^(i) - d^i rho/dx^i)
          - sum_{W\\V} H_{u_i} eta^(i) = 0,

    with V the H terms linear in a jet coordinate with u-free coefficient.
    The candidate is reduced with c0 = 0 (tau = c1 t + c2 t^2).  The table
    is built once per shape (:func:`_zhang_system`), as are the terms of
    D^alpha rho (their gamma ratios per call), and both equations are
    evaluated at the fixed (u_x, u_xx) probes too.
    """
    red = _reduced(candidate)
    if red.c0 != 0.0:
        raise DomainError("classical reduced system requires tau(0) = 0")
    ts = _ts(0.0)  # psi = t, a = 0
    shapes, numbers = _numbers_out((red.xi.expr, red.theta.expr, red.rho.expr))
    table = _zhang_system(equation.terms(), *shapes, tuple(numbers))
    args = (alpha, red.c1, red.c2, red.gamma, *map(float, numbers.values()))
    r, at, grid = _grid_max(table, ts, ts, args,
                            ("1", _fractional_part(shapes[2], numbers, alpha)), _JET_PROBES)
    worst = "1 @ x={:.3g}, t={:.3g}".format(*at) if at else ""
    return ResidualReport(r, tol, grid, worst)


# one entry per shape of H and of the candidate, as for _gazizov_system
@lru_cache(maxsize=64)
def _zhang_system(terms: tuple, xi, theta, rho, placeholders: tuple):
    """The table of (1) but its D^alpha rho, and (2), for H's terms and xi,
    theta, rho (:func:`_numbers_out`), compiled over (x, w, u, u_x, u_xx,
    alpha, c1, c2, gamma, numbers), w = t classically."""
    tau = _C1 * W + _C2 * W**2
    taup = sp.diff(tau, W)
    eta = theta * U + rho + _GAMMA * taup * U
    etau = sp.diff(eta, U)
    xi1 = sp.diff(xi, X)
    # first and second x-prolongations for xi = xi(x), tau = tau(t)
    zeta1 = sp.diff(eta, X) + (etau - xi1) * UX
    zeta2 = (
        sp.diff(eta, X, 2)
        + (2 * sp.diff(etau, X) - sp.diff(xi, X, 2)) * UX
        + sp.diff(etau, U) * UX**2
        + (etau - 2 * xi1) * UXX
    )
    prolong_of = {0: eta, 1: zeta1, 2: zeta2}
    eq1 = eq2 = sp.Integer(0)
    for term in terms:
        h_x = sp.diff(term, X)
        h_t = sp.diff(term, W)
        eq2 += (etau - _ALPHA * taup) * term - xi * h_x - tau * h_t
        linear = EvolutionEquation.is_linear_term(term)
        for i, v in ((0, U), (1, UX), (2, UXX)):
            c = sp.diff(term, v)
            if c == 0:
                continue
            if linear:
                rho_i = sp.diff(rho, X, i)
                eq1 -= c * rho_i
                eq2 -= c * (prolong_of[i] - rho_i)
            else:
                eq2 -= c * prolong_of[i]
    return _compile({"1": (sp.expand(eq1),), "2": (sp.expand(eq2),)},
                    (X, W, U, UX, UXX, _ALPHA, _C1, _C2, _GAMMA, *placeholders))


# -- closed-form solutions ----------------------------------------------------


def _jx(expr) -> JetFunction:
    return JetFunction(sp.sympify(expr), (X,))


def _jxw(expr) -> JetFunction:
    return JetFunction(sp.sympify(expr), (X, W))


def _generator(alpha, label, xi, c1, theta=0, rho=0) -> GeneratorCandidate:
    """Reduced candidate with c0 = c2 = 0: xi(x) d/dx + c1 w d/dpsi
    + (theta(x) u + rho(x, w)) d/du."""
    return GeneratorCandidate(label, reduced=ReducedInfinitesimals(
        alpha, _jx(xi), 0.0, c1, 0.0, _jx(theta), _jxw(rho)))


def _x_translation(alpha: float) -> GeneratorCandidate:
    return _generator(alpha, "X1: d/dx", 1, 0.0)


def diffusion_rho_fixture(alpha: float) -> sp.Expr:
    """A verified solution of D^{alpha;psi} rho = rho_xx via the power rule:

    rho = Gamma(alpha)/Gamma(2 alpha) w^{2 alpha - 1} + (x^2/2) w^{alpha - 1}.

    The w^{alpha-1} term is annihilated by D^{alpha;psi}; the first term
    maps onto it, matching the second x-derivative exactly.
    """
    return (
        gamma(alpha) / gamma(2 * alpha) * W ** (2 * alpha - 1)
        + X**2 / 2 * W ** (alpha - 1)
    )


#: default case parameters: p in g = u^p, b in g = e^(b u) and c1 in
#: K = (c1 + 3u)^(-4/3)
CASE_DEFAULTS = MappingProxyType({"p": 2.0, "b": 1.0, "c1": 0.0})


@lru_cache(maxsize=256)
def _rational(v: float) -> sp.Expr:
    """sp.nsimplify(v): a case parameter as the exact number the table
    rows, the solver and the coefficients share.  One table build
    rationalizes the same few parameters several times."""
    return sp.nsimplify(v)


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
    two = 2.0 / alpha
    return (
        ("arbitrary g", _x_translation(alpha)),
        ("g=u", _generator(alpha, "X2: x dx + (2w/a) dpsi - u du", X, two, -1)),
        ("g=u^p", _generator(alpha, f"X2 for u^{p}", X, two,
                             sp.Rational(-1) / _rational(p))),
        ("g=e^(b u)", _generator(alpha, f"X2 for e^({b}u)", X, two, 0,
                                 sp.Rational(-1) / _rational(b))),
        ("g=u/(1+u)", _generator(alpha, "X2: x dx + (2w/a) dpsi + u du", X, two, 1)),
        # constant diffusivity basis
        ("K=1", _x_translation(alpha)),
        ("K=1", _generator(alpha, "X2: x dx + (2w/a) dpsi", X, two)),
        ("K=1", _generator(alpha, "X3: u du", 0, 0.0, 1)),
        ("K=1", _generator(alpha, "X4: rho du", 0, 0.0, 0,
                           diffusion_rho_fixture(alpha))),
        # power-law diffusivity K = (c1 + 3u)^(-4/3)
        ("K=(c1+3u)^(-4/3)", _generator(alpha, "X2: x^2 dx - x(c1+3u) du", X**2,
                                        0.0, -3 * X, -_rational(c1) * X)),
    )


def solve_ansatz(equation: EvolutionEquation, case: str, **params) -> list:
    """Solve the determining system under the reduced ansatz for the
    supported closed-form cases, returning a generator basis (always
    including the x-translation).

    Cases: 'g=u', 'g=u^p' (p), 'g=e^(b u)' (b), 'g=u/(1+u)', 'K=1',
    'K=power-law' (c1).  The nonlinear-diffusivity and rational-g cases
    follow the published reduction step by step; the normalization fixes
    the leading xi coefficient to 1.
    """
    alpha = equation.alpha
    basis = [_x_translation(alpha)]
    two = 2.0 / alpha
    # alpha D^{1;psi} tau for D^{1;psi} tau = two, exactly 2: rationalizing
    # alpha and 2/alpha separately leaves a product off by ~1e-15
    adtau = sp.Integer(2)
    th = sp.Symbol("theta0")

    def add(label, xi=X, c1=two, theta=0, rho=0):
        basis.append(_generator(alpha, label, xi, c1, theta, rho))

    if case == "g=u":
        # (iii) forces theta' = 0, rho_x = 0; (i) then rho = 0; (iv) with
        # xi = x, D tau = 2/alpha: (alpha Dtau - 1) u + theta u = 0
        add("scaling", theta=sp.solve(sp.Eq((adtau - 1) + th, 0), th)[0])
    elif case == "g=u^p":
        p = _rational(params.get("p", CASE_DEFAULTS["p"]))
        if p <= 1:
            raise DomainError(f"case g=u^p needs p > 1, got {p}")
        # (iv): (alpha Dtau - xi') + p theta = 0 on the u^p coefficient
        add(f"scaling p={p}", theta=sp.solve(sp.Eq((adtau - 1) + p * th, 0), th)[0])
    elif case == "g=e^(b u)":
        bpar = _rational(params.get("b", CASE_DEFAULTS["b"]))
        if bpar == 0:
            raise DomainError("case g=e^(b u) needs b != 0")
        # theta = 0; (iv): (alpha Dtau - xi') + b rho = 0 with constant rho
        rho0 = sp.Symbol("rho0")
        add(f"scaling b={bpar}",
            rho=sp.solve(sp.Eq((adtau - 1) + bpar * rho0, 0), rho0)[0])
    elif case == "g=u/(1+u)":
        # published reduction keeps the 1/u and 1/u^2 coefficients only:
        # rho = 0 and (alpha Dtau - xi') - theta = 0
        add("scaling", theta=sp.solve(sp.Eq((adtau - 1) - th, 0), th)[0])
    elif case == "K=1":
        add("scaling")
        add("u-scaling", xi=0, c1=0.0, theta=1)
        add("rho du", xi=0, c1=0.0, rho=diffusion_rho_fixture(alpha))
    elif case == "K=power-law":
        c1 = _rational(params.get("c1", CASE_DEFAULTS["c1"]))
        add("projective", xi=X**2, c1=0.0, theta=-3 * X, rho=-c1 * X)
    else:
        raise DomainError(f"unknown case '{case}'")
    return basis


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
    coefficient: Callable[[float, float, float], sp.Expr]
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

    def solve(
        self, alpha: float, psi: PsiFunction, p: float, b: float, c1: float
    ) -> list:
        """:func:`solve_ansatz` on the case's equation and parameters."""
        given = {"p": p, "b": b, "c1": c1}
        kw = {k: given[k] for k in self.params or ()}
        return solve_ansatz(self.equation(alpha, psi, p, b, c1), self.name, **kw)


CASES = (
    Case("arbitrary g", "gfbe", "arbitrary g", lambda p, b, c1: U**2 + U, None),
    Case("g=u", "gfbe", "g=u", lambda p, b, c1: U),
    Case("g=u^p", "gfbe", "g=u^p", lambda p, b, c1: U ** _rational(p), ("p",), ("p",)),
    Case("g=e^(b u)", "gfbe", "g=e^(b u)",
         lambda p, b, c1: sp.exp(_rational(b) * U), ("b",), ("b",)),
    Case("g=u/(1+u)", "gfbe", "g=u/(1+u)", lambda p, b, c1: U / (1 + U)),
    Case("K=1", "diffusion", "K=1", lambda p, b, c1: sp.Integer(1) + 0 * U),
    # name and row differ: bench/workloads.py matches both spellings
    Case("K=power-law", "diffusion", "K=(c1+3u)^(-4/3)",
         lambda p, b, c1: (_rational(c1) + 3 * U) ** sp.Rational(-4, 3), ("c1",)),
)


def lookup_case(name: str, kind: Optional[str] = None) -> Case:
    """The registered case called name, of family kind when given."""
    for case in CASES:
        if case.name == name and kind in (None, case.kind):
            return case
    raise DomainError(f"unknown {kind + ' ' if kind else ''}case '{name}'")
