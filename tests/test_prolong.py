import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from psifrac import fracops as fo
from psifrac import prolong as pr
from psifrac import tree as tr
from psifrac.errors import DomainError
from psifrac.jets import JetFunction, SolutionJet, T, U, W, X
from psifrac.psi import PsiFunction, builtin
from psifrac.selftest import _classical_eta_ref
from psifrac.special import rgamma
from psifrac.taylor import program

IDENTITY = builtin("identity", 0.0, 2.0)
POWER = builtin("power", 0.5, 2.0)

ALPHA = 0.6


def _w_expr(psi):
    return sp.expand(psi.expr - psi.expr.subs(T, psi.a))


# -- representations -----------------------------------------------------------


def test_reduced_shape_is_validated():
    with pytest.raises(DomainError):
        pr.ReducedInfinitesimals(
            ALPHA,
            JetFunction.of_xt(X + T),  # xi must depend on x alone
            0.0, 0.0, 0.0,
            JetFunction(sp.Integer(0), (X,)),
            JetFunction(sp.Integer(0), (X, W)),
        )


def test_reduced_to_general_round_trip():
    red = pr.ReducedInfinitesimals(
        ALPHA,
        JetFunction(X, (X,)),
        0.0, 2.0 / ALPHA, 0.0,
        JetFunction(sp.Integer(-1), (X,)),
        JetFunction(sp.Integer(0), (X, W)),
    )
    gen = red.to_general(IDENTITY)
    # tau in t-units: (2/alpha) t for the identity kernel
    assert sp.simplify(gen.tau.expr - 2 * T / ALPHA) == 0
    assert sp.simplify(gen.eta.expr + U) == 0
    assert red.tau_tilde(IDENTITY) == 0.0


@pytest.mark.parametrize("psi", [IDENTITY, POWER, builtin("exponential", 0.0, 1.0)],
                         ids=lambda p: p.name)
def test_to_general_tau_equals_the_simplified_form(psi):
    # to_general expands tau instead of simplifying it; both are the same
    # function of t, with every tau coefficient nonzero
    red = pr.ReducedInfinitesimals(
        ALPHA, JetFunction(X, (X,)), 0.75, 2.0 / ALPHA, 0.5,
        JetFunction(sp.Integer(-1), (X,)), JetFunction(X * W, (X, W)))
    w = psi.expr - psi.expr.subs(T, psi.a)
    tau_t = (red.c0 + red.c1 * w + red.c2 * w**2) / sp.diff(psi.expr, T)
    assert sp.expand(red.to_general(psi).tau.expr - sp.simplify(tau_t)) == 0


def test_tau_tilde_reflects_c0():
    red = pr.ReducedInfinitesimals(
        ALPHA,
        JetFunction(sp.Integer(0), (X,)),
        3.0, 0.0, 0.0,
        JetFunction(sp.Integer(0), (X,)),
        JetFunction(sp.Integer(0), (X, W)),
    )
    assert red.tau_tilde(IDENTITY) == 3.0
    psi = builtin("exponential", 0.0, 1.0)  # psi'(0) = 1, psi'(a) scaling below
    assert red.tau_tilde(psi) == pytest.approx(3.0 / psi.deriv(0.0))


# -- integer prolongation ------------------------------------------------------


def test_eta_integer_matches_symbolic_first_prolongation():
    xi, tau, eta = X, 2 * T / ALPHA, -U
    inf = pr.Infinitesimals.from_exprs(xi, tau, eta)
    uexpr = X**2 * T + T**2
    jet = SolutionJet.from_expr(uexpr)
    x, t = 0.7, 1.1
    # zeta_1 = D_x(eta) - u_x D_x(xi) - u_t D_x(tau), evaluated on the jet
    ux, ut = sp.diff(uexpr, X), sp.diff(uexpr, T)
    eta_c = eta.subs(U, uexpr)
    zeta1 = sp.diff(eta_c, X) + ux * 0 - ux * sp.diff(xi, X) - ut * sp.diff(tau, X)
    want = float(zeta1.subs({X: x, T: t}))
    assert pr.eta_integer(1, inf, jet, x, t) == pytest.approx(want, rel=1e-12)


def test_eta_m_psi_identity_matches_time_prolongation():
    xi, tau, eta = X, 2 * T / ALPHA, -U
    inf = pr.Infinitesimals.from_exprs(xi, tau, eta)
    uexpr = X**2 * T + T**2
    jet = SolutionJet.from_expr(uexpr)
    x, t = 0.7, 1.1
    ux, ut = sp.diff(uexpr, X), sp.diff(uexpr, T)
    eta_c = eta.subs(U, uexpr)
    zeta_t = sp.diff(eta_c, T) - ux * sp.diff(xi, T) - ut * sp.diff(tau, T) + 0
    # total-derivative form: D_t(eta - xi u_x - tau u_t) + xi u_xt + tau u_tt
    q = eta_c - xi * ux - tau * ut
    want = float(
        (sp.diff(q, T) + xi * sp.diff(ux, T) + tau * sp.diff(ut, T)).subs(
            {X: x, T: t}
        )
    )
    assert pr.eta_m_psi(1, inf, jet, IDENTITY, x, t) == pytest.approx(want, rel=1e-12)


# a generator with u-dependent eta and t-dependent tau on psi = t^2, whose
# psi'(t) = 2t is not constant at the point
M_PSI_GEN = (X, T**2 + 1, X * U + T)
M_PSI_U = X**2 * T + T**3


def test_eta_m_psi_at_order_zero_is_eta_on_the_solution():
    inf = pr.Infinitesimals.from_exprs(*M_PSI_GEN)
    x, t = 0.7, 1.1
    want = float(M_PSI_GEN[2].subs(U, M_PSI_U).subs({X: x, T: t}))
    got = pr.eta_m_psi(0, inf, SolutionJet.from_expr(M_PSI_U), POWER, x, t)
    assert got == pytest.approx(want, rel=1e-12)


def test_eta_m_psi_is_the_prolongation_in_s_equal_psi():
    # in s = psi(t) the field has s-component psi' tau, and its first
    # s-prolongation is D_s eta - u_x D_s xi - u_s D_s(psi' tau), with
    # D_s = (1/psi') D_t along the solution
    xi, tau, eta = M_PSI_GEN
    inf = pr.Infinitesimals.from_exprs(xi, tau, eta)
    x, t = 0.7, 1.1
    dpsi = sp.diff(POWER.expr, T)

    def d_s(e):
        return sp.diff(e, T) / dpsi

    want = float(
        (d_s(eta.subs(U, M_PSI_U)) - sp.diff(M_PSI_U, X) * d_s(xi)
         - d_s(M_PSI_U) * d_s(dpsi * tau)).subs({X: x, T: t})
    )
    got = pr.eta_m_psi(1, inf, SolutionJet.from_expr(M_PSI_U), POWER, x, t)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("psi, want", [
    (IDENTITY, [1.0, 0.7, 0.9799999999999999]),
    (POWER, [1.0, -1.3999999999999995, -8.219999999999999]),
    (builtin("exponential", 0.0, 1.0), [1.0000000000000007, 0.0, -3.7199999999999998]),
], ids=("identity", "power", "exponential"))
def test_eta_m_psi_at_the_lower_limit(psi, want):
    # at t = a, w = 0: the jet series of order m keeps its one term, jets[m],
    # and omega, which would read tau(a), vanishes at the integer order
    inf = pr.Infinitesimals.from_exprs(X, T + 1, U**2)
    wa = _w_expr(psi)
    jet = SolutionJet.from_expr(sp.expand(X * wa + wa**2 + 1))
    assert [pr.eta_m_psi(m, inf, jet, psi, 0.7, psi.a) for m in range(3)] == want


_SEED_CODE = """
from psifrac import prolong as pr
from psifrac.jets import SolutionJet, T, U, X
from psifrac.psi import builtin
psi = builtin("power", 0.5, 2.0)
jet = SolutionJet.from_expr(X**2 * T + T**2)
points = [(x, t) for x in (0.3, 0.7, 1.0) for t in (0.8, 1.1, 1.7)]
inf = pr.Infinitesimals.from_exprs(X, 2 * T / 0.6, -U)
print([repr(pr.eta_m_psi(m, inf, jet, psi, x, t)) for m in (0, 1) for x, t in points])
quadratic = pr.Infinitesimals.from_exprs(X, T**2 - 0.25, U**2 + X * U)
for f in (pr.eta_alpha_psi, pr.eta_alpha_psi_compact, pr.mu_term):
    print([repr(f(g, jet, psi, 0.6, x, t)) for g in (inf, quadratic) for x, t in points])
"""


def test_eta_m_psi_does_not_depend_on_the_hash_seed():
    src = Path(pr.__file__).resolve().parents[1]
    outs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", _SEED_CODE], env=env,
                             capture_output=True, text=True, check=True)
        outs.add(run.stdout)
    assert len(outs) == 1, outs


def test_gamma_contributes_only_with_quadratic_tau():
    def reduced(c2):
        return pr.ReducedInfinitesimals(
            ALPHA, JetFunction(X, (X,)), 0.0, 1.0, c2,
            JetFunction(sp.Integer(0), (X,)), JetFunction(sp.Integer(0), (X, W)))

    assert reduced(0.0).gamma == 0.0
    assert reduced(0.0).eta_expr(IDENTITY) == 0
    assert reduced(1.0).gamma == 0.5 * (ALPHA - 1.0)
    assert sp.expand(reduced(1.0).eta_expr(IDENTITY)
                     - 0.5 * (ALPHA - 1.0) * (2 * T + 1) * U) == 0


# -- classical reduction ---------------------------------------------------------


@pytest.mark.parametrize(
    "gen",
    [
        (sp.sympify(X), 2 * T / ALPHA, -U),
        (X**2, T, X * U),
        (sp.Integer(1), T**2, U**2),
        # xi depends on t, so the xi-sum over D_t^{m;psi} xi has terms
        (X * T, T, -U),
        (X * T**2, 2 * T / ALPHA, -U),
        (X + T**2, T, X * U),
    ],
    ids=("scaling", "shear", "nonlinear-eta", "xi=xt", "xi=xt^2", "xi=x+t^2"),
)
@pytest.mark.parametrize("uexpr", [X**2 * T + T**2, 1 + X * T**3], ids=("u1", "u2"))
def test_expanded_form_reduces_to_classical(gen, uexpr):
    inf = pr.Infinitesimals.from_exprs(*gen)
    jet = SolutionJet.from_expr(uexpr)
    for x, t in ((0.5, 0.7), (1.0, 1.3)):
        got = pr.eta_alpha_psi(inf, jet, IDENTITY, ALPHA, x, t)
        want = _classical_eta_ref(*gen, uexpr, ALPHA, x, t)
        assert got == pytest.approx(want, abs=1e-9)


def test_compact_equals_expanded_for_identity_kernel():
    # linear eta and tau(0) = 0; the second generator's xi depends on t
    jet = SolutionJet.from_expr(X**2 * T + T**2)
    x, t = 0.7, 1.1
    for xi in (X, X * T**2):
        inf = pr.Infinitesimals.from_exprs(xi, 2 * T / ALPHA, -U)
        full = pr.eta_alpha_psi(inf, jet, IDENTITY, ALPHA, x, t)
        compact = pr.eta_alpha_psi_compact(inf, jet, IDENTITY, ALPHA, x, t)
        assert compact == pytest.approx(full, abs=1e-8), xi


def test_compact_and_expanded_differ_off_identity():
    # The two published forms of the prolongation coincide only when psi' is
    # constant: the compact form commutes the time shift through the
    # fractional operator, which is exact just for affine kernels.  The gap
    # below is a property of the formulas, not a numerical artifact.
    wa = _w_expr(POWER)
    inf = pr.Infinitesimals.from_exprs(X, wa / sp.diff(POWER.expr, T), -U)
    jet = SolutionJet.from_expr(sp.expand(X**2 * wa + wa**2))
    x, t = 0.7, 1.4
    full = pr.eta_alpha_psi(inf, jet, POWER, ALPHA, x, t)
    compact = pr.eta_alpha_psi_compact(inf, jet, POWER, ALPHA, x, t)
    assert abs(full - compact) > 1e-3


# -- group-flow oracle ------------------------------------------------------------


def test_prolongation_is_first_order_flow_response():
    # For the scaling group x -> x e^eps, t -> t e^{2 eps/alpha},
    # u -> u e^{-eps} (identity kernel, a = 0 fixed by the flow), the
    # fractional derivative of the transformed solution at the transformed
    # point must equal D^alpha u + eps * eta_alpha + O(eps^2).
    alpha = ALPHA
    inf = pr.Infinitesimals.from_exprs(X, 2 * T / alpha, -U)
    uexpr = X**2 * T + T**2
    jet = SolutionJet.from_expr(uexpr)
    x, t = 0.7, 1.1

    def d_alpha_of(expr_t, tt):
        return fo.frac_deriv_psi_powers(sp.expand(expr_t.subs(T, W)), alpha, tt)

    base = d_alpha_of(uexpr.subs(X, x), t)
    eta_a = pr.eta_alpha_psi(inf, jet, IDENTITY, alpha, x, t)
    resid = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        xs, ts = x * math.exp(eps), t * math.exp(2 * eps / alpha)
        ubar = math.exp(-eps) * uexpr.subs(
            {X: xs * math.exp(-eps), T: T * math.exp(-2 * eps / alpha)}
        )
        moved = d_alpha_of(sp.expand(ubar), ts)
        resid.append(abs(moved - base - eps * eta_a))
    slope = np.polyfit(np.log(eps_list), np.log(resid), 1)[0]
    assert slope >= 1.9


# -- mu ------------------------------------------------------------------------


@pytest.mark.parametrize("psi", [IDENTITY, POWER], ids=lambda p: p.name)
def test_mu_vanishes_iff_eta_linear_in_u(psi):
    wa = _w_expr(psi)
    x, t = 0.7, psi.a + 0.6 * (psi.b - psi.a)
    jet = SolutionJet.from_expr(sp.expand(1 + X * wa + wa**2))
    linear = pr.Infinitesimals.from_exprs(X, 2 * T / ALPHA, (X + wa) * U + X**2)
    assert pr.mu_term(linear, jet, psi, ALPHA, x, t, M=10) == 0.0
    quadratic = pr.Infinitesimals.from_exprs(0, 0, U**2)
    assert abs(pr.mu_term(quadratic, jet, psi, ALPHA, x, t, M=10)) > 1e-6


def test_prolongation_tables_need_no_symbolic_psi_jets(monkeypatch):
    # every table is a Taylor-mode one and omega is in closed form, so no
    # symbolic psi-jet is taken, with tau(a) != 0 too
    def refuse(*args, **kwargs):
        raise AssertionError("symbolic psi-jet in a prolongation table")

    for mod, name in ((fo, "_psi_jet_expr"), (fo, "_psi_jet_fn"), (pr, "_psi_jet_expr"),
                      (pr, "_dt_expr"), (pr, "_fn_xt"), (pr, "_fn_xtu"), (pr, "compiled")):
        monkeypatch.setattr(mod, name, refuse)
    for psi in (IDENTITY, POWER, builtin("exponential", 0.0, 1.0)):
        wa = _w_expr(psi)
        inf = pr.Infinitesimals.from_exprs(X, T - psi.a + 0.5, U**2 + X * U)
        jet = SolutionJet.from_expr(sp.expand(X * wa + wa**2 + 1))
        x, t = 0.7, psi.a + 0.6 * (psi.b - psi.a)
        values = [
            pr.omega_term(inf, jet.u, psi, ALPHA, x, t),
            pr.eta_alpha_psi(inf, jet, psi, ALPHA, x, t),
            pr.eta_alpha_psi_compact(inf, jet, psi, ALPHA, x, t),
            pr.mu_term(inf, jet, psi, ALPHA, x, t),
            pr.eta_m_psi(2, inf, jet, psi, x, t),
        ]
        assert all(math.isfinite(v) for v in values), (psi.name, values)


def test_prolongation_compiles_each_table_once_per_generator():
    # x and u are run-time inputs of the Taylor programs, so new points
    # reuse the programs of the first one
    inf = pr.Infinitesimals.from_exprs(X, 1.3 * T + 0.4, 0.8 * X * U - U + 0.6 * U**2)
    jet = SolutionJet.from_expr(1 + 0.7 * X * T + T**2)
    pr.eta_alpha_psi(inf, jet, IDENTITY, ALPHA, 0.3, 0.4)
    misses = program.cache_info().misses
    for x, t in ((0.5, 0.9), (0.8, 1.3), (1.1, 0.6)):
        pr.eta_alpha_psi(inf, jet, IDENTITY, ALPHA, x, t)
    assert program.cache_info().misses == misses


def test_prolongation_on_a_kernel_given_by_its_expression():
    # psi = t + t^3 is given only by its expression, with no closed-form
    # inverse; its symbolic psi-jets grow past what lambdify can compile
    # within the default 12 orders, and its Taylor jets take the general path
    psi = PsiFunction("cubic", 0.1, 2.0, expr=T + T**3)
    wa = _w_expr(psi)
    uexpr = sp.expand(X * wa + wa**2)
    inf = pr.Infinitesimals.from_exprs(X, T - 0.1, U**2 + X * U)
    jet = SolutionJet.from_expr(uexpr)
    x, t = 0.7, 1.2
    expanded = pr.eta_alpha_psi(inf, jet, psi, ALPHA, x, t)
    mu = pr.mu_term(inf, jet, psi, ALPHA, x, t)
    compact = pr.eta_alpha_psi_compact(inf, jet, psi, ALPHA, x, t, terms=40)
    assert all(math.isfinite(v) for v in (expanded, mu, compact))
    # D^alpha Q + xi D^alpha u_x + tau psi' D^{alpha+1} u, by the quadrature
    quad = fo.QuadratureSpec(128)
    q = uexpr**2 + X * uexpr - X * sp.diff(uexpr, X) - (T - 0.1) * sp.diff(uexpr, T)

    def d(e, nu):
        return fo.frac_derivative(JetFunction.of_t(e.subs(X, x)), psi, nu, t, quad)

    want = (d(q, ALPHA) + x * d(sp.diff(uexpr, X), ALPHA)
            + (t - 0.1) * psi.deriv(t) * d(uexpr, ALPHA + 1))
    assert compact == pytest.approx(want, rel=1e-6)


def test_mu_quadratic_slope_coefficient():
    # coefficient of (D_t^{1;psi} u)^2 in mu for eta = u^2 equals
    # (1/2) alpha (alpha - 1) D^{alpha-2;psi}(eta_uu)
    psi = POWER
    alpha = 0.5
    x, t = 0.7, 1.4
    wa = _w_expr(psi)
    w = psi(t) - psi(psi.a)
    sq = pr.Infinitesimals.from_exprs(0, 0, U**2)

    def mu_at(p):
        uexpr = 1.2 + p * (wa - w) + 0.3 * (wa - w) ** 2 + 0.2 * (wa - w) ** 3
        return pr.mu_term(sq, SolutionJet.from_expr(sp.expand(uexpr)), psi,
                          alpha, x, t, M=10)

    coef = (mu_at(1.5) - 2 * mu_at(1.0) + mu_at(0.5)) / (2 * 0.5**2)
    want = alpha * (alpha - 1) * w ** (2 - alpha) * rgamma(3 - alpha)
    assert coef == pytest.approx(want, rel=1e-9)


# -- omega ------------------------------------------------------------------------


def test_omega_exactly_zero_when_tau_vanishes_at_a():
    inf = pr.Infinitesimals.from_exprs(X, 2 * T / ALPHA, -U)
    u = JetFunction.of_t(1 + T + T**2)
    assert pr.omega_term(inf, u, IDENTITY, ALPHA, 0.5, 1.0) == 0.0


# the built-in kernels and one given by its expression alone
_OMEGA_KERNELS = (IDENTITY, POWER, builtin("exponential", 0.0, 1.0),
                  PsiFunction("cubic", 0.1, 2.0, expr=T + T**3))


@pytest.mark.parametrize("alpha", (0.3, 0.7, 1.4, 2.3))
@pytest.mark.parametrize("psi", _OMEGA_KERNELS, ids=lambda p: p.name)
def test_omega_closed_form_is_the_quadrature_commutator(psi, alpha):
    # omega = psi'(a) tau~ [D^{alpha;psi}, D^{1;psi}] u, the commutator taken
    # as the difference of two quadrature derivatives; tau~ reads u(a)
    wa = _w_expr(psi)
    x, t = 0.7, psi.a + 0.6 * (psi.b - psi.a)
    inf = pr.Infinitesimals.from_exprs(X, 0.4 * U + T + 0.5, -U)
    for u in (sp.expand(1.3 + 0.8 * wa + 0.6 * wa**2 + 0.4 * wa**3), X * sp.exp(T)):
        u_t = JetFunction.of_t(u.subs(X, x))
        tau_tilde = 0.4 * u_t(psi.a) + psi.a + 0.5
        want = psi.deriv(psi.a) * tau_tilde * pr.omega_commutator(u_t, psi, alpha, t)
        got = pr.omega_term(inf, JetFunction.of_xt(u), psi, alpha, x, t)
        assert got == pytest.approx(want, rel=1e-10), u
        # the solution may also be given as a function of t alone
        assert pr.omega_term(inf, u_t, psi, alpha, x, t) == pytest.approx(got, rel=1e-15)


@pytest.mark.parametrize("alpha", (0.3, 1.4))
def test_omega_reads_a_fractional_power_of_psi_at_a(alpha):
    # u = w^1.5 + 1 from a = 0: u(a) = 0^1.5 + 1 is a value, though u has
    # no Taylor series there
    x, t = 0.7, 1.2
    inf = pr.Infinitesimals.from_exprs(X, T + 0.5, -U)
    for u, u_a in ((T**1.5 + 1, 1.0), (X * T**1.5 + T**2.5, 0.0)):
        want = -0.5 * u_a * t ** (-alpha - 1.0) * rgamma(-alpha)
        assert pr.omega_term(inf, JetFunction.of_xt(u), IDENTITY, alpha, x, t) == want


@pytest.mark.parametrize("psi", _OMEGA_KERNELS, ids=lambda p: p.name)
def test_omega_is_exactly_zero_at_integer_orders_and_where_tau_vanishes(psi):
    x, t = 0.7, psi.a + 0.6 * (psi.b - psi.a)
    u = JetFunction.of_xt(X * sp.exp(T))
    moving = pr.Infinitesimals.from_exprs(X, T + 0.5, -U)
    for alpha in (1, 2.0, 3):
        assert pr.omega_term(moving, u, psi, alpha, x, t) == 0.0
    fixed = pr.Infinitesimals.from_exprs(X, (T - psi.a) * (1 + U), -U)
    reduced = pr.ReducedInfinitesimals(
        ALPHA, JetFunction(X, (X,)), 0.0, 1.0, 0.0,
        JetFunction(sp.Integer(0), (X,)), JetFunction(sp.Integer(0), (X, W)))
    for inf in (fixed, reduced):
        assert pr.omega_term(inf, u, psi, ALPHA, x, t) == 0.0


@pytest.mark.parametrize("psi", [IDENTITY, POWER], ids=lambda p: p.name)
def test_commutator_matches_power_sum_closed_form(psi):
    # [D^{alpha;psi}, D^{1;psi}] u = alpha u(a) w^{-alpha-1} / Gamma(1-alpha):
    # only the constant jet component survives the commutator
    wa = _w_expr(psi)
    c0 = 1.3
    u = JetFunction.of_t(sp.expand(c0 + 0.8 * wa + 0.6 * wa**2 + 0.4 * wa**3))
    t = psi.a + 0.5 * (psi.b - psi.a)
    w = psi(t) - psi(psi.a)
    for alpha in (0.5, 1.4, 2.3):
        want = alpha * c0 * w ** (-alpha - 1) * rgamma(1 - alpha)
        got = pr.omega_commutator(u, psi, alpha, t)
        assert got == pytest.approx(want, rel=1e-10), alpha
    assert pr.omega_commutator(u, psi, 2.0, t) == 0.0


def test_omega_scales_with_tau_tilde_and_kernel_slope():
    psi = POWER  # psi'(a) = 2a = 1.0 at a = 0.5
    alpha = 0.5
    wa = _w_expr(psi)
    u = JetFunction.of_t(sp.expand(1.0 + wa))
    t = 1.4
    comm = pr.omega_commutator(u, psi, alpha, t)
    red = pr.ReducedInfinitesimals(
        alpha,
        JetFunction(sp.Integer(0), (X,)),
        2.0, 0.0, 0.0,
        JetFunction(sp.Integer(0), (X,)),
        JetFunction(sp.Integer(0), (X, W)),
    )
    got = pr.omega_term(red, u, psi, alpha, 0.5, t)
    # psi'(a) * (c0 / psi'(a)) * commutator = c0 * commutator
    assert got == pytest.approx(2.0 * comm, rel=1e-10)


# -- derivatives of trees, cached per tree --------------------------------------

_KERNELS = (IDENTITY, POWER, builtin("exponential", 0.0, 2.0))


def _generator(psi, c):
    """A generator and jet of one shape with the numbers c: eta quadratic
    in u (mu), tau(a) != 0 (omega)."""
    wa = _w_expr(psi)
    inf = pr.Infinitesimals.from_exprs(c[0] * X**2, c[1] * T + c[2],
                                       c[3] * X * U - U + c[4] * U**2)
    return inf, SolutionJet.from_expr(sp.expand(1 + c[5] * X * wa + wa**2))


def _prolongation_values(psi, inf, jet, integer=True):
    x, t = 0.7, psi.a + 0.6 * (psi.b - psi.a)
    u_t = JetFunction.of_t(jet.expr.subs(X, x))
    values = [pr.eta_alpha_psi(inf, jet, psi, ALPHA, x, t),
              pr.mu_term(inf, jet, psi, ALPHA, x, t),
              pr.omega_term(inf, u_t, psi, ALPHA, x, t),
              pr.eta_alpha_psi_compact(inf, jet, psi, ALPHA, x, t),
              pr.eta_m_psi(2, inf, jet, psi, x, t)]
    return values + [pr.eta_integer(2, inf, jet, x, t)] if integer else values


@pytest.mark.parametrize("psi", _KERNELS, ids=lambda p: p.name)
def test_prolongation_values_do_not_depend_on_the_tree_caches(psi):
    # derivatives, expansions and Taylor programs are cached per tree: the
    # values read from the caches are those of the trees built afresh
    numbers = ((1.13, 0.71, 0.37, 1.9, 0.55, 1.27), (0.83, 1.41, 0.29, 1.07, 1.66, 0.58))
    for cache in (tr._diff, tr._expanded, program):
        cache.cache_clear()
    cold = [_prolongation_values(psi, *_generator(psi, c)) for c in numbers]
    warm = [_prolongation_values(psi, *_generator(psi, c)) for c in numbers]
    assert tr._expanded.cache_info().hits and program.cache_info().hits
    assert repr(cold) == repr(warm)
    assert all(v != 0.0 for values in cold for v in values), cold


def test_a_second_generator_of_a_shape_is_not_differentiated(monkeypatch):
    # the prolongation differentiates trees (tree.diff), and omega, in
    # closed form, takes no psi-jets: sympy differentiates nothing for a
    # second generator of the first's shape, or for eta_integer
    psi = POWER
    first = (1.13, 0.71, 0.37, 1.9, 0.55, 1.27)
    _prolongation_values(psi, *_generator(psi, first))
    calls, diff = [], sp.diff
    monkeypatch.setattr(sp, "diff", lambda *a: calls.append(a) or diff(*a))
    second = _generator(psi, tuple(c / 2 for c in first))
    values = _prolongation_values(psi, *second, integer=False)
    assert all(math.isfinite(v) for v in values)
    assert values[2] != 0.0  # tau(a) != 0: omega is there
    assert calls == [], calls
    # nor does eta_integer, for its higher x-derivatives
    pr.eta_integer(2, *second, 0.7, 1.0)
    assert calls == [], calls
