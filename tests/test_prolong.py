import math

import numpy as np
import pytest
import sympy as sp

from psifrac import fracops as fo
from psifrac import prolong as pr
from psifrac.errors import DomainError
from psifrac.jets import JetFunction, SolutionJet, T, U, W, X
from psifrac.psi import builtin
from psifrac.selftest import _classical_eta_ref
from psifrac.special import rgamma

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


# -- classical reduction ---------------------------------------------------------


@pytest.mark.parametrize(
    "gen",
    [
        (sp.sympify(X), 2 * T / ALPHA, -U),
        (X**2, T, X * U),
        (sp.Integer(1), T**2, U**2),
    ],
    ids=("scaling", "shear", "nonlinear-eta"),
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
    inf = pr.Infinitesimals.from_exprs(X, 2 * T / ALPHA, -U)
    jet = SolutionJet.from_expr(X**2 * T + T**2)
    x, t = 0.7, 1.1
    full = pr.eta_alpha_psi(inf, jet, IDENTITY, ALPHA, x, t)
    compact = pr.eta_alpha_psi_compact(inf, jet, IDENTITY, ALPHA, x, t)
    assert compact == pytest.approx(full, abs=1e-8)


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
