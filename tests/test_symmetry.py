import math
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp

from psifrac import fracops as fo
from psifrac import prolong as pr
from psifrac import selftest as st
from psifrac import symmetry as sy
from psifrac import tree as tr
from psifrac.errors import DomainError
from psifrac.fracops import frac_deriv_psi_powers
from psifrac.jets import JetFunction, T, U, W, X, compiled
from psifrac.psi import builtin
from psifrac.special import gamma, gen_binom, rgamma

# jet coordinates as independent variables, in the references below
UX = sp.Symbol("u_x", real=True)
UXX = sp.Symbol("u_xx", real=True)

ALPHA = 0.5
IDENTITY = builtin("identity", 0.0, 2.0)
POWER = builtin("power", 0.5, 2.0)
PSIS = [IDENTITY, POWER]

G_OF = {
    "g=u": U,
    "g=u^p": U**2,
    "g=e^(b u)": sp.exp(U),
    "g=u/(1+u)": U / (1 + U),
}


def _table(case):
    return [c for cs, c in sy.builtin_table(ALPHA) if cs == case]


def _scaling(theta, rho=0, c1=None, xi=X):
    return sy.GeneratorCandidate(
        "candidate",
        reduced=pr.ReducedInfinitesimals(
            ALPHA,
            JetFunction(sp.sympify(xi), (X,)),
            0.0,
            2.0 / ALPHA if c1 is None else c1,
            0.0,
            JetFunction(sp.sympify(theta), (X,)),
            JetFunction(sp.sympify(rho), (X, W)),
        ),
    )


# -- plumbing ----------------------------------------------------------------


def test_probes_are_the_seeded_draws_the_benchmark_mirrors():
    rng = np.random.default_rng(20230815)
    assert sy._JET_PROBES == tuple(tuple(rng.uniform(-1.5, 1.5, size=2))
                                   for _ in range(2))
    assert sy._U_PROBE == tuple(np.random.default_rng(20230816).uniform(0.5, 1.5, size=4))


def test_report_names_its_grid():
    # t runs from a + 0.2 to a + 1 on the kernel's own interval
    psi = builtin("power", 0.5, 2.0)
    cand = _table("g=u")[0]
    rep = sy.detsys_gfbe(cand, JetFunction.of_u(U), psi, ALPHA)
    assert rep.grid == "5x5x5 nodes, x in [0.2, 1], t in [0.7, 1.5], u in [0.5, 2]"


def test_zero_partials_skip_lambdify(monkeypatch):
    # xi = x + 3/11, a constant theta and rho = 0: xi'', theta', theta'', rho
    # and its partials are 0 by structure, and so is the power sum of rho;
    # no partial at all is lambdified: the systems evaluate trees
    cand = _scaling(-sp.Rational(5, 4), xi=X + sp.Rational(3, 11))
    red = cand.reduced
    g = JetFunction.of_u(U**2 + U / 7)
    assert tr.diff(tr.diff(red.xi.tree, "x"), "x") == tr.ZERO
    assert tr.diff(red.theta.tree, "x") == tr.ZERO
    assert tr.diff(red.rho.tree, "x") == tr.ZERO
    assert tr.power_sum(red.rho.tree, "w") == ()
    want = _concrete_gfbe(cand, g, IDENTITY, ALPHA)

    def refuse(*args, **kwargs):
        raise AssertionError("lambdify in a determining system")

    monkeypatch.setattr(sp, "lambdify", refuse)
    _clear_builders()
    _assert_agree(sy.detsys_gfbe(cand, g, IDENTITY, ALPHA), want)


def test_equation_rejects_constant_g():
    with pytest.raises(DomainError):
        sy.EvolutionEquation("gfbe", ALPHA, IDENTITY, g=JetFunction.of_u(2 + 0 * U))


def test_equation_checks_its_g_once_per_expression(monkeypatch):
    # a sweep builds an equation per check: the second build on an equal g
    # does not differentiate it again
    sy.EvolutionEquation("gfbe", ALPHA, IDENTITY, g=JetFunction.of_u(U**3 + U / 5))

    def refuse(*args, **kwargs):
        raise AssertionError("g differentiated again")

    monkeypatch.setattr(sp, "diff", refuse)
    sy.EvolutionEquation("gfbe", 0.7, POWER, g=JetFunction.of_u(U**3 + U / 5))


def test_equation_rejects_unknown_kind():
    with pytest.raises(DomainError):
        sy.EvolutionEquation("wave", ALPHA, IDENTITY)


def test_linear_term_classification():
    # u_xx is linear with a u-free coefficient; g(u) u_x and (u_x)^2 are not
    assert _is_linear_term(UXX)
    assert _is_linear_term(3 * UX)
    assert not _is_linear_term(U * UX)
    assert not _is_linear_term(UX**2)
    # the reduced classical system splits H as the classification does: u_xx
    # of g(u) u_x + u_xx, K u_xx for a constant K and no term of K = u^2
    # are linear, which decides (1) where rho_xx != 0
    cand = _scaling(X**2 / 2 - X, rho=X**3 * W + W**2, xi=X**2)
    for kind, coef in (("gfbe", U), ("diffusion", sp.Integer(1) + 0 * U),
                       ("diffusion", U**2)):
        eq = sy.EvolutionEquation(kind, ALPHA, CLASSICAL,
                                  **{"g" if kind == "gfbe" else "K": JetFunction.of_u(coef)})
        got, want = sy.detsys_zhang_rl(cand, eq, ALPHA), _concrete_zhang(cand, eq, ALPHA)
        _assert_agree(got, want)
        assert got.equations["1"] > 0.1


def test_candidate_needs_exactly_one_form():
    red = _scaling(-1).reduced
    with pytest.raises(DomainError):
        sy.GeneratorCandidate("both", reduced=red,
                              general=red.to_general(IDENTITY))
    with pytest.raises(DomainError):
        sy.GeneratorCandidate("neither")


def test_case_registry_covers_every_table_row():
    assert {row for row, _ in sy.builtin_table(ALPHA)} == {c.row for c in sy.CASES}
    assert len({c.name for c in sy.CASES}) == len(sy.CASES)
    assert sy.lookup_case("K=1", "diffusion").kind == "diffusion"
    with pytest.raises(DomainError):
        sy.lookup_case("g=u^3")
    with pytest.raises(DomainError):
        sy.lookup_case("K=1", "gfbe")


@pytest.mark.parametrize("name,params", [
    ("g=u^p", {"p": 0.0, "b": 1.0, "c1": 0.0}),
    ("g=e^(b u)", {"p": 2.0, "b": 0.0, "c1": 0.0}),
])
def test_degenerate_case_parameter_is_rejected_before_the_table(monkeypatch, name, params):
    def no_table(*args, **kwargs):
        raise AssertionError("table built for a degenerate parameter")

    monkeypatch.setattr(sy, "builtin_table", no_table)
    case = sy.lookup_case(name)
    with pytest.raises(DomainError):
        case.rows(ALPHA, **params)
    with pytest.raises(DomainError):
        case.jet(**params)
    with pytest.raises(DomainError):
        case.solve(ALPHA, IDENTITY, **params)


def test_case_parameters_are_rationalized_once(monkeypatch):
    # once each, and without nsimplify where a small fraction is the float
    def refuse(*args, **kwargs):
        raise AssertionError("nsimplify on a parameter a fraction gives")

    monkeypatch.setattr(sp, "nsimplify", refuse)
    sy._rational.cache_clear()
    params = {"p": 3.0, "b": 0.5, "c1": 0.25}
    for case in sy.CASES:
        case.published(ALPHA, **params)
        if case.params is not None:
            case.solve(ALPHA, IDENTITY, **params)
    info = sy._rational.cache_info()
    assert (info.misses, info.currsize) == (3, 3)


@pytest.mark.parametrize("v", [0.0, 2.0, 3, -3.0, 0.5, 0.25, 2.5, 0.1, 0.3, 1 / 3, -4 / 3,
                               7 / 9, 1e-3, 123.456, 2**0.5, math.pi, 1e-9, 1e20,
                               float("nan"), float("inf")])
def test_rational_parameters_are_nsimplify(v):
    # the table rows and coefficients keep the exact number sympy's
    # nsimplify gives, so each .expr is the expression it was
    sy._rational.cache_clear()
    got, want = sy._rational(v), sp.nsimplify(v)
    assert tr.to_sympy(tr.num(got)) == want or (math.isnan(v) and got is want), (got, want)


# -- Burgers-type system -------------------------------------------------------


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.name)
def test_x_translation_passes_for_any_g(psi):
    cand = _table("arbitrary g")[0]
    for gexpr in (U, sp.exp(U), U**3 + U):
        rep = sy.detsys_gfbe(cand, JetFunction.of_u(gexpr), psi, ALPHA)
        assert rep.passed
        assert max(rep.equations.values()) == 0.0


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.name)
@pytest.mark.parametrize("case", ["g=u", "g=u^p"])
def test_published_scaling_rows_pass(psi, case):
    (cand,) = _table(case)
    rep = sy.detsys_gfbe(cand, JetFunction.of_u(G_OF[case]), psi, ALPHA, tol=1e-10)
    assert rep.passed, str(rep)


def test_wrong_theta_sign_fails_coupling_equation():
    cand = _scaling(+1)
    rep = sy.detsys_gfbe(cand, JetFunction.of_u(U), IDENTITY, ALPHA)
    assert not rep.passed
    assert rep.equations["iv"] >= 0.1


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.name)
def test_exponential_row_fails_rho_equation(psi):
    # documented defect of the published row: the constant u-shift rho = -1/b
    # is not annihilated by the Riemann-Liouville style derivative, so
    # equation (i) keeps the residual (1/b) w^{-alpha} / Gamma(1-alpha).
    # The row would close under an operator that kills constants instead.
    (cand,) = _table("g=e^(b u)")
    rep = sy.detsys_gfbe(cand, JetFunction.of_u(sp.exp(U)), psi, ALPHA)
    assert not rep.passed
    others = {k: v for k, v in rep.equations.items() if k != "i"}
    assert max(others.values()) <= rep.tol
    w_min = psi(psi.a + 0.2) - psi(psi.a)
    expected = w_min ** (-ALPHA) / math.gamma(1 - ALPHA)
    assert rep.equations["i"] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.name)
def test_rational_row_fails_coupling_equation(psi):
    # documented defect of the published row: with theta = +1 the u/(1+u)
    # coupling equation does not close (its derivation dropped a constant);
    # every other equation is satisfied exactly.
    (cand,) = _table("g=u/(1+u)")
    rep = sy.detsys_gfbe(cand, JetFunction.of_u(U / (1 + U)), psi, ALPHA)
    assert not rep.passed
    others = {k: v for k, v in rep.equations.items() if k != "iv"}
    assert max(others.values()) <= rep.tol
    assert rep.equations["iv"] > 0.1


def test_omega_equation_rejects_moving_lower_limit():
    cand = sy.GeneratorCandidate(
        "tau(a) != 0",
        reduced=pr.ReducedInfinitesimals(
            ALPHA,
            JetFunction(X, (X,)),
            1.0, 0.0, 0.0,
            JetFunction(sp.Integer(0), (X,)),
            JetFunction(sp.Integer(0), (X, W)),
        ),
    )
    rep = sy.detsys_gfbe(cand, JetFunction.of_u(U), IDENTITY, ALPHA)
    assert rep.equations["v"] >= 1e-3


# -- diffusion system ------------------------------------------------------------


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.name)
def test_constant_diffusivity_basis(psi):
    K = JetFunction.of_u(sp.Integer(1) + 0 * U)
    rows = _table("K=1")
    assert len(rows) == 4
    for cand in rows:
        rep = sy.detsys_diffusion(cand, K, psi, ALPHA, tol=1e-10)
        assert rep.passed, f"{cand.label}: {rep}"


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.name)
def test_power_law_diffusivity_projective_generator(psi):
    K = JetFunction.of_u((3 * U) ** sp.Rational(-4, 3))
    (cand,) = _table("K=(c1+3u)^(-4/3)")
    rep = sy.detsys_diffusion(cand, K, psi, ALPHA, tol=1e-10)
    assert rep.passed, str(rep)


def test_k_double_prime_bracket_is_added():
    # K = (3u)^(-4/3) with the published xi = x^2, theta = -3x (the
    # K=(c1+3u)^(-4/3) row at c1 = 0, tau = 0): (iii) as implemented, with
    # the K' bracket added, vanishes identically; the printed sign,
    # subtracting it, leaves -56 3^(2/3) x / (27 u^(7/3))
    K = (3 * U) ** sp.Rational(-4, 3)
    lin = lambda theta: theta * U  # noqa: E731
    bracket = lambda xi, theta: theta - 2 * sp.diff(xi, X)  # noqa: E731
    k1, k2 = sp.diff(K, U), sp.diff(K, U, 2)
    xi, theta = X**2, -3 * X
    assert sp.simplify(lin(theta) * k2 + bracket(xi, theta) * k1) == 0
    printed = lin(theta) * k2 - bracket(xi, theta) * k1
    assert sp.simplify(printed + 56 * 3 ** sp.Rational(2, 3) * X
                       / (27 * U ** sp.Rational(7, 3))) == 0
    # the system's (iii) is the added form: 0 on the row, and on theta =
    # -2.5 x the largest |lin K'' + bracket K'| over the grid
    jet = JetFunction.of_u(K)
    rep = sy.detsys_diffusion(_scaling(theta, c1=0.0, xi=xi), jet, IDENTITY, ALPHA)
    assert rep.equations["iii"] <= 1e-12
    theta = -2.5 * X
    added = sp.lambdify((X, U), lin(theta) * k2 + bracket(xi, theta) * k1)
    want = max(abs(added(x, u)) for x in sy._XS for u in sy._US)
    rep = sy.detsys_diffusion(_scaling(theta, c1=0.0, xi=xi), jet, IDENTITY, ALPHA)
    assert rep.equations["iii"] == pytest.approx(want, rel=1e-13)


def test_diffusion_rejects_wrong_projective_theta():
    K = JetFunction.of_u((3 * U) ** sp.Rational(-4, 3))
    cand = _scaling(theta=3 * X, c1=0.0, xi=X**2)  # sign flipped
    rep = sy.detsys_diffusion(cand, K, IDENTITY, ALPHA)
    assert not rep.passed


@pytest.mark.parametrize("psi", PSIS, ids=lambda p: p.name)
@pytest.mark.parametrize("c1", [0.5, 2.0])
def test_power_law_row_with_shift_fails_rho_equation(psi, c1):
    # like the e^(bu) row: rho = -c1 x is not annihilated by the
    # Riemann-Liouville style derivative, so (i) keeps
    # D^{alpha;psi} rho = -c1 x w^{-alpha} / Gamma(1-alpha), largest at
    # x = 1 and the smallest w on the grid
    case = sy.lookup_case("K=power-law")
    params = dict(sy.CASE_DEFAULTS, c1=c1)
    (cand,) = case.rows(ALPHA, **params)
    rep = sy.detsys_diffusion(cand, case.jet(**params), psi, ALPHA)
    w_min = psi(psi.a + 0.2) - psi(psi.a)
    want = c1 * 1.0 * w_min ** (-ALPHA) / math.gamma(1 - ALPHA)
    assert rep.equations["i"] == pytest.approx(want, rel=1e-12)
    for eq in ("ii", "iii", "iv", "v"):
        assert rep.equations[eq] <= rep.tol, str(rep)


def test_nan_residual_never_passes():
    # with c1 = -3, K = (3u - 3)^(-4/3) is not real at the grid's u < 1
    # (0.5 and 0.875): those nodes give NaN, which must reach the report
    K = JetFunction.of_u((-3 + 3 * U) ** sp.Rational(-4, 3))
    (cand,) = [c for cs, c in sy.builtin_table(ALPHA, c1=-3.0)
               if cs == "K=(c1+3u)^(-4/3)"]
    with np.errstate(invalid="ignore"):
        rep = sy.detsys_diffusion(cand, K, IDENTITY, ALPHA)
    for eq in ("ii", "iii", "iv"):
        assert math.isnan(rep.equations[eq]), rep.equations
    assert not rep.passed


def test_diffusion_order_range_is_enforced():
    K = JetFunction.of_u(sp.Integer(1) + 0 * U)
    with pytest.raises(DomainError):
        sy.detsys_diffusion(_table("K=1")[0], K, IDENTITY, 2.5)


def test_rho_fixture_solves_heat_compatibility():
    # D^{alpha;psi} rho = rho_xx must hold exactly through the power rule
    rho = sy.diffusion_rho_fixture(ALPHA)
    rho_xx = sp.diff(rho, X, 2)
    for psi in PSIS:
        for t in (psi.a + 0.4, psi.a + 0.9):
            w = psi(t) - psi(psi.a)
            for x in (0.3, 0.8):
                lhs = frac_deriv_psi_powers(rho.subs(X, x), ALPHA, w)
                rhs = float(rho_xx.subs({X: x, W: w}))
                assert lhs == pytest.approx(rhs, rel=1e-12)


# -- classical systems -------------------------------------------------------------


def test_classical_reduced_system_accepts_published_scaling():
    (cand,) = _table("g=u")
    psi = builtin("identity", 0.0, 10.0)
    eq = sy.EvolutionEquation("gfbe", ALPHA, psi, g=JetFunction.of_u(U))
    rep = sy.detsys_zhang_rl(cand, eq, ALPHA, tol=1e-10)
    assert rep.passed, str(rep)


def test_classical_reduced_system_needs_fixed_lower_limit():
    cand = sy.GeneratorCandidate(
        "moving",
        reduced=pr.ReducedInfinitesimals(
            ALPHA,
            JetFunction(X, (X,)),
            1.0, 0.0, 0.0,
            JetFunction(sp.Integer(0), (X,)),
            JetFunction(sp.Integer(0), (X, W)),
        ),
    )
    psi = builtin("identity", 0.0, 10.0)
    eq = sy.EvolutionEquation("gfbe", ALPHA, psi, g=JetFunction.of_u(U))
    with pytest.raises(DomainError):
        sy.detsys_zhang_rl(cand, eq, ALPHA)


def test_classical_expanded_system_accepts_scaling():
    psi = builtin("identity", 0.0, 10.0)
    (cand,) = _table("g=u")
    gen = sy.GeneratorCandidate("X2", general=cand.reduced.to_general(psi))
    rep = sy.detsys_gazizov_rl(gen, JetFunction.of_u(U), ALPHA, tol=1e-10)
    assert rep.passed, str(rep)


def test_classical_expanded_system_exponential_case_fails_honestly():
    # the published exponential-case generator carries the constant
    # eta = -1/b, which a Riemann-Liouville style operator does not kill;
    # the fractional equation keeps the residual (1/b) t^{-alpha}/Gamma(1-alpha)
    inf = pr.Infinitesimals.from_exprs(X, 2 * T / ALPHA, sp.Integer(-1))
    cand = sy.GeneratorCandidate("exp case", general=inf)
    rep = sy.detsys_gazizov_rl(cand, JetFunction.of_u(sp.exp(U)), ALPHA)
    assert not rep.passed
    expected = 0.2 ** (-ALPHA) / math.gamma(1 - ALPHA)
    assert rep.equations["v"] == pytest.approx(expected, rel=1e-10)
    others = {k: v for k, v in rep.equations.items() if k != "v"}
    assert max(others.values()) == 0.0


def test_quadratic_tau_alone_fails_family_equations():
    cand = sy.GeneratorCandidate(
        "t^2 only",
        general=pr.Infinitesimals.from_exprs(0, T**2, 0),
    )
    rep = sy.detsys_gazizov_rl(cand, JetFunction.of_u(U), ALPHA)
    assert rep.equations["family"] > 1e-3


def test_gazizov_family_matches_from_scratch_derivatives():
    # each equation of the family against binom(alpha, n) d^n eta_u/dt^n
    # - binom(alpha, n+1) d^{n+1} tau/dt^{n+1} taken from scratch; the
    # family stops where both derivatives vanish, so its tail is 0
    cases = [
        (X * U * T**3 + U * sp.exp(2 * T), T**4 / 3 + sp.cos(T)),
        (U**2 * T**2 + X * U, 2 * T / ALPHA),
        (-U, sp.Integer(0)),
    ]
    terms = sy._GAZIZOV_TERMS
    points = [(0.3, 0.7, 1.2), (0.9, 0.25, 0.6)]
    for eta, tau in cases:
        etau = sp.diff(eta, U)
        got = sy._gazizov_family(tr.diff(tr.from_sympy(eta), "u"),
                                 tr.diff(tr.from_sympy(tau), "t"))
        assert len(got) <= terms
        for n in range(1, terms + 1):
            want = (gen_binom(ALPHA, n) * sp.diff(etau, T, n)
                    - gen_binom(ALPHA, n + 1) * sp.diff(tau, T, n + 1))
            if n > len(got):
                assert sp.expand(want) == 0, (eta, tau, n)
                continue
            dn_etau, dn1_tau = got[n - 1]
            for x, t, u in points:
                at = {"x": x, "t": t, "u": u}
                have = (gen_binom(ALPHA, n) * tr.evaluate(dn_etau, at)
                        - gen_binom(ALPHA, n + 1) * tr.evaluate(dn1_tau, at))
                assert have == pytest.approx(float(want.subs({X: x, T: t, U: u})),
                                             rel=1e-12, abs=1e-12), (eta, tau, n)


def test_builtin_table_hands_out_a_fresh_list():
    first = sy.builtin_table(ALPHA)
    rows = list(first)
    first.clear()
    first.append(("junk", None))
    again = sy.builtin_table(ALPHA)
    assert again == rows and again is not first
    # int and float parameters label their rows as given
    assert sy.builtin_table(ALPHA, p=3)[2][1].label == "X2 for u^3"
    assert sy.builtin_table(ALPHA, p=3.0)[2][1].label == "X2 for u^3.0"


def test_both_classical_methods_agree_on_panel():
    psi = builtin("identity", 0.0, 10.0)
    g = JetFunction.of_u(U)
    eq = sy.EvolutionEquation("gfbe", ALPHA, psi, g=g)
    panel = [
        _scaling(0, c1=0.0, xi=1),
        _scaling(-1),
        _scaling(+1),
        _scaling(-1, c1=1.0),
        _scaling(0, rho=1, c1=0.0, xi=1),
    ]
    panel.append(
        sy.GeneratorCandidate(
            "quadratic tau",
            reduced=pr.ReducedInfinitesimals(
                ALPHA,
                JetFunction(X, (X,)),
                0.0, 2.0 / ALPHA, 0.5,
                JetFunction(sp.Integer(-1), (X,)),
                JetFunction(sp.Integer(0), (X, W)),
            ),
        )
    )
    verdicts = []
    for cand in panel:
        vz = sy.detsys_zhang_rl(cand, eq, ALPHA).passed
        gen = sy.GeneratorCandidate("g", general=cand.reduced.to_general(psi))
        vg = sy.detsys_gazizov_rl(gen, g, ALPHA).passed
        verdicts.append((vz, vg))
    assert all(vz == vg for vz, vg in verdicts)
    assert [vz for vz, _ in verdicts] == [True, True, False, False, False, False]


# -- the power rule outside the grid loops ---------------------------------------

KERNELS = [IDENTITY, POWER, builtin("exponential", 0.0, 1.0)]
CLASSICAL = builtin("identity", 0.0, 10.0)


def _clear_builders():
    """Empty the caches of the systems' trees: their derivatives, power
    sums, and values on the x and u nodes."""
    tr._diff.cache_clear()
    tr._expanded.cache_clear()
    sy._fixed.cache_clear()


def _per_node_reference(run, expr, alpha, node):
    """run() with D^{alpha;psi} of expr, the power sum of the system's
    fractional equation, taken node by node as the systems once did: the
    node's x (and u) substituted into expr, then frac_deriv_psi_powers at
    its w.  node names the variables expr depends on, (x, w) or (x, w, u);
    expr, alpha and node come from the caller, not from the system under
    test."""

    def per_node(_node, _alpha, w, at):
        grid = np.broadcast_arrays(*({X: at["x"], W: w, U: at["u"]}[v] for v in node))
        out = np.empty(grid[0].shape)
        for i in np.ndindex(out.shape):
            sub = {v: float(g[i]) for v, g in zip(node, grid)}
            w_i = sub.pop(W)
            out[i] = frac_deriv_psi_powers(expr.subs(sub), alpha, w_i)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sy, "frac_deriv_psi_powers", per_node)
        return run()


def _assert_same_maxima(run, expr, alpha, node=(X, W)):
    got = run().equations
    want = _per_node_reference(run, expr, alpha, node).equations
    assert got.keys() == want.keys()
    for eq in got:
        assert abs(got[eq] - want[eq]) <= 1e-14, (eq, got[eq], want[eq])


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5])
@pytest.mark.parametrize("params", [dict(sy.CASE_DEFAULTS), {"p": 3, "b": 0.5, "c1": 0.5}],
                         ids=("defaults", "p3-b0.5-c0.5"))
def test_table_residuals_match_the_per_node_power_rule(alpha, params):
    for psi in KERNELS:
        for row, cand in sy.builtin_table(alpha, **params):
            case = next(c for c in sy.CASES if c.row == row)
            system = sy.detsys_gfbe if case.kind == "gfbe" else sy.detsys_diffusion
            jet = case.jet(**params)
            _assert_same_maxima(lambda: system(cand, jet, psi, alpha),
                                cand.reduced.rho.expr, alpha)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_classical_panel_residuals_match_the_per_node_power_rule(alpha):
    eq = sy.lookup_case("g=u").equation(alpha, CLASSICAL, **sy.CASE_DEFAULTS)
    for cand in st._panel(alpha):
        inf = cand.reduced.to_general(CLASSICAL)
        gen = sy.GeneratorCandidate(cand.label, general=inf)
        _assert_same_maxima(lambda: sy.detsys_zhang_rl(cand, eq, alpha),
                            cand.reduced.rho.expr, alpha)
        # eta - u eta_u with u held fixed, in w = t
        eta = inf.eta.expr
        frac_part = sp.expand(eta - U * sp.diff(eta, U)).subs(T, W)
        _assert_same_maxima(lambda: sy.detsys_gazizov_rl(gen, eq.g, alpha),
                            frac_part, alpha, (X, W, U))


def test_each_system_builds_its_power_rule_once_per_generator_shape():
    # the X2 row at two alphas has one rho, and one eta - u eta_u, and the
    # X4 row one rho at one alpha: the second run takes the power sum's
    # terms from the cache
    g = JetFunction.of_u(U)
    k = JetFunction.of_u(sp.Integer(1) + 0 * U)

    def runs(alpha):
        (fixture,) = [c for row, c in sy.builtin_table(0.6)
                      if row == "K=1" and c.label.startswith("X4")]
        (scaling,) = [c for row, c in sy.builtin_table(alpha) if row == "g=u"]
        eq = sy.EvolutionEquation("gfbe", alpha, CLASSICAL, g=g)
        general = sy.GeneratorCandidate("X2", general=scaling.reduced.to_general(CLASSICAL))
        return (
            lambda: sy.detsys_gfbe(scaling, g, IDENTITY, alpha),
            lambda: sy.detsys_diffusion(fixture, k, IDENTITY, alpha),
            lambda: sy.detsys_zhang_rl(scaling, eq, alpha),
            lambda: sy.detsys_gazizov_rl(general, g, alpha),
        )

    for first, second in zip(runs(0.6), runs(0.79)):
        tr._expanded.cache_clear()
        first()
        second()
        info = tr._expanded.cache_info()
        assert (info.misses, info.hits) == (1, 1), info


def test_systems_reject_a_fractional_part_that_is_no_power_sum():
    cand = _scaling(0, rho=sp.exp(W), c1=0.0, xi=1)
    g = JetFunction.of_u(U)
    with pytest.raises(DomainError):
        sy.detsys_gfbe(cand, g, IDENTITY, ALPHA)
    inf = pr.Infinitesimals.from_exprs(X, 2 * T / ALPHA, sp.sin(T))
    with pytest.raises(DomainError):
        sy.detsys_gazizov_rl(sy.GeneratorCandidate("sin", general=inf), g, ALPHA)


# -- the array grid against the node loop it replaced ----------------------------


def _keep_max(r, eq, e):
    """Raise the running maximum r[eq] to e, keeping a NaN once seen; True
    when it moved (the references' loops, as symmetry once had them)."""
    old = r[eq]
    r[eq] = sy._nan_max(old, e)
    return r[eq] is not old


def _grid_desc(ts):
    return (
        f"{len(sy._XS)}x{len(ts)}x{len(sy._US)} nodes, "
        f"x in [{sy._XS[0]:.3g}, {sy._XS[-1]:.3g}], "
        f"t in [{ts[0]:.3g}, {ts[-1]:.3g}], "
        f"u in [{sy._US[0]:.3g}, {sy._US[-1]:.3g}]"
    )


def _loop_grid_max(table, ts, ws, args, frac=None, probes=((),)):
    """The grid as a loop over its nodes, as symmetry had it before the
    array pass: every callable called at one node at a time, the running
    maximum kept by _keep_max, and for each name the node where its maximum
    was last raised.  frac = (name, f) adds f(x, w, u) to each of name's
    equations, or stands for them where name has none.  Returns (r, at),
    and each name's largest |residual| at each node in at[name, node]."""
    r = dict.fromkeys(table, 0.0)
    at = dict.fromkeys(table)
    add, fn = frac or (None, None)
    tails = [(*p, *args) for p in probes]
    items = tuple((name, eqs if eqs or name != add else (lambda *_: 0.0,))
                  for name, eqs in table.items())
    for x in sy._XS:
        for t, w in zip(ts, ws):
            for u in sy._US:
                extra = fn(x, w, u) if fn else 0.0
                for tail in tails:
                    for name, eqs in items:
                        for f in eqs:
                            e = f(x, w, u, *tail)
                            if name == add:
                                e = extra + e
                            _keep_node(r, at, name, abs(e), (x, t, u))
    return r, at


def _keep_node(r, at, eq, e, node):
    """_keep_max on r[eq], with at[eq] the node where it was last raised
    and at[eq, node] the largest e at node."""
    if _keep_max(r, eq, e):
        at[eq] = node
    at[eq, node] = sy._nan_max(at.get((eq, node), 0.0), e)


def _loop_report(r, at, tol, ts, coords):
    """The report of a reference: worst is the first equation whose
    residual is a NaN, or else the first with the largest residual when it
    is not 0, with its node at[name] by the coordinates coords[name].  Its
    ``worst`` is the set of what a report may name instead: that equation
    at any node where it is the maximum to rounding."""
    nans = [name for name, v in r.items() if v != v]
    top = max(r.values()) if not nans else None
    worst = (nans or [name for name, v in r.items() if v == top and v > 0] or [""])[0]
    if not at.get(worst):
        return sy.ResidualReport(r, tol, _grid_desc(ts), {worst})
    near = {node for (eq, node), v in
            ((k, v) for k, v in at.items() if isinstance(k, tuple))
            if eq == worst and (v != v or v >= r[worst] - 1e-12 * (1 + r[worst]))}
    named = set()
    for node in near:
        node = dict(zip("xtu", node))
        named.add(f"{worst} @ " + ", ".join(f"{c}={node[c]:.3g}" for c in coords[worst]))
    return sy.ResidualReport(r, tol, _grid_desc(ts), named)


# -- the sympy tables the trees replaced, as the reference ------------------------
#
# Each determining system as a table of named sympy equations, copied from
# the symmetry module before its systems were evaluated from trees, built
# on the candidate's shape (_numbers_out), with alpha, c1, c2, gamma,
# the binomials and the candidate's numbers as arguments, compiled for
# floats (jets.compiled) and evaluated node by node (_loop_grid_max); the
# fractional part is the per-call power rule as an expression
# (_power_rule_expr), and (v) the omega residual as it was.  The expanded
# system has gained tau(t=0) since, which the reference adds.


def _numbers_out(exprs: tuple) -> tuple:
    """(shapes, numbers): exprs with each sp.Float replaced by a
    placeholder, in order of first appearance in a preorder walk (equal
    floats share one), and the floats by their placeholders, in order."""
    floats = dict.fromkeys(n for e in exprs for n in sp.preorder_traversal(e)
                           if isinstance(n, sp.Float))
    numbers = dict(zip(_placeholders(len(floats)), floats))
    out = {f: s for s, f in numbers.items()}
    return tuple(e.xreplace(out) for e in exprs), numbers


@lru_cache(maxsize=64)
def _placeholders(count: int) -> tuple:
    """The real symbols num_0 .. num_{count-1}, parsed once per count."""
    return sp.symbols(f"num_:{count}", real=True, seq=True)


_ALPHA, _C1, _C2, _GAMMA = sp.symbols("alpha_ c1_ c2_ gamma_", real=True)
_BINOMS = sp.symbols(f"binom_1:{sy._GAZIZOV_TERMS + 2}", real=True)


def _power_rule_expr(expr_in_w, alpha):
    """D^{alpha;psi} of a power sum in w as a sympy expression whose
    coefficients may hold x and u, as fracops built it before its one power
    rule took the trees: sympy's terms in its order, a term at a pole of
    1/Gamma dropped, and the numeric factor of each coefficient times the
    gamma ratio, and the exponent, written with 17 digits."""
    e = sp.expand(sp.sympify(expr_in_w))
    terms = []
    for term in ([] if e == 0 else e.as_ordered_terms()):
        c, rest = term.as_independent(W)
        p = 0.0 if rest == 1 else 1.0 if rest == W else float(rest.exp)
        r = rgamma(p + 1.0 - alpha)
        if r != 0.0:
            k, c = c.as_coeff_Mul()
            terms.append(sp.Float(float(k) * gamma(p + 1.0) * r, 17) * c
                         * W ** sp.Float(p - alpha, 17))
    return sp.Add(*terms)


def _sympy_compile(table, args):
    return {name: tuple(compiled(e, args) for e in eqs if e != 0)
            for name, eqs in table.items()}


def _sympy_fractional_equations(kind, coef, xi, theta, rho):
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


def _terms(equation):
    """All terms effective in H, as expressions in the jet coordinates."""
    if equation.kind == "gfbe":
        return (equation.g.expr * UX, UXX)
    k = equation.K.expr
    return (sp.diff(k, U) * UX**2, k * UXX)


def _is_linear_term(term):
    """A term belongs to V when it is linear in one jet coordinate with a
    u-free coefficient (the paper's classification: u_xx yes, g(u) u_x no)."""
    for v in (UX, UXX):
        c = sp.diff(term, v)
        if c != 0:
            return sp.diff(term, v, 2) == 0 and not (c.has(U) or c.has(UX) or c.has(UXX))
    return False


def _sympy_zhang_equations(terms, xi, theta, rho):
    tau = _C1 * W + _C2 * W**2
    taup = sp.diff(tau, W)
    eta = theta * U + rho + _GAMMA * taup * U
    etau = sp.diff(eta, U)
    xi1 = sp.diff(xi, X)
    zeta1 = sp.diff(eta, X) + (etau - xi1) * UX
    zeta2 = (sp.diff(eta, X, 2) + (2 * sp.diff(etau, X) - sp.diff(xi, X, 2)) * UX
             + sp.diff(etau, U) * UX**2 + (etau - 2 * xi1) * UXX)
    prolong_of = {0: eta, 1: zeta1, 2: zeta2}
    eq1 = eq2 = sp.Integer(0)
    for term in terms:
        eq2 += (etau - _ALPHA * taup) * term - xi * sp.diff(term, X) - tau * sp.diff(term, W)
        linear = _is_linear_term(term)
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
    return {"1": (sp.expand(eq1),), "2": (sp.expand(eq2),)}


def _sympy_gazizov_family(etau, taup, binoms):
    fam = []
    dn_etau, dn1_tau = etau, taup
    for n in range(1, len(binoms)):
        dn_etau, dn1_tau = sp.diff(dn_etau, T), sp.diff(dn1_tau, T)
        if dn_etau == 0 and dn1_tau == 0:
            break
        fam.append(binoms[n - 1] * dn_etau - binoms[n] * dn1_tau)
    return fam


def _sympy_gazizov_table(xi, tau, eta, gexpr):
    etau = sp.diff(eta, U)
    taup = sp.diff(tau, T)
    table = {
        "structure": (sp.diff(xi, U), sp.diff(xi, T), sp.diff(tau, U), sp.diff(tau, X),
                      sp.diff(etau, U)),
        "family": _sympy_gazizov_family(etau, taup, _BINOMS),
        "iii": (sp.diff(xi, X, 2) - _ALPHA * gexpr * taup - 2 * sp.diff(etau, X)
                + gexpr * sp.diff(xi, X) - eta * sp.diff(gexpr, U),),
        "iv": (2 * sp.diff(xi, X) - _ALPHA * taup,),
        "v": (-sp.diff(eta, X, 2) - gexpr * sp.diff(eta, X),),
        "tau(t=0)": (tau.subs(T, 0),),
    }
    return table, sp.expand(eta - U * etau).subs(T, W)


def _sympy_omega_residual(red, psi, alpha, quad):
    if red.c0 == 0.0:
        return 0.0
    w = psi.expr - psi.expr.subs(T, psi.a)
    probe = JetFunction.of_t(sum(c * w**k for k, c in enumerate(sy._U_PROBE)))
    v = 0.0
    for t in sy._ts(psi.a):
        v = sy._nan_max(v, abs(red.c0 * pr.omega_commutator(probe, psi, alpha, t, quad)))
    return v


def _sympy_fractional(kind, candidate, coef, psi, alpha, tol=1e-8, quad=fo.QuadratureSpec()):
    red = candidate.reduced
    ts = sy._ts(psi.a)
    shapes, numbers = _numbers_out((red.xi.expr, red.theta.expr, red.rho.expr))
    table = _sympy_compile(_sympy_fractional_equations(kind, coef.expr, *shapes),
                           (X, W, U, _ALPHA, _C1, _C2, _GAMMA, *numbers))
    frac = compiled(_power_rule_expr(red.rho.expr, alpha), (X, W, U))
    r, at = _loop_grid_max(table, ts, tuple(psi(t) - psi(psi.a) for t in ts),
                           (alpha, red.c1, red.c2, red.gamma, *map(float, numbers.values())),
                           ("i", frac))
    r["v"] = _sympy_omega_residual(red, psi, alpha, quad)
    return _loop_report(r, at, tol, ts, sy._NODES[kind])


def _sympy_zhang(candidate, equation, alpha, tol=1e-8):
    red = candidate.reduced
    ts = sy._ts(0.0)
    shapes, numbers = _numbers_out((red.xi.expr, red.theta.expr, red.rho.expr))
    table = _sympy_compile(_sympy_zhang_equations(_terms(equation), *shapes),
                           (X, W, U, UX, UXX, _ALPHA, _C1, _C2, _GAMMA, *numbers))
    frac = compiled(_power_rule_expr(red.rho.expr, alpha), (X, W, U))
    r, at = _loop_grid_max(table, ts, ts,
                           (alpha, red.c1, red.c2, red.gamma, *map(float, numbers.values())),
                           ("1", frac), sy._JET_PROBES)
    return _loop_report(r, at, tol, ts, sy._NODES["zhang"])


def _sympy_gazizov(candidate, g, alpha, tol=1e-8):
    inf = candidate.general
    ts = sy._ts(0.0)
    shapes, numbers = _numbers_out((inf.xi.expr, inf.tau.expr, inf.eta.expr))
    table, fixed = _sympy_gazizov_table(*shapes, g.expr)
    table = _sympy_compile(table, (X, T, U, _ALPHA, *_BINOMS, *numbers))
    frac = compiled(_power_rule_expr(fixed.xreplace(numbers), alpha), (X, W, U))
    args = (alpha, *[gen_binom(alpha, n) for n in range(1, sy._GAZIZOV_TERMS + 2)],
            *map(float, numbers.values()))
    r, at = _loop_grid_max(table, ts, ts, args, ("v", frac))
    return _loop_report(r, at, tol, ts, sy._NODES["gazizov"])


def _assert_same_worst(got, want, label=None):
    """The worst equation and node of a reference (_loop_report), wherever
    the largest residual is more than rounding and the second largest is
    not within rounding of it (rounding may pick either of two equal
    ones)."""
    top = sorted(want.equations.values(), reverse=True)
    if top[0] > 1e-14 and (len(top) == 1 or top[0] - top[1] > 1e-12 * (1 + top[0])):
        assert got.worst in want.worst, (label, got.worst, want.worst)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.79, 1.5])
@pytest.mark.parametrize("params", [dict(sy.CASE_DEFAULTS), {"p": 3, "b": 0.5, "c1": 0.5}],
                         ids=("defaults", "p3-b0.5-c0.5"))
def test_array_grid_matches_the_node_loop(alpha, params):
    # the trees against the sympy tables they replaced, on every table row,
    # the perturbed and off-table candidates on 3 kernels, and criterion
    # 9's panel through both classical systems: equal verdicts, residuals
    # within 1e-14 (1 + |reference|), (v) repr-equal, the same grid, and the
    # same worst equation and node wherever they are more than rounding
    runs = [(kind, cand, coef, psi) for psi in KERNELS
            for kind, cand, coef in _fractional_reports(alpha, params)]
    eq = sy.lookup_case("g=u").equation(alpha, CLASSICAL, **sy.CASE_DEFAULTS)
    for cand in st._panel(alpha):
        runs.append(("zhang", cand, eq, None))
        general = cand.reduced.to_general(CLASSICAL)
        runs.append(("gazizov", sy.GeneratorCandidate(cand.label, general=general), eq.g, None))
    assert len(runs) == 3 * 17 + 12
    systems = {"gfbe": (sy.detsys_gfbe, _sympy_fractional),
               "diffusion": (sy.detsys_diffusion, _sympy_fractional),
               "zhang": (sy.detsys_zhang_rl, _sympy_zhang),
               "gazizov": (sy.detsys_gazizov_rl, _sympy_gazizov)}
    for kind, cand, coef, psi in runs:
        system, reference = systems[kind]
        if psi is None:
            got, want = system(cand, coef, alpha), reference(cand, coef, alpha)
        else:
            got = system(cand, coef, psi, alpha)
            want = reference(kind, cand, coef, psi, alpha)
        _assert_agree(got, want)
        assert got.grid == want.grid
        if "v" in want.equations and kind != "gazizov":
            assert repr(got.equations["v"]) == repr(want.equations["v"])
        _assert_same_worst(got, want, (kind, cand.label))


def _hand_grid(first, second=None):
    """sy._grid_max and the node loop on a two-name table {a: first, b:
    second} over the classical t nodes: the report, and the loop's (r, at)."""
    second = second or (lambda x, w, u: x)
    ts = sy._ts(0.0)
    w = np.reshape(ts, (1, -1, 1, 1))
    table = {"a": (first(sy._X, w, sy._U),) if first else (),
             "b": (second(sy._X, w, sy._U),)}
    report = sy._grid_max(table, ts, 1e-8, {"a": "xtu", "b": "xtu"})
    return report, _loop_grid_max({"a": (first,) if first else (), "b": (second,)},
                                  ts, ts, ())


def test_grid_keeps_a_nan_and_names_the_first_one():
    # NaN from x = 0.6, t = 0.6, u = 1.25 on; larger finite values before
    def nan_late(x, w, u):
        return np.where((x > 0.5) & (w > 0.5) & (u > 1.0), np.nan, 100 * x * u)

    report, (r_loop, at_loop) = _hand_grid(nan_late)
    assert math.isnan(report.equations["a"]) and math.isnan(r_loop["a"])
    assert report.equations["b"] == r_loop["b"] == 1.0
    assert at_loop["a"] == (sy._XS[2], sy._ts(0.0)[2], sy._US[2])
    assert report.worst == "a @ x=0.6, t=0.6, u=1.25"


def test_grid_gives_a_tie_to_the_first_node():
    # the maximum 1 is taken wherever x > 0.5 and u > 1, and by b at x = 1:
    # a, the first, is the worst, at its first node; a name with no
    # equation reads 0
    def step(x, w, u):
        return 1.0 * (x > 0.5) * (u > 1.0)

    report, (r_loop, at_loop) = _hand_grid(step)
    assert report.equations == r_loop == {"a": 1.0, "b": 1.0}
    assert at_loop["a"] == (sy._XS[2], sy._ts(0.0)[0], sy._US[2])
    assert report.worst == "a @ x=0.6, t=0.2, u=1.25"
    report, (r_loop, at_loop) = _hand_grid(None, step)
    assert report.equations == r_loop == {"a": 0.0, "b": 1.0}
    assert at_loop["a"] is None
    assert report.worst == "b @ x=0.6, t=0.2, u=1.25"


def test_grid_names_no_node_where_nothing_was_raised():
    report, (r_loop, at_loop) = _hand_grid(lambda x, w, u: 0.0 * x, lambda x, w, u: 0.0 * w)
    assert report.equations == r_loop == {"a": 0.0, "b": 0.0}
    assert at_loop["a"] is at_loop["b"] is None
    assert report.worst == ""
    cand = _scaling(0, c1=0.0, xi=1)  # the x-translation: every residual is 0
    assert sy.detsys_gfbe(cand, JetFunction.of_u(U), IDENTITY, ALPHA).worst == ""


def test_worst_names_the_largest_residual_of_any_equation():
    # xi = 1/x fails (ii) with 50 and (iv) with 237.5, the u/(1+u) row (iv)
    # with 8/9; the expanded system names its largest residual too
    cand = _scaling(0, c1=0.0, xi=1 / X)
    rep = sy.detsys_gfbe(cand, JetFunction.of_u(U), IDENTITY, ALPHA)
    assert rep.equations["ii"] == pytest.approx(50.0, rel=1e-14)
    assert rep.equations["iv"] == pytest.approx(237.5, rel=1e-14)
    assert rep.worst == "iv @ x=0.2, t=0.2, u=0.5"
    (row,) = _table("g=u/(1+u)")
    rep = sy.detsys_gfbe(row, sy.lookup_case("g=u/(1+u)").jet(**sy.CASE_DEFAULTS),
                         IDENTITY, ALPHA)
    assert rep.equations["iv"] == pytest.approx(8 / 9, rel=1e-14)
    assert rep.worst == "iv @ x=0.2, t=0.2, u=2"
    gen = sy.GeneratorCandidate("c0", general=_reduced_candidate(
        ALPHA, X, 0.5, 4.0, 0.0, -1).reduced.to_general(CLASSICAL))
    rep = sy.detsys_gazizov_rl(gen, JetFunction.of_u(U), ALPHA)
    assert rep.equations["tau(t=0)"] == 0.5
    assert rep.worst == "tau(t=0) @ x=0.2, u=0.5"


# -- one build per generator shape ------------------------------------------------


def _concrete_zhang(candidate, equation, alpha, tol=1e-8):
    """detsys_zhang_rl built per call, with alpha and the candidate's
    numbers in the expressions: the reference for the build per shape."""
    red = sy._reduced(candidate)
    if red.c0 != 0.0:
        raise DomainError("classical reduced system requires tau(0) = 0")
    ts = sy._ts(0.0)
    gam = red.gamma
    xi = red.xi.expr
    tau = red.c1 * T + red.c2 * T**2
    taup = sp.diff(tau, T)
    eta = red.theta.expr * U + red.rho.expr.subs(W, T) + gam * taup * U
    rho = red.rho.expr.subs(W, T)
    etau = sp.diff(eta, U)
    xi1 = sp.diff(xi, X)
    zeta1 = sp.diff(eta, X) + (etau - xi1) * UX
    zeta2 = (
        sp.diff(eta, X, 2)
        + (2 * sp.diff(etau, X) - sp.diff(xi, X, 2)) * UX
        + sp.diff(etau, U) * UX**2
        + (etau - 2 * xi1) * UXX
    )
    prolong_of = {0: eta, 1: zeta1, 2: zeta2}
    eq1 = eq2 = sp.Integer(0)
    for term in _terms(equation):
        h_x = sp.diff(term, X)
        h_t = sp.diff(term, T)
        eq2 += (etau - alpha * taup) * term - xi * h_x - tau * h_t
        linear = _is_linear_term(term)
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
    f1 = compiled(sp.expand(eq1), (X, T, U, UX, UXX))
    f2 = compiled(sp.expand(eq2), (X, T, U, UX, UXX))
    frac_rho = compiled(_power_rule_expr(red.rho.expr, alpha), (X, W))
    r = {"1": 0.0, "2": 0.0}
    for x in sy._XS:
        for t in ts:
            dfrac = frac_rho(x, t)
            for u in sy._US:
                for ux, uxx in sy._JET_PROBES:
                    _keep_max(r, "1", abs(dfrac + f1(x, t, u, ux, uxx)))
                    _keep_max(r, "2", abs(f2(x, t, u, ux, uxx)))
    return sy.ResidualReport(r, tol, _grid_desc(ts))


def _concrete_family(etau, taup, alpha, terms):
    fam = []
    dn_etau, dn1_tau = etau, taup
    for n in range(1, terms + 1):
        dn_etau, dn1_tau = sp.diff(dn_etau, T), sp.diff(dn1_tau, T)
        if dn_etau == 0 and dn1_tau == 0:
            break
        fam.append(gen_binom(alpha, n) * dn_etau - gen_binom(alpha, n + 1) * dn1_tau)
    return fam


def _concrete_gazizov(candidate, g, alpha, tol=1e-8):
    """detsys_gazizov_rl built per call, with alpha, the binomials and the
    generator's numbers in the expressions."""
    inf = candidate.general
    ts = sy._ts(0.0)
    xi, tau, eta = inf.xi.expr, inf.tau.expr, inf.eta.expr
    etau = sp.diff(eta, U)
    f_struct = [inf.xi._fn((0, 0, 1)), inf.xi._fn((0, 1, 0)), inf.tau._fn((0, 0, 1)),
                inf.tau._fn((1, 0, 0)), inf.eta._fn((0, 0, 2))]
    taup = sp.diff(tau, T)
    eq3 = (
        sp.diff(xi, X, 2)
        - alpha * g.expr * taup
        - 2 * sp.diff(etau, X)
        + g.expr * sp.diff(xi, X)
        - eta * sp.diff(g.expr, U)
    )
    eq4 = 2 * sp.diff(xi, X) - alpha * taup
    xtu = (X, T, U)
    f3, f4 = compiled(eq3, xtu), compiled(eq4, xtu)
    fam = [compiled(e, xtu) for e in _concrete_family(etau, taup, alpha, sy._GAZIZOV_TERMS)]
    frac5 = compiled(_power_rule_expr((eta - U * etau).subs(T, W), alpha), (X, W, U))
    eta_x, eta_xx = inf.eta._fn((1, 0, 0)), inf.eta._fn((2, 0, 0))
    gfn = g._fn((0,))
    tau = inf.tau._fn((0, 0, 0))
    r = {"structure": 0.0, "family": 0.0, "iii": 0.0, "iv": 0.0, "v": 0.0, "tau(t=0)": 0.0}
    for x in sy._XS:
        for u in sy._US:
            _keep_max(r, "tau(t=0)", abs(tau(x, 0.0, u)))
        for t in ts:
            for u in sy._US:
                for f in f_struct:
                    _keep_max(r, "structure", abs(f(x, t, u)))
                for f in fam:
                    _keep_max(r, "family", abs(f(x, t, u)))
                _keep_max(r, "iii", abs(f3(x, t, u)))
                _keep_max(r, "iv", abs(f4(x, t, u)))
                e5 = frac5(x, t, u) - eta_xx(x, t, u) - gfn(u) * eta_x(x, t, u)
                _keep_max(r, "v", abs(e5))
    return sy.ResidualReport(r, tol, _grid_desc(ts))


def _assert_agree(got, want):
    assert got.passed == want.passed, (str(got), str(want))
    assert got.equations.keys() == want.equations.keys()
    for eq, w in want.equations.items():
        g = got.equations[eq]
        same = math.isnan(g) and math.isnan(w) or abs(g - w) <= 1e-14 * (1 + abs(w))
        assert same, (eq, g, w)


def _assert_both_systems_agree(cand, eq, g, alpha):
    """Both classical systems on a reduced candidate (zhang needs c0 = 0)
    against their per-call builds."""
    if cand.reduced.c0 == 0.0:
        _assert_agree(sy.detsys_zhang_rl(cand, eq, alpha), _concrete_zhang(cand, eq, alpha))
    gen = sy.GeneratorCandidate(cand.label, general=cand.reduced.to_general(CLASSICAL))
    _assert_agree(sy.detsys_gazizov_rl(gen, g, alpha), _concrete_gazizov(gen, g, alpha))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.79, 1.5])
def test_classical_panel_matches_the_per_call_build(alpha):
    eq = sy.lookup_case("g=u").equation(alpha, CLASSICAL, **sy.CASE_DEFAULTS)
    for cand in st._panel(alpha):
        _assert_both_systems_agree(cand, eq, eq.g, alpha)


@pytest.mark.parametrize("alpha", [0.5, 0.79])
@pytest.mark.parametrize("params", [dict(sy.CASE_DEFAULTS), dict(sy.CASE_DEFAULTS, p=3, b=0.5)],
                         ids=("defaults", "p3-b0.5"))
def test_classical_table_rows_match_the_per_call_build(alpha, params):
    for case in sy.CASES:
        if case.kind == "gfbe":
            eq = case.equation(alpha, CLASSICAL, **params)
            for cand in case.rows(alpha, **params):
                _assert_both_systems_agree(cand, eq, eq.g, alpha)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.79])
def test_classical_reduced_system_matches_the_per_call_build_on_float_powers(alpha):
    # the K=1 rows, whose X4 rho carries floats as coefficient and exponents
    eq = sy.lookup_case("K=1").equation(alpha, CLASSICAL, **sy.CASE_DEFAULTS)
    for cand in sy.lookup_case("K=1").rows(alpha, **sy.CASE_DEFAULTS):
        _assert_agree(sy.detsys_zhang_rl(cand, eq, alpha), _concrete_zhang(cand, eq, alpha))


def test_classical_candidates_of_this_file_match_the_per_call_build():
    g = JetFunction.of_u(U)
    eq = sy.EvolutionEquation("gfbe", ALPHA, CLASSICAL, g=g)
    panel = [_scaling(0, c1=0.0, xi=1), _scaling(-1), _scaling(+1), _scaling(-1, c1=1.0),
             _scaling(0, rho=1, c1=0.0, xi=1), _scaling(-1, rho=X * W**sp.Float(0.37)),
             _scaling(-sp.Rational(5, 4), xi=X + sp.Rational(3, 11)),
             _scaling(X**2 / 2 - X, rho=X**3 * W + W**2, xi=X**2)]
    for cand in panel + _table("g=u"):
        _assert_both_systems_agree(cand, eq, g, ALPHA)
    general = [
        (X, 2 * T / ALPHA, sp.Integer(-1), sp.exp(U)),
        (0, T**2, 0, U),
        (X, 2 * T / ALPHA, U**2 * T**2 + X * U, U),
        (X, sp.Float(1.25) * T, sp.Float(-0.75) * U + sp.Float(0.5) * T**sp.Float(1.5), U**2),
        (1, 0, -U, U),
    ]
    for xi, tau, eta, gexpr in general:
        gen = sy.GeneratorCandidate("general",
                                    general=pr.Infinitesimals.from_exprs(xi, tau, eta))
        gj = JetFunction.of_u(gexpr)
        _assert_agree(sy.detsys_gazizov_rl(gen, gj, ALPHA), _concrete_gazizov(gen, gj, ALPHA))


def _concrete_gfbe(candidate, g, psi, alpha, tol=1e-8, quad=fo.QuadratureSpec()):
    """detsys_gfbe as a loop over the candidate's compiled partials, per
    call: the reference for the table built once per shape."""
    red = sy._reduced(candidate)
    ts = sy._ts(psi.a)
    gam = red.gamma
    gfn, gpfn = g._fn((0,)), g._fn((1,))
    theta, th1, th2 = red.theta._fn((0,)), red.theta._fn((1,)), red.theta._fn((2,))
    xi1, xi2 = red.xi._fn((1,)), red.xi._fn((2,))
    rho, rho_x, rho_xx = red.rho._fn((0, 0)), red.rho._fn((1, 0)), red.rho._fn((2, 0))
    frac_rho = compiled(_power_rule_expr(red.rho.expr, alpha), (X, W))
    r = {"i": 0.0, "ii": 0.0, "iii": 0.0, "iv": 0.0}
    at = dict.fromkeys(r)

    def keep(eq, e, node):
        _keep_node(r, at, eq, e, node)

    for x in sy._XS:
        for t in ts:
            w = psi(t) - psi(psi.a)
            dtau = red.c1 + 2.0 * red.c2 * w
            keep("i", abs(frac_rho(x, w) - rho_xx(x, w)), (x, t, None))
            keep("ii", abs(alpha * dtau - 2.0 * xi1(x)), (x, t, None))
            for u in sy._US:
                e3 = abs((th1(x) * u + rho_x(x, w)) * gfn(u) + th2(x) * u)
                keep("iii", e3, (x, t, u))
                e4 = abs(
                    (alpha * dtau - xi1(x)) * gfn(u)
                    + (gam * dtau * u + theta(x) * u + rho(x, w)) * gpfn(u)
                    - xi2(x)
                    - 2.0 * th1(x)
                )
                keep("iv", e4, (x, t, u))
    r["v"] = _sympy_omega_residual(red, psi, alpha, quad)
    return _loop_report(r, at, tol, ts, sy._NODES["gfbe"])


def _concrete_diffusion(candidate, K, psi, alpha, tol=1e-8, quad=fo.QuadratureSpec()):
    """detsys_diffusion as a loop over compiled partials, per call."""
    red = sy._reduced(candidate)
    ts = sy._ts(psi.a)
    gam = red.gamma
    kfn, k1fn, k2fn = K._fn((0,)), K._fn((1,)), K._fn((2,))
    constant_k = sp.diff(K.expr, U) == 0
    theta, th1, th2 = red.theta._fn((0,)), red.theta._fn((1,)), red.theta._fn((2,))
    xi1, xi2 = red.xi._fn((1,)), red.xi._fn((2,))
    rho, rho_x, rho_xx = red.rho._fn((0, 0)), red.rho._fn((1, 0)), red.rho._fn((2, 0))
    frac_rho = compiled(_power_rule_expr(red.rho.expr, alpha), (X, W))
    r = {"i": 0.0, "ii": 0.0, "iii": 0.0, "iv": 0.0}
    at = dict.fromkeys(r)

    def keep(eq, e, node):
        _keep_node(r, at, eq, e, node)

    for x in sy._XS:
        for t in ts:
            w = psi(t) - psi(psi.a)
            dtau = red.c1 + 2.0 * red.c2 * w
            dfrac = frac_rho(x, w)
            for u in sy._US:
                node = (x, t, u)
                keep("i", abs((th2(x) * u + rho_xx(x, w)) * kfn(u) - dfrac), node)
                lin = gam * dtau * u + theta(x) * u + rho(x, w)
                if constant_k:
                    keep("ii", abs((alpha * dtau - 2 * xi1(x)) * kfn(u)), node)
                    keep("iii", abs((xi2(x) - 2 * th1(x)) * kfn(u)), node)
                else:
                    e2 = lin * k1fn(u) + (alpha * dtau - 2 * xi1(x)) * kfn(u)
                    keep("ii", abs(e2), node)
                    e3 = lin * k2fn(u) + (
                        (alpha + gam) * dtau - 2 * xi1(x) + theta(x)
                    ) * k1fn(u)
                    keep("iii", abs(e3), node)
                    e4 = 2 * (th1(x) * u + rho_x(x, w)) * k1fn(u) - (
                        xi2(x) - 2 * th1(x)
                    ) * kfn(u)
                    keep("iv", abs(e4), node)
    r["v"] = _sympy_omega_residual(red, psi, alpha, quad)
    return _loop_report(r, at, tol, ts, sy._NODES["diffusion"])


def _reduced_candidate(alpha, xi, c0, c1, c2, theta, rho=0):
    return sy.GeneratorCandidate("candidate", reduced=pr.ReducedInfinitesimals(
        alpha, sy._jx(xi), c0, c1, c2, sy._jx(theta), sy._jxw(rho)))


def _fractional_reports(alpha, params):
    """(kind, candidate, coefficient) for every table row, the g = u
    scaling row with theta, c1 or c0 moved, power-law and constant
    diffusivity candidates off the table: with theta moved, with c2 != 0
    (the gamma path) and c0 != 0, and with c2 != 0 alone, and a Burgers
    candidate whose xi, theta and rho all vary in x."""
    two = 2.0 / alpha
    runs = []
    for row, cand in sy.builtin_table(alpha, **params):
        case = next(c for c in sy.CASES if c.row == row)
        runs.append((case.kind, cand, case.jet(**params)))
    g = JetFunction.of_u(U)
    for c0, c1, theta in ((0.0, two, -0.8), (0.0, two + 0.3, -1), (0.4, two, -1)):
        runs.append(("gfbe", _reduced_candidate(alpha, X, c0, c1, 0.0, theta), g))
    c1 = sp.sympify(sy._rational(params["c1"]))
    power_law = sy.lookup_case("K=power-law").jet(**params)
    runs += [
        ("diffusion", _reduced_candidate(alpha, X**2, 0.0, 0.0, 0.0, -2.5 * X, -c1 * X),
         power_law),
        ("diffusion", _reduced_candidate(alpha, X**2, 0.4, 0.0, 0.3, -3 * X, -c1 * X),
         power_law),
        ("diffusion", _reduced_candidate(alpha, X, 0.0, two, 0.5, 0, X**2 * W),
         sy.lookup_case("K=1").jet(**params)),
        ("gfbe", _reduced_candidate(alpha, X**2, 0.0, two, 0.3, X**2 / 2 - X, X * W**2), g),
    ]
    return runs


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.79, 1.5])
@pytest.mark.parametrize("params", [dict(sy.CASE_DEFAULTS), {"p": 3, "b": 0.5, "c1": 0.5}],
                         ids=("defaults", "p3-b0.5-c0.5"))
def test_fractional_systems_match_the_per_call_loops(alpha, params):
    # equal verdicts, residuals within 1e-14 (1 + |reference|), and the
    # same worst equation and node wherever they are more than rounding
    systems = {"gfbe": (sy.detsys_gfbe, _concrete_gfbe),
               "diffusion": (sy.detsys_diffusion, _concrete_diffusion)}
    runs = _fractional_reports(alpha, params)
    assert len(runs) == 17
    for psi in KERNELS:
        for kind, cand, coef in runs:
            system, reference = systems[kind]
            got, want = system(cand, coef, psi, alpha), reference(cand, coef, psi, alpha)
            _assert_agree(got, want)
            _assert_same_worst(got, want, (kind, cand.label, psi.name))


def _classical_panel_runs(alpha):
    """(label, run) for both classical systems on criterion 9's panel."""
    eq = sy.lookup_case("g=u").equation(alpha, CLASSICAL, **sy.CASE_DEFAULTS)
    runs = []
    for cand in st._panel(alpha):
        gen = sy.GeneratorCandidate(cand.label, general=cand.reduced.to_general(CLASSICAL))
        runs.append((cand.label, lambda c=cand: sy.detsys_zhang_rl(c, eq, alpha)))
        runs.append((cand.label, lambda c=gen: sy.detsys_gazizov_rl(c, eq.g, alpha)))
    return runs


def _fractional_runs(alpha, params=sy.CASE_DEFAULTS):
    """(label, run) for both psi-fractional systems on the candidates of
    :func:`_fractional_reports`, on each kernel."""
    systems = {"gfbe": sy.detsys_gfbe, "diffusion": sy.detsys_diffusion}
    return [(cand.label, lambda k=kind, c=cand, j=coef, p=psi: systems[k](c, j, p, alpha))
            for psi in KERNELS
            for kind, cand, coef in _fractional_reports(alpha, dict(params))]


@pytest.mark.parametrize("first,second,runs", [
    pytest.param(0.5, 0.79, _classical_panel_runs, id="0.5-0.79"),
    pytest.param(0.79, 0.3, _classical_panel_runs, id="0.79-0.3"),
    pytest.param(0.6, 0.79, _fractional_runs, id="fractional-0.6-0.79"),
    pytest.param(0.79, 0.3, _fractional_runs, id="fractional-0.79-0.3"),
])
def test_one_build_serves_every_alpha(monkeypatch, first, second, runs):
    # at a second alpha the systems compile nothing, their power rules
    # included (and nothing is left compiled from other tests at the
    # second alpha)
    compiled.cache_clear()
    _clear_builders()
    for _, run in runs(first):
        run()
    calls = []
    lambdify = sp.lambdify
    monkeypatch.setattr(sp, "lambdify", lambda *a, **k: calls.append((label, a[1]))
                        or lambdify(*a, **k))
    for label, run in runs(second):
        run()
    assert calls == []


# -- ansatz solver ------------------------------------------------------------------


def _reduced_tuple(cand):
    r = cand.reduced
    return (
        sp.expand(r.xi.expr),
        round(r.c0, 12),
        round(r.c1, 12),
        round(r.c2, 12),
        sp.expand(r.theta.expr),
        sp.expand(r.rho.expr),
    )


def _spans_equal(basis_a, basis_b):
    sa = {tuple(map(str, _reduced_tuple(c))) for c in basis_a}
    sb = {tuple(map(str, _reduced_tuple(c))) for c in basis_b}
    return sa == sb


@pytest.mark.parametrize(
    "case,kw",
    [
        ("g=u", {}),
        ("g=u^p", {"p": 2.0}),
        ("g=e^(b u)", {"b": 1.0}),
        ("g=u/(1+u)", {}),
    ],
)
def test_solver_recovers_published_burgers_rows(case, kw):
    eq = sy.EvolutionEquation("gfbe", ALPHA, IDENTITY, g=JetFunction.of_u(G_OF[case]))
    basis = sy.solve_ansatz(eq, case, **kw)
    published = _table(case) + _table("arbitrary g")
    assert _spans_equal(basis, published)


def test_solver_recovers_constant_diffusivity_basis():
    eq = sy.EvolutionEquation(
        "diffusion", ALPHA, IDENTITY, K=JetFunction.of_u(sp.Integer(1) + 0 * U)
    )
    basis = sy.solve_ansatz(eq, "K=1")
    assert len(basis) == 4
    published = _table("K=1")
    assert _spans_equal(basis, published)


def test_solver_power_law_theta_scales_inversely_with_p():
    eq = sy.EvolutionEquation("gfbe", ALPHA, IDENTITY, g=JetFunction.of_u(U**3))
    basis = sy.solve_ansatz(eq, "g=u^p", p=3.0)
    thetas = [c.reduced.theta.expr for c in basis if c.reduced.theta.expr != 0]
    assert thetas == [sp.Rational(-1, 3)]


@pytest.mark.parametrize("alpha", [0.79, 0.83, 0.6068])
def test_solver_scaling_coefficients_are_exact(alpha):
    # alpha * (2 / alpha) is 2 exactly in the ansatz, whatever alpha's digits
    eq = sy.EvolutionEquation("gfbe", alpha, IDENTITY, g=JetFunction.of_u(U**2))
    basis = sy.solve_ansatz(eq, "g=u^p", p=2.0)
    assert basis[1].reduced.theta.expr == sp.Rational(-1, 2)


def test_solver_rejects_bad_parameters():
    eq = sy.EvolutionEquation("gfbe", ALPHA, IDENTITY, g=JetFunction.of_u(U**2))
    with pytest.raises(DomainError):
        sy.solve_ansatz(eq, "g=u^p", p=0.5)
    with pytest.raises(DomainError):
        sy.solve_ansatz(eq, "nonsense")


def _same_span_by_simplify(basis_a, basis_b):
    """selftest._same_span with sympy's simplify in place of expand."""
    def same(a, b):
        ra, rb = a.reduced, b.reduced
        return (all(sp.simplify(p - q) == 0 for p, q in (
            (ra.xi.expr, rb.xi.expr), (ra.theta.expr, rb.theta.expr),
            (ra.rho.expr, rb.rho.expr)))
            and all(abs(p - q) < 1e-12 for p, q in (
                (ra.c0, rb.c0), (ra.c1, rb.c1), (ra.c2, rb.c2))))

    return (all(any(same(g, h) for h in basis_b) for g in basis_a)
            and all(any(same(h, g) for g in basis_a) for h in basis_b))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.79])
@pytest.mark.parametrize("params", [dict(sy.CASE_DEFAULTS), {"p": 3.0, "b": 0.5, "c1": 0.5}],
                         ids=("defaults", "p3-b0.5-c0.5"))
def test_span_comparison_by_expand_agrees_with_simplify(alpha, params):
    # each solved basis against its own published basis, and against every
    # other case's, so that both verdicts occur
    cases = [c for c in sy.CASES if c.params is not None]
    solved = {c.name: c.solve(alpha, IDENTITY, **params) for c in cases}
    for case in cases:
        published = case.published(alpha, **params)
        for name, basis in solved.items():
            want = _same_span_by_simplify(basis, published)
            assert st._same_span(basis, published) == want, (case.name, name)
            assert want == (name == case.name), (case.name, name)
