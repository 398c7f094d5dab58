"""Acceptance self-test: ten numbered criteria, one pass/fail line each.

Shared between ``psifrac selftest`` and the acceptance test suite, which
both take the results from :func:`criterion_results`; :func:`run_all`
prints one line per criterion and returns a process exit code (0 iff all
pass).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import sympy as sp

from . import fracops as fo
from . import prolong as pr
from . import symmetry as sy
from .jets import JetFunction, SolutionJet, T, U, W, X
from .psi import builtin
from .special import gen_binom, rgamma

__all__ = ["CriterionResult", "criterion_results", "run_all", "CRITERIA"]

# psi families with intervals on which the series backend (N = 30)
# converges geometrically for non-polynomial f: the jet series in
# w = psi(t) - psi(a) has effective ratio w/(w + psi(a) offsets), so the
# power and exponential windows are kept short.
_DOMAINS = (("identity", 0.0, 2.0), ("power", 1.0, 1.5), ("exponential", 0.0, 0.9))

_ALPHAS = (0.3, 0.5, 1.5)


def _interior(a: float, b: float, n: int = 10):
    return [a + (b - a) * (0.1 + 0.8 * i / (n - 1)) for i in range(n)]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"[{self.index:2d}] {flag}  {self.name}: {self.detail} "
            f"({self.seconds:.1f}s)"
        )


# -- 1: power rule -------------------------------------------------------------


def _c01():
    worst = 0.0
    for name, a, b in _DOMAINS:
        psi = builtin(name, a, b)
        wa = psi.expr - psi.expr.subs(T, a)
        for beta in (1.0, 2.5):
            f = JetFunction.of_t(wa ** sp.nsimplify(beta))
            for alpha in _ALPHAS:
                for t in _interior(a, b):
                    w = psi(t) - psi(a)
                    exact = (
                        math.gamma(beta + 1)
                        / math.gamma(beta + 1 - alpha)
                        * w ** (beta - alpha)
                    )
                    got = fo.frac_derivative(f, psi, alpha, t)
                    worst = sy._nan_max(worst, abs(got - exact) / abs(exact))
    return worst <= 1e-6, f"worst relative error {worst:.2e} (tol 1e-6)"


# -- 2: backend agreement ------------------------------------------------------


def _c02():
    worst_i = worst_d = 0.0
    for name, a, b in _DOMAINS:
        psi = builtin(name, a, b)
        for fexpr in (sp.Integer(1), T, T**2, sp.exp(T)):
            f = JetFunction.of_t(fexpr)
            for alpha in _ALPHAS:
                for t in _interior(a, b):
                    iq = fo.frac_integral(f, psi, alpha, t)
                    isr = fo.frac_integral_series(f, psi, alpha, t, 30).value
                    worst_i = sy._nan_max(worst_i, abs(iq - isr) / (1 + abs(iq)))
                    dq = fo.frac_derivative(f, psi, alpha, t)
                    dsr = fo.frac_derivative_series(f, psi, alpha, t, 30).value
                    worst_d = sy._nan_max(worst_d, abs(dq - dsr) / (1 + abs(dq)))
    ok = worst_i <= 1e-8 and worst_d <= 1e-5
    return ok, f"integral {worst_i:.2e} (tol 1e-8), derivative {worst_d:.2e} (tol 1e-5)"


# -- 3: Leibniz convergence ----------------------------------------------------


def _c03():
    worst_final = 0.0
    monotone = True
    for name, a, b in (("identity", 0.0, 2.0), ("power", 0.5, 2.0)):
        psi = builtin(name, a, b)
        wa = sp.expand(psi.expr - psi.expr.subs(T, a))
        fw, gw = W**2 + 1, W**3 + W
        f = JetFunction.of_t(fw.subs(W, wa))
        g = JetFunction.of_t(gw.subs(W, wa))
        for alpha in (0.5, 1.5):
            for t in (a + 0.4 * (b - a), a + 0.8 * (b - a)):
                w = psi(t) - psi(a)
                direct = fo.frac_deriv_psi_powers(sp.expand(fw * gw), alpha, w)
                errs = [
                    abs(fo.leibniz_product(f, g, psi, alpha, t, terms=n) - direct)
                    for n in range(1, 11)
                ]
                worst_final = sy._nan_max(worst_final, errs[-1])
                for lo, hi in zip(errs[1:], errs[:-1]):
                    if not lo <= hi + 1e-12:  # a NaN breaks it too
                        monotone = False
    ok = worst_final <= 1e-6 and monotone
    return ok, (
        f"error at N=10 {worst_final:.2e} (tol 1e-6), "
        f"monotone non-increasing: {monotone}"
    )


# -- 4: classical reduction ----------------------------------------------------


def _classical_op(expr_t, nu: float, t: float, terms: int = 12) -> float:
    """Classical RL operator (a = 0) of an expression in T, by the jet
    series with plain t-derivatives."""
    acc = 0.0
    d = sp.expand(expr_t)
    for m in range(terms + 1):
        if m > 0:
            d = sp.expand(sp.diff(d, T))
        if d == 0:
            break
        acc += (
            gen_binom(nu, m)
            * t ** (m - nu)
            * rgamma(m + 1 - nu)
            * float(d.subs(T, t))
        )
    return acc


def _c04():
    psi = builtin("identity", 0.0, 2.0)
    alpha = 0.7
    gens = [
        (sp.sympify(X), 2 * T / alpha, -U),
        (X**2, T, X * U),
        (sp.Integer(1), T**2, U**2),
    ]
    jets = [X**2 * T + T**2, 1 + X * T**3]
    pts = [(0.5, 0.7), (1.0, 1.3)]
    worst = 0.0
    for xi, tau, eta in gens:
        inf = pr.Infinitesimals.from_exprs(xi, tau, eta)
        for uexpr in jets:
            jet = SolutionJet.from_expr(uexpr)
            for x, t in pts:
                full = pr.eta_alpha_psi(inf, jet, psi, alpha, x, t)
                ref = _classical_eta_ref(xi, tau, eta, uexpr, alpha, x, t)
                worst = sy._nan_max(worst, abs(full - ref))
    return worst <= 1e-8, f"worst abs deviation {worst:.2e} (tol 1e-8)"


def _classical_eta_ref(xi, tau, eta, uexpr, alpha, x, t, terms=12, M=10):
    """Classical expanded prolongation (psi = t, a = 0), assembled from
    plain sympy derivatives and the classical RL jet series; the oracle
    counterpart of eta_alpha_psi for criterion 4."""
    uval = float(uexpr.subs({X: x, T: t}))
    ux = sp.expand(sp.diff(uexpr, X))
    etau = sp.diff(eta, U)
    xi_c = sp.expand(xi.subs(U, uexpr))
    tau_c = sp.expand(tau.subs(U, uexpr))
    etau_c = sp.expand(etau.subs(U, uexpr))

    def on_solution(expr):  # expression in X, T along the solution, at x
        return sp.expand(expr.subs(X, x))

    def frozen(expr):  # u held fixed at its point value
        return sp.expand(expr.subs({X: x, U: uval}))

    acc = _classical_op(frozen(eta), alpha, t, terms)
    d_alpha_u = _classical_op(on_solution(uexpr), alpha, t, terms)
    dtau1 = float(sp.diff(tau_c, T).subs({X: x, T: t}))
    acc += (float(etau.subs({X: x, T: t, U: uval})) - alpha * dtau1) * d_alpha_u
    acc -= uval * _classical_op(frozen(etau), alpha, t, terms)
    for m in range(1, terms + 1):
        xim = sp.diff(xi_c, T, m)
        if xim != 0:
            acc -= (
                gen_binom(alpha, m)
                * float(xim.subs({X: x, T: t}))
                * _classical_op(on_solution(ux), alpha - m, t, terms)
            )
        cm = gen_binom(alpha, m) * float(
            sp.diff(etau_c, T, m).subs({X: x, T: t})
        ) - gen_binom(alpha, m + 1) * float(
            sp.diff(tau_c, T, m + 1).subs({X: x, T: t})
        )
        if cm != 0.0:
            acc += cm * _classical_op(on_solution(uexpr), alpha - m, t, terms)
    # classical quadruple-sum correction
    eta_k = {}
    for k in range(2, M + 1):
        d = sp.expand(sp.diff(eta, U, k))
        if d == 0:
            break
        eta_k[k] = d
    mu = 0.0
    for m in range(2, M + 1):
        cm = gen_binom(alpha, m) * t ** (m - alpha) * rgamma(m + 1 - alpha)
        for n in range(2, m + 1):
            cn = cm * math.comb(m, n)
            for k in range(2, min(n, max(eta_k) if eta_k else 1) + 1):
                if k not in eta_k:
                    continue
                ek = sp.diff(eta_k[k], T, m - n)
                if ek == 0:
                    continue
                ekv = float(ek.subs({X: x, T: t, U: uval}))
                for r in range(k):
                    un = sp.diff(sp.expand(uexpr**(k - r)), T, n)
                    mu += (
                        cn
                        * math.comb(k, r)
                        / math.factorial(k)
                        * (-uval) ** r
                        * float(un.subs({X: x, T: t}))
                        * ekv
                    )
    return acc + mu


# -- 5: mu law -----------------------------------------------------------------


def _c05():
    worst_lin = worst_coef = 0.0
    for name, a, b in (("identity", 0.0, 2.0), ("power", 0.5, 2.0)):
        psi = builtin(name, a, b)
        alpha = 0.5
        x, t = 0.7, a + 0.6 * (b - a)
        wa = sp.expand(psi.expr - psi.expr.subs(T, a))
        w = psi(t) - psi(a)
        # linear eta: mu must vanish at truncation M = 10
        lin = pr.Infinitesimals.from_exprs(X, 2 * T / alpha, (X + wa) * U + X**2)
        jet = SolutionJet.from_expr(1 + X * wa + wa**2)
        worst_lin = sy._nan_max(
            worst_lin, abs(pr.mu_term(lin, jet, psi, alpha, x, t, M=10))
        )
        # eta = u^2: (D^1 u)^2 coefficient via exact 3-point differencing in
        # the slope p of u = u0 + p (w - w(t)) + ...
        sq = pr.Infinitesimals.from_exprs(0, 0, U**2)

        def mu_at(p):
            uexpr = 1.2 + p * (wa - w) + 0.3 * (wa - w) ** 2 + 0.2 * (wa - w) ** 3
            return pr.mu_term(sq, SolutionJet.from_expr(sp.expand(uexpr)), psi,
                              alpha, x, t, M=10)

        delta = 0.5
        coef = (mu_at(1.0 + delta) - 2 * mu_at(1.0) + mu_at(1.0 - delta)) / (
            2 * delta**2
        )
        # (1/2) alpha (alpha-1) D^{alpha-2;psi}(eta_uu), eta_uu = 2
        exact = alpha * (alpha - 1) * w ** (2 - alpha) * rgamma(3 - alpha)
        worst_coef = sy._nan_max(worst_coef, abs(coef - exact) / abs(exact))
    ok = worst_lin <= 1e-12 and worst_coef <= 1e-6
    return ok, (
        f"|mu| for linear eta {worst_lin:.2e} (tol 1e-12), "
        f"(D^1 u)^2 coefficient rel err {worst_coef:.2e} (tol 1e-6)"
    )


# -- 6: omega law --------------------------------------------------------------


def _c06():
    psi = builtin("identity", 0.0, 2.0)
    alpha = 0.5
    wa = sp.expand(psi.expr - psi.expr.subs(T, 0.0))
    probe = JetFunction.of_t(1.0 + 0.8 * wa + 0.6 * wa**2 + 0.4 * wa**3)
    zero_tau = pr.ReducedInfinitesimals(
        alpha, sy._jx(X), 0.0, 2.0 / alpha, 0.0, sy._jx(-1), sy._jxw(0)
    )
    w0 = pr.omega_term(zero_tau, probe, psi, alpha, 0.5, 1.0)
    moved = pr.ReducedInfinitesimals(
        alpha, sy._jx(X), 1.0, 0.0, 0.0, sy._jx(0), sy._jxw(0)
    )
    biggest = 0.0
    for t in (0.4, 0.8, 1.2, 1.6):
        biggest = sy._nan_max(
            biggest, abs(pr.omega_term(moved, probe, psi, alpha, 0.5, t))
        )
    ok = w0 == 0.0 and biggest >= 1e-3
    return ok, (
        f"omega at tau(a)=0 is {w0!r} (must be exactly 0), "
        f"max |omega| with tau(a)=1 is {biggest:.3f} (must be >= 1e-3)"
    )


# -- 7: Burgers table reproduction ---------------------------------------------


def _cases(kind: str, alpha: float):
    """(case, coefficient jet, table rows) of each registered case of kind,
    at the default parameters."""
    params = sy.CASE_DEFAULTS
    return [(case, case.jet(**params), case.rows(alpha, **params))
            for case in sy.CASES if case.kind == kind]


def _failed(rep: sy.ResidualReport) -> str:
    return ", ".join(
        f"{k}={float(v):.3g}" for k, v in rep.equations.items() if v > rep.tol
    )


def _c07():
    alpha = 0.5
    params = sy.CASE_DEFAULTS
    cases = _cases("gfbe", alpha)
    failures = []
    for name, a, b in (("identity", 0.0, 2.0), ("power", 0.5, 2.0)):
        psi = builtin(name, a, b)
        for case, g, rows in cases:
            for cand in rows:
                rep = sy.detsys_gfbe(cand, g, psi, alpha, tol=1e-8)
                if not rep.passed:
                    failures.append(f"{name}/{case.row}: residuals {_failed(rep)}")
    # ansatz solver recovers each row (psi-independent reduced coefficients)
    for case, _, _ in cases:
        if case.params is None:
            continue
        if not case.matches(case.solve(alpha, **params), alpha, **params):
            failures.append(f"solve {case.row}: basis mismatch")
    if failures:
        return False, "; ".join(failures)
    return True, "all four table rows + x-translation verified and re-solved"


# -- 8: diffusion reproduction ---------------------------------------------------


def _c08():
    alpha = 0.5
    cases = _cases("diffusion", alpha)
    failures = []
    for name, a, b in (("identity", 0.0, 2.0), ("power", 0.5, 2.0)):
        psi = builtin(name, a, b)
        n_const = 0
        for case, K, rows in cases:
            if sy._constant(K.tree):
                n_const += len(rows)
            for cand in rows:
                rep = sy.detsys_diffusion(cand, K, psi, alpha, tol=1e-8)
                if not rep.passed:
                    failures.append(f"{name}/{case.row}/{cand.label}: {_failed(rep)}")
        if n_const != 4:
            failures.append(f"{name}: expected 4 constant-diffusivity generators")
    if failures:
        return False, "; ".join(failures)
    return True, "K=1 four-generator basis and the power-law generator verified"


# -- 9: method agreement ---------------------------------------------------------


def _panel(alpha: float):
    two = 2.0 / alpha
    mk = lambda label, xi, c0, c1, c2, th, rho: sy.GeneratorCandidate(
        label,
        reduced=pr.ReducedInfinitesimals(
            alpha, sy._jx(xi), c0, c1, c2, sy._jx(th), sy._jxw(rho)
        ),
    )
    return [
        mk("x-translation", 1, 0.0, 0.0, 0.0, 0, 0),
        mk("scaling", X, 0.0, two, 0.0, -1, 0),
        mk("wrong sign theta", X, 0.0, two, 0.0, 1, 0),
        mk("wrong tau rate", X, 0.0, 1.0, 0.0, -1, 0),
        mk("constant shift", 1, 0.0, 0.0, 0.0, 0, 1),
        mk("quadratic tau", X, 0.0, two, 0.5, -1, 0),
    ]


def _c09():
    alpha = 0.5
    psi = builtin("identity", 0.0, 10.0)
    eq = sy.lookup_case("g=u").equation(alpha, psi, **sy.CASE_DEFAULTS)
    g = eq.g
    verdicts = []
    for cand in _panel(alpha):
        vz = sy.detsys_zhang_rl(cand, eq, alpha, tol=1e-8).passed
        gen = sy.GeneratorCandidate(
            cand.label, general=cand.reduced.to_general(psi)
        )
        vg = sy.detsys_gazizov_rl(gen, g, alpha, tol=1e-8).passed
        verdicts.append((cand.label, vz, vg))
    disagree = [lbl for lbl, vz, vg in verdicts if vz != vg]
    summary = ", ".join(
        f"{lbl}:{'P' if vz else 'F'}/{'P' if vg else 'F'}"
        for lbl, vz, vg in verdicts
    )
    return not disagree, f"verdicts (reduced/expanded) {summary}"


# -- driver ----------------------------------------------------------------------

CRITERIA = [
    (1, "power-rule suite", _c01),
    (2, "backend agreement", _c02),
    (3, "Leibniz convergence", _c03),
    (4, "classical prolongation reduction", _c04),
    (5, "mu vanishing / quadratic coefficient", _c05),
    (6, "omega lower-limit law", _c06),
    (7, "Burgers symmetry table reproduction", _c07),
    (8, "diffusion symmetry reproduction", _c08),
    (9, "reduced vs expanded method agreement", _c09),
]


def criterion_results():
    """The ten criteria, each yielded as it finishes: 1 to 9 from
    CRITERIA, then 10, their aggregate under the wall-time budget."""
    t0 = time.perf_counter()
    passed = 0
    for index, name, fn in CRITERIA:
        t1 = time.perf_counter()
        ok, detail = fn()
        passed += bool(ok)
        yield CriterionResult(index, name, bool(ok), detail, time.perf_counter() - t1)
    total = time.perf_counter() - t0
    yield CriterionResult(
        10,
        "selftest wall time and overall status",
        passed == len(CRITERIA) and total < 120.0,
        f"{passed}/9 criteria passed in {total:.1f}s (needs 9/9 and < 120s)",
        total,
    )


def run_all() -> int:
    for res in criterion_results():
        print(res.line())
    return 0 if res.passed else 1


if __name__ == "__main__":
    sys.exit(run_all())
