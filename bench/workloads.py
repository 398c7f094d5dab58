"""The four workloads: seeded inputs, the operation each input drives, and
the check of each result against an independent reference.

Inputs are pure data (:class:`Op`), drawn from a ``random.Random`` seeded
by the benchmark's ``--seed``; a round is a stratified batch, so every
round of a workload has the same mix of operation kinds and only the
parameters vary with the seed.  Function specs are strings in the CLI
grammar and reach the program only through its own parser.

This module imports only the standard library at import time, so the
set-up probe, which loads it first, times all of ``import psifrac``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import refs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CHILD_TIMEOUT_S = 120.0

SERIES_TERMS = 30  # criterion 2's truncation
LEIBNIZ_TERMS = 10  # criterion 3's largest N


@dataclass
class Op:
    kind: str
    spec: dict


@dataclass
class Checked:
    """Errors of one result against its references, each with its gate."""

    errors: list = field(default_factory=list)  # (error, tolerance, what)

    def add(self, err: float, tol: float, what: str) -> None:
        self.errors.append((err, tol, what))

    def failures(self):
        return [f"{what}: {err:.3g} > {tol:g}" for err, tol, what in self.errors
                if not err <= tol]


class Mismatch(Exception):
    """A verdict, exit code or message differs from the documented one."""


# one BLAS/OpenMP thread in the benchmark and in every child
ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    return {**os.environ, **ONE_THREAD, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


# -- seeded draws ---------------------------------------------------------------


def _coef(rng) -> float:
    return round(rng.uniform(0.25, 2.0), 3)


def _order(rng, lo: float = 0.1, hi: float = 1.9) -> float:
    """A non-integer order; integer orders take another code path."""
    alpha = round(rng.uniform(lo, hi), 4)
    return alpha + 0.05 if abs(alpha - round(alpha)) < 0.02 else alpha


def _interior(rng, a: float, b: float) -> float:
    return round(a + (b - a) * rng.uniform(0.1, 0.9), 4)


# shifts of criterion 2's domains on which the 30-term series still converges
SERIES_SHIFTS = {"identity": [0.0, 0.5], "power": [0.0, 0.25], "exponential": [0.0, 0.5]}


def series_domain(kernel: str, shift: float):
    a0, b0 = refs.SERIES_DOMAINS[kernel]
    return a0 + shift, b0 + shift


def symmetry_domain(rng, kernel: str):
    """A seeded interval holding the residual grid (t - a up to 1)."""
    a0, b0 = refs.SYMMETRY_DOMAINS[kernel]
    a = a0 + rng.choice([0.0, 0.5])
    return a, a + (b0 - a0)


def power_sum_spec(rng):
    """c0 + c1 psi^k1 - c2 psi^k2 with its exact [(c, k)] form."""
    k1, k2 = sorted(rng.sample(range(1, 5), 2))
    c0, c1, c2 = _coef(rng), _coef(rng), _coef(rng)
    return f"{c0} + {c1}*psi^{k1} - {c2}*psi^{k2}", [(c0, 0), (c1, k1), (-c2, k2)]


def general_spec(rng, family: str) -> str:
    """A sum or a product of t^k, psi^k and exp(k*t).  The shape is fixed per
    family and only the coefficients are drawn, so every operation of a
    family builds jets of the same size."""
    c1, c2 = _coef(rng), _coef(rng)
    return {"sum": f"{c1}*t^2 + {c2}*exp(t) - psi",
            "product": f"({c1} + {c2}*t)*exp(t)",
            "product2": f"({c1} + {c2}*psi)*exp(2*t)"}[family]


# -- shared library helpers ----------------------------------------------------


def _function(spec: str, psi):
    """The CLI's own path from a spec to a JetFunction: parse, then
    substitute psi(t) - psi(a)."""
    from psifrac import cli

    return cli._as_f_of_t(spec, psi)


def _backends(f, psi, alpha: float, t: float):
    from psifrac import fracops as fo

    return (fo.frac_integral(f, psi, alpha, t),
            fo.frac_integral_series(f, psi, alpha, t, SERIES_TERMS).value,
            fo.frac_derivative(f, psi, alpha, t),
            fo.frac_derivative_series(f, psi, alpha, t, SERIES_TERMS).value)


def _check_backends(chk: Checked, values, exact, kernel, a, alpha, t) -> None:
    """Power sums against the exact power rule; anything else quadrature
    against series, with criterion 1's and 2's measures and tolerances.

    The quadrature derivative differentiates quadrature results with a
    fixed-step stencil and misses criterion 1's 1e-6 relative bound for
    orders near 2 at small psi(t) - psi(a) (3.7e-6 seen at alpha = 1.9), a
    range criterion 1 does not sample; it is held to criterion 2's
    derivative tolerance instead, against the exact value."""
    iq, isr, dq, dsr = values
    if exact is not None:
        w = refs.shifted(kernel, a, t)
        ri, rd = refs.power_rule(exact, -alpha, w), refs.power_rule(exact, alpha, w)
        chk.add(refs.rel_err(iq, ri), refs.TOL_POWER_RULE, "integral quadrature")
        chk.add(refs.rel_err(isr, ri), refs.TOL_POWER_RULE, "integral series")
        chk.add(refs.mixed_err(dq, rd), refs.TOL_DERIVATIVE, "derivative quadrature")
        chk.add(refs.rel_err(dsr, rd), refs.TOL_POWER_RULE, "derivative series")
    else:
        chk.add(refs.mixed_err(iq, isr), refs.TOL_INTEGRAL, "integral backends")
        chk.add(refs.mixed_err(dq, dsr), refs.TOL_DERIVATIVE, "derivative backends")


PANEL_F = {"P": ("1 + psi^2", [(1.0, 0), (1.0, 2)]), "Q": ("t^2 + 0.5*t", None)}
PANEL_ALPHAS = (0.3, 0.5, 1.5)


def operator_panel(functions=None) -> Checked:
    """Fixed accuracy panel on criterion 2's domains: both backends over
    two functions, three orders and four points."""
    from psifrac.psi import builtin

    chk = Checked()
    for kernel, (a, b) in refs.SERIES_DOMAINS.items():
        psi = builtin(kernel, a, b)
        for key, (spec, exact) in PANEL_F.items():
            f = functions[kernel][key] if functions else _function(spec, psi)
            for alpha in PANEL_ALPHAS:
                for i in range(4):
                    t = a + (b - a) * (0.2 + 0.2 * i)
                    _check_backends(chk, _backends(f, psi, alpha, t), exact,
                                    kernel, a, alpha, t)
    return chk


# -- series_cold ---------------------------------------------------------------


class SeriesCold:
    """Each operation parses a new function and, on each of the three
    kernels, builds its order-30 psi-jets cold and runs both backends at two
    seeded (alpha, t) points.  A round is two passes of four shapes."""

    name = "series_cold"
    FAMILIES = ("power_sum", "sum", "product", "product2")
    PASSES = 2

    def setup(self) -> None:
        import psifrac  # noqa: F401

    def round(self, rng, index: int):
        # each pass takes one of the two shifts of every kernel, in seeded
        # order: a shift changes the size of the jets, so every round holds both
        shifts = {k: rng.sample(v, len(v)) for k, v in SERIES_SHIFTS.items()}
        ops = []
        for npass in range(self.PASSES):
            for family in self.FAMILIES:
                if family == "power_sum":
                    spec, exact = power_sum_spec(rng)
                else:
                    spec, exact = general_spec(rng, family), None
                on = []
                for kernel in refs.SERIES_DOMAINS:
                    a, b = series_domain(kernel, shifts[kernel][npass])
                    on.append({"kernel": kernel, "a": a, "b": b,
                               "points": [(_order(rng), _interior(rng, a, b))
                                          for _ in range(2)]})
                ops.append(Op("series", {"f": spec, "exact": exact, "on": on}))
        return ops

    def run(self, op: Op):
        from psifrac.psi import builtin

        out = []
        for k in op.spec["on"]:
            psi = builtin(k["kernel"], k["a"], k["b"])
            f = _function(op.spec["f"], psi)
            out.append([_backends(f, psi, alpha, t) for alpha, t in k["points"]])
        return out

    def check(self, op: Op, result) -> Checked:
        chk = Checked()
        for k, values in zip(op.spec["on"], result):
            for (alpha, t), v in zip(k["points"], values):
                _check_backends(chk, v, op.spec["exact"], k["kernel"], k["a"], alpha, t)
        return chk

    def panel(self) -> Checked:
        return operator_panel()


# -- kernels_warm --------------------------------------------------------------


class KernelsWarm:
    """A fixed set of functions is compiled in set-up; every operation then
    hits the jet caches and times the numeric kernels."""

    name = "kernels_warm"
    WARM_F = {"P": PANEL_F["P"], "E": ("exp(t)", None), "Q": PANEL_F["Q"]}
    LEIBNIZ_G = ("psi^3 + psi", [(1.0, 3), (1.0, 1)])
    PRODUCT_SHARE = 3  # operations per round that add leibniz + product integral

    def setup(self) -> None:
        from psifrac.psi import builtin

        self.psi, self.f = {}, {}
        for kernel, (a, b) in refs.SERIES_DOMAINS.items():
            psi = self.psi[kernel] = builtin(kernel, a, b)
            fs = {key: _function(spec, psi) for key, (spec, _) in self.WARM_F.items()}
            fs["G"] = _function(self.LEIBNIZ_G[0], psi)
            self.f[kernel] = fs
            t = a + 0.5 * (b - a)
            for key in self.WARM_F:
                self._evaluate(kernel, key, 0.5, t, products=False)
            self._evaluate(kernel, "P", 0.5, t, products=True)

    def round(self, rng, index: int):
        combos = [(k, key) for k in refs.SERIES_DOMAINS for key in self.WARM_F]
        rng.shuffle(combos)
        with_products = set(rng.sample(range(len(combos)), self.PRODUCT_SHARE))
        ops = []
        for i, (kernel, key) in enumerate(combos):
            a, b = refs.SERIES_DOMAINS[kernel]
            ops.append(Op("point", {"kernel": kernel, "a": a, "f": key,
                                    "alpha": round(rng.uniform(0.05, 2.0), 4),
                                    "t": _interior(rng, a, b),
                                    "products": i in with_products}))
        return ops

    def _evaluate(self, kernel, key, alpha, t, products):
        from psifrac import fracops as fo

        psi, fs = self.psi[kernel], self.f[kernel]
        out = list(_backends(fs[key], psi, alpha, t))
        if products:
            out.append(fo.leibniz_product(fs["P"], fs["G"], psi, alpha, t, LEIBNIZ_TERMS))
            out.append(fo.product_integral(fs["P"], fs["G"], psi, alpha, t, LEIBNIZ_TERMS))
        return out

    def run(self, op: Op):
        s = op.spec
        return self._evaluate(s["kernel"], s["f"], s["alpha"], s["t"], s["products"])

    def check(self, op: Op, result) -> Checked:
        s, chk = op.spec, Checked()
        alpha, t = s["alpha"], s["t"]
        _check_backends(chk, result[:4], self.WARM_F[s["f"]][1], s["kernel"], s["a"],
                        alpha, t)
        if s["products"]:
            fg = refs.poly_product(self.WARM_F["P"][1], self.LEIBNIZ_G[1])
            w = refs.shifted(s["kernel"], s["a"], t)
            chk.add(refs.mixed_err(result[4], refs.power_rule(fg, alpha, w)),
                    refs.TOL_LEIBNIZ, "leibniz_product")
            chk.add(refs.mixed_err(result[5], refs.power_rule(fg, -alpha, w)),
                    refs.TOL_LEIBNIZ, "product_integral")
        return chk

    def panel(self) -> Checked:
        return operator_panel(self.f)


# -- symmetry_sweep ------------------------------------------------------------

GFBE_CASES = ("arbitrary g", "g=u", "g=u^p", "g=e^(b u)", "g=u/(1+u)")
SOLVE_CASES = ("g=u", "g=u^p", "g=e^(b u)", "g=u/(1+u)", "K=1", "K=power-law")
# criterion 9's panel (selftest._panel): classical verdicts, both systems
PANEL_VERDICTS = {"x-translation": True, "scaling": True, "wrong sign theta": False,
                  "wrong tau rate": False, "constant shift": False,
                  "quadratic tau": False}


def omega_probe_u_at_a(seed: int = 20230815) -> float:
    """u(a) of the residual grid's omega probe (GridSpec.u_probe_coeffs)."""
    import numpy as np

    return float(np.random.default_rng(seed + 1).uniform(0.5, 1.5, size=4)[0])


def table_expectation(case: str, kernel: str, a: float, alpha: float, bpar: float,
                      c1: float) -> dict:
    """Documented outcome of a builtin_table row: {equation: residual} for
    the equations that must fail, {} when every equation must pass."""
    if case == "g=e^(b u)":
        return {"i": refs.constant_shift_residual(1.0 / bpar, kernel, a, alpha)}
    if case == "g=u/(1+u)":
        return {"iv": refs.rational_row_residual()}
    if case.startswith("K=(c1") and c1 != 0.0:
        # rho = -c1 x is not annihilated either: largest at the grid's x_max
        return {"i": refs.constant_shift_residual(c1 * refs.GRID_X_MAX, kernel, a,
                                                  alpha)}
    return {}


def check_residuals(chk: Checked, residuals: dict, expected: dict, what: str,
                    tol_pinned: float) -> None:
    for eq, res in residuals.items():
        if eq in expected:
            if not res > refs.TOL_RESIDUAL:
                raise Mismatch(f"{what}: equation {eq} passed, documented to fail")
            chk.add(refs.rel_err(res, expected[eq]),
                    refs.TOL_DERIVATIVE if eq == "v" else tol_pinned,
                    f"{what} residual {eq}")
        elif not res <= refs.TOL_RESIDUAL:
            raise Mismatch(f"{what}: equation {eq} residual {res:.3g} should pass")


def perturbation_expectation(which: str, size: float, kernel: str, a: float,
                             alpha: float) -> dict:
    """Residuals of the g = u scaling generator (xi = x, c1 = 2/alpha,
    theta = -1) with one coefficient moved by `size`: theta gives
    (iv) = |size| u_max, c1 gives (ii) = alpha |size| and (iv) = alpha |size|
    u_max, c0 gives the omega equation (v)."""
    u_max = refs.GRID_U[-1]
    if which == "theta":
        return {"iv": abs(size) * u_max}
    if which == "c1":
        return {"ii": alpha * abs(size), "iv": alpha * abs(size) * u_max}
    if which == "c0":
        return {"v": refs.omega_residual(size, omega_probe_u_at_a(), kernel, a, alpha)}
    return {}


def expected_basis(case: str, alpha: float, p: float, bpar: float, c1: float):
    """Closed-form generator bases of the reduced ansatz, as
    (xi(x), c0, c1, c2, theta(x), rho(x, w)) callables and numbers."""
    two = 2.0 / alpha
    zero = lambda *_: 0.0  # noqa: E731
    one = lambda *_: 1.0  # noqa: E731
    shift = (one, 0.0, 0.0, 0.0, zero, zero)
    scale = lambda theta, rho: (lambda x: x, 0.0, two, 0.0, theta, rho)  # noqa: E731
    const = lambda v: (lambda *_: v)  # noqa: E731
    if case == "g=u":
        return [shift, scale(const(-1.0), zero)]
    if case == "g=u^p":
        return [shift, scale(const(-1.0 / p), zero)]
    if case == "g=e^(b u)":
        return [shift, scale(zero, const(-1.0 / bpar))]
    if case == "g=u/(1+u)":
        return [shift, scale(one, zero)]
    if case == "K=1":
        g_ratio = math.gamma(alpha) / math.gamma(2 * alpha)
        rho = lambda x, w: g_ratio * w ** (2 * alpha - 1) + x * x / 2 * w ** (alpha - 1)  # noqa: E731
        return [shift, scale(zero, zero), (zero, 0.0, 0.0, 0.0, one, zero),
                (zero, 0.0, 0.0, 0.0, zero, rho)]
    if case == "K=power-law":
        return [shift, (lambda x: x * x, 0.0, 0.0, 0.0, lambda x: -3 * x,
                        lambda x, w: -c1 * x)]
    raise ValueError(case)


BASIS_X = (0.3, 0.7)
BASIS_W = (0.4, 1.1)


def basis_error(got, expected) -> float:
    """Worst deviation between generator rows, matched greedily; rows are
    (xi, c0, c1, c2, theta, rho) with callables for the functions."""
    if len(got) != len(expected):
        raise Mismatch(f"basis has {len(got)} generators, expected {len(expected)}")

    def dist(g, e):
        d = max(abs(g[i] - e[i]) for i in (1, 2, 3))
        for x in BASIS_X:
            d = max(d, abs(g[0](x) - e[0](x)), abs(g[4](x) - e[4](x)))
            for w in BASIS_W:
                d = max(d, abs(g[5](x, w) - e[5](x, w)))
        return d

    left, worst = list(got), 0.0
    for e in expected:
        best = min(left, key=lambda g: dist(g, e))
        worst = max(worst, dist(best, e))
        left.remove(best)
    return worst


def _rows_from_reduced(basis):
    import sympy as sp
    from psifrac.jets import W, X

    out = []
    for cand in basis:
        r = cand.reduced
        xi = sp.lambdify(X, r.xi.expr, "math")
        th = sp.lambdify(X, r.theta.expr, "math")
        rho = sp.lambdify((X, W), r.rho.expr, "math")
        out.append((xi, r.c0, r.c1, r.c2, th, rho))
    return out


def eta_inputs(rng):
    """A seeded generator (xi, tau, eta) and solution jet u(x, t), in the
    CLI grammar, on the identity kernel with a = 0.  eta is quadratic in u
    half the time (the mu path); tau(0) != 0 half the time (the omega path)."""
    c = [_coef(rng) for _ in range(6)]
    xi = rng.choice(["x", f"{c[0]}*x^2", f"{c[0]}"])
    tau = f"{c[1]}*t" + (f" + {c[2]}" if rng.random() < 0.5 else "")
    eta = f"{c[3]}*x*u - u" + (f" + {c[4]}*u^2" if rng.random() < 0.5 else "")
    u = f"1 + {c[5]}*x*t + t^2" if rng.random() < 0.5 else f"x^2*t + {c[5]}*t^3"
    return {"xi": xi, "tau": tau, "eta": eta, "u": u}


def grammar_to_sympy(spec: str):
    """Independent reading of a grammar spec for the oracle (a = 0 on the
    identity kernel, so psi(t) - psi(a) = t)."""
    import sympy as sp
    from psifrac.jets import T, U, X

    return sp.sympify(spec.replace("^", "**").replace("psi", "t"),
                      locals={"x": X, "t": T, "u": U, "exp": sp.exp})


def eta_reference(spec: dict, alpha: float, x: float, t: float):
    """selftest._classical_eta_ref plus the closed-form omega; returns the
    value and whether omega is present."""
    from psifrac import selftest
    from psifrac.jets import T, U, X

    xi, tau, eta, u = (grammar_to_sympy(spec[k]) for k in ("xi", "tau", "eta", "u"))
    ref = selftest._classical_eta_ref(xi, tau, eta, u, alpha, x, t)
    u_a = float(u.subs({X: x, T: 0}))
    tau_a = float(tau.subs({X: x, T: 0, U: u_a}))
    if tau_a == 0.0:
        return ref, False
    return ref + refs.omega_identity(tau_a, u_a, alpha, t), True


def check_eta(chk: Checked, got: float, ref: float, with_omega: bool, what: str):
    if with_omega:  # omega is measured by differencing quadrature results
        chk.add(refs.mixed_err(got, ref), refs.TOL_DERIVATIVE, what)
    else:
        chk.add(abs(got - ref), refs.TOL_ORACLE, what)


class SymmetrySweep:
    """Determining systems on their grids, the ansatz solver and the alpha-th
    prolongation with its mu and omega corrections."""

    name = "symmetry_sweep"
    PERTURB = ("theta", "c1", "c0")

    def setup(self) -> None:
        import psifrac  # noqa: F401

    def round(self, rng, index: int):
        alpha = round(rng.uniform(0.2, 0.9), 4)
        p, bpar, c1 = rng.choice([2, 3, 4]), rng.choice([0.5, 1.0, 2.0]), \
            rng.choice([0.0, 0.5, 1.0])
        base = {"alpha": alpha, "p": p, "bpar": bpar, "c1": c1}
        ops = []
        for k in refs.SYMMETRY_DOMAINS:
            a, b = symmetry_domain(rng, k)
            ops += [Op("row", {**base, "kernel": k, "a": a, "b": b, "row": i})
                    for i in range(10)]
        for which in self.PERTURB:
            size = round(rng.uniform(0.05, 0.5), 4) * rng.choice([-1, 1])
            kernel = rng.choice(list(refs.SYMMETRY_DOMAINS))
            a, b = symmetry_domain(rng, kernel)
            ops.append(Op("perturbed", {**base, "which": which, "size": size,
                                        "kernel": kernel, "a": a, "b": b}))
        ops += [Op("classical", {**base, "entry": i}) for i in range(len(PANEL_VERDICTS))]
        ops += [Op("solve", {**base, "case": c}) for c in SOLVE_CASES]
        for _ in range(3):
            ops.append(Op("eta", {**base, **eta_inputs(rng),
                                  "x": round(rng.uniform(0.3, 1.0), 3),
                                  "t": round(rng.uniform(0.4, 1.6), 3)}))
        return ops

    @staticmethod
    def g_of(case: str, p: float, b: float):
        import sympy as sp
        from psifrac.jets import U

        return {"arbitrary g": U**2 + U, "g=u": U, "g=u^p": U**int(p),
                "g=e^(b u)": sp.exp(sp.nsimplify(b) * U),
                "g=u/(1+u)": U / (1 + U)}[case]

    def run(self, op: Op):
        import sympy as sp
        from psifrac import prolong as pr
        from psifrac import selftest as st
        from psifrac import symmetry as sy
        from psifrac.jets import JetFunction, SolutionJet, T, U, W, X
        from psifrac.psi import builtin

        s = op.spec
        alpha = s["alpha"]
        if op.kind in ("row", "perturbed"):
            psi = builtin(s["kernel"], s["a"], s["b"])
            if op.kind == "row":
                case, cand = sy.builtin_table(alpha, p=s["p"], b=s["bpar"],
                                              c1=s["c1"])[s["row"]]
            else:
                two, d = 2.0 / alpha, s["size"]
                coef = {"theta": (0.0, two, -1.0 + d), "c1": (0.0, two + d, -1.0),
                        "c0": (d, two, -1.0)}[s["which"]]
                cand = sy.GeneratorCandidate("perturbed", reduced=pr.ReducedInfinitesimals(
                    alpha, sy._jx(X), coef[0], coef[1], 0.0, sy._jx(coef[2]), sy._jxw(0)))
                case = "g=u"
            if case.startswith("K="):
                k_expr = sp.Integer(1) + 0 * U if case == "K=1" else \
                    (sp.nsimplify(s["c1"]) + 3 * U) ** sp.Rational(-4, 3)
                rep = sy.detsys_diffusion(cand, JetFunction.of_u(k_expr), psi, alpha)
            else:
                rep = sy.detsys_gfbe(cand, JetFunction.of_u(self.g_of(case, s["p"], s["bpar"])),
                                     psi, alpha)
            return case, cand.label, dict(rep.equations)
        if op.kind == "classical":
            cand = st._panel(alpha)[s["entry"]]
            psi = builtin("identity", 0.0, 10.0)
            g = JetFunction.of_u(U)
            eq = sy.EvolutionEquation("gfbe", alpha, psi, g=g)
            vz = sy.detsys_zhang_rl(cand, eq, alpha).passed
            gen = sy.GeneratorCandidate(cand.label, general=cand.reduced.to_general(psi))
            vg = sy.detsys_gazizov_rl(gen, g, alpha).passed
            return cand.label, vz, vg
        if op.kind == "solve":
            case = s["case"]
            psi = builtin("identity", 0.0, 2.0)
            if case.startswith("K="):
                eq = sy.EvolutionEquation("diffusion", alpha, psi,
                                          K=JetFunction.of_u(sp.Integer(1) + 0 * U))
            else:
                eq = sy.EvolutionEquation("gfbe", alpha, psi,
                                          g=JetFunction.of_u(self.g_of(case, s["p"], s["bpar"])))
            kw = {"g=u^p": {"p": float(s["p"])}, "g=e^(b u)": {"b": s["bpar"]},
                  "K=power-law": {"c1": s["c1"]}}.get(case, {})
            return sy.solve_ansatz(eq, case, **kw)
        # eta: the parsed generator and jet, as the CLI builds them
        from psifrac.parser import parse_expr

        psi = builtin("identity", 0.0, 2.0)
        inf = pr.Infinitesimals.from_exprs(*(parse_expr(s[k]) for k in ("xi", "tau", "eta")))
        # psi(t) - psi(a) = t on the identity kernel with a = 0
        jet = SolutionJet.from_expr(parse_expr(s["u"]).subs(W, T))
        return pr.eta_alpha_psi(inf, jet, psi, alpha, s["x"], s["t"])

    def check(self, op: Op, result) -> Checked:
        s, chk = op.spec, Checked()
        alpha = s["alpha"]
        if op.kind == "row":
            case, label, residuals = result
            expected = table_expectation(case, s["kernel"], s["a"], alpha, s["bpar"],
                                         s["c1"])
            check_residuals(chk, residuals, expected, f"{case} {label}", 1e-10)
        elif op.kind == "perturbed":
            expected = perturbation_expectation(s["which"], s["size"], s["kernel"], s["a"],
                                                alpha)
            check_residuals(chk, result[2], expected, f"perturbed {s['which']}", 1e-10)
        elif op.kind == "classical":
            label, vz, vg = result
            if not vz == vg == PANEL_VERDICTS[label]:
                raise Mismatch(f"{label}: reduced {vz}, expanded {vg}, "
                               f"documented {PANEL_VERDICTS[label]}")
        elif op.kind == "solve":
            err = basis_error(_rows_from_reduced(result),
                              expected_basis(s["case"], alpha, s["p"], s["bpar"], s["c1"]))
            chk.add(err, 1e-9, f"solve {s['case']}")
        else:
            ref, with_omega = eta_reference(s, alpha, s["x"], s["t"])
            check_eta(chk, result, ref, with_omega, "eta_alpha_psi")
        return chk

    def panel(self) -> Checked:
        """Criterion 4's generators and jets against the oracle, and the
        omega equation against its closed form, at fixed inputs."""
        from psifrac import prolong as pr
        from psifrac import symmetry as sy
        from psifrac.jets import JetFunction, U, X
        from psifrac.psi import builtin

        alpha, chk = 0.7, Checked()
        specs = [{"xi": "x", "tau": f"{2 / alpha}*t", "eta": "0-u"},
                 {"xi": "x^2", "tau": "t", "eta": "x*u"},
                 {"xi": "1", "tau": "t^2 + 0.5", "eta": "u^2"}]
        for spec in specs:
            for u in ("x^2*t + t^2", "1 + x*t^3"):
                for x, t in ((0.5, 0.7), (1.0, 1.3)):
                    op = Op("eta", {**spec, "u": u, "alpha": alpha, "x": x, "t": t})
                    chk.errors += self.check(op, self.run(op)).errors
        for kernel, (a, b) in refs.SYMMETRY_DOMAINS.items():
            cand = sy.GeneratorCandidate("c0", reduced=pr.ReducedInfinitesimals(
                alpha, sy._jx(X), 1.0, 2.0 / alpha, 0.0, sy._jx(-1), sy._jxw(0)))
            rep = sy.detsys_gfbe(cand, JetFunction.of_u(U), builtin(kernel, a, b), alpha)
            exp_v = refs.omega_residual(1.0, omega_probe_u_at_a(), kernel, a, alpha)
            chk.add(refs.rel_err(rep.equations["v"], exp_v), refs.TOL_DERIVATIVE,
                    f"omega equation on {kernel}")
        return chk


# -- cli_oneshot ---------------------------------------------------------------


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int
    report: dict = None  # the launcher's speed samples and tracer state

    @property
    def trace(self):
        return self.report["trace"] if self.report else None


def spawn(argv, tag: str, report: Path = None) -> ChildResult:
    """Run one child to completion; its own rusage gives its peak RSS."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    res = ChildResult(proc.returncode, out_path.read_text(), err_path.read_text(),
                      usage.ru_maxrss)
    for path in (out_path, err_path):
        path.unlink()
    if report is not None and report.exists():
        res.report = json.loads(report.read_text())
        report.unlink()
    return res


def parse_table(text: str, fmt: str):
    """(columns, rows, extra) from a CLI report in any of its formats."""
    if fmt == "json":
        doc = json.loads(text)
        extra = {k: v for k, v in doc.items() if k not in ("columns", "rows")}
        return doc["columns"], doc["rows"], extra
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if fmt == "csv":
        cols = lines[0].split(",")
        return cols, [ln.split(",") for ln in lines[1:]], {}
    # human: cells are left-justified and joined by two spaces
    cells = [re.split(r"\s{2,}", ln.strip()) for ln in lines]
    cols, rows, extra = cells[0], [], {}
    for ln, row in zip(lines[1:], cells[1:]):
        if len(row) == len(cols):
            rows.append(row)
        else:
            k, v = ln.split(": ", 1)
            extra[k] = v
    return cols, rows, extra


def column(cols, rows, name: str):
    i = cols.index(name)
    return [r[i] for r in rows]


def cli_solve_rows(cols, rows):
    import sympy as sp

    x, w = sp.symbols("x w")

    def fn(text, args):
        return sp.lambdify(args, sp.sympify(text, locals={"x": x, "w": w}), "math")

    return [(fn(r[cols.index("xi")], x), float(r[cols.index("c0")]),
             float(r[cols.index("c1")]), float(r[cols.index("c2")]),
             fn(r[cols.index("theta")], x), fn(r[cols.index("rho")], (x, w)))
            for r in rows]


FORMATS = ("human", "json", "csv")
# inside the documented domain, each must give a correct value, or exit 3
# with a one-line message.  The derivative of f = t^2 (identity kernel,
# a = 0) has a power-rule reference; 1/(t-1) is not integrable up to
# t = 1.5; solve must report a basis that matches the published one.
EDGE_INPUTS = [
    (["eval", "derivative", "--f", "t^2", "--t", "2.0"], 0.5),  # t = b
    (["eval", "derivative", "--f", "t^2", "--t", "1.0", "--alpha", "5.5"], 5.5),
    (["eval", "derivative", "--f", "1/(t-1)", "--t", "0.5,1.5"], None),
    (["solve", "--case", "g=u", "--alpha", "0.79"], None),
]


class CliOneshot:
    """One fresh CLI process per operation: ``launch.py``, which calls
    ``psifrac.cli.main`` and samples the core's speed in the child."""

    name = "cli_oneshot"
    KINDS = ("eval_integral", "eval_powersum", "eval_derivative", "leibniz", "prolong",
             "verify_gfbe", "verify_diffusion", "verify_explicit", "verify_zhang",
             "verify_gazizov", "solve")
    PASSES = 2

    def __init__(self):
        self.traced = False  # trace the operations in the launcher
        self.speed = None  # the run's Speedometer, which takes the children's samples
        self.children = []  # ChildResult of every operation

    def setup(self) -> None:
        import psifrac  # noqa: F401

    def round(self, rng, index: int):
        """Two passes of one command of each kind.  The output format, the
        explicit candidate's perturbation and the solve case rotate with the
        pass; the seed draws everything else.  Zhang and gazizov check one
        candidate."""
        ops = []
        for npass in range(self.PASSES * index, self.PASSES * (index + 1)):
            general = ["identity", "exponential"]
            rng.shuffle(general)
            kernels = {"eval_integral": general[0], "eval_derivative": general[1]}
            batch = [Op(kind, self._draw(rng, kind, npass, FORMATS[(npass + i) % 3],
                                         kernels.get(kind)))
                     for i, kind in enumerate(self.KINDS)]
            zhang, gazizov = batch[8].spec, batch[9].spec
            gazizov.update(alpha=zhang["alpha"], cand=zhang["cand"])
            ops += batch
        return ops

    def _draw(self, rng, kind, npass, fmt, kernel) -> dict:
        spec = {"format": fmt, "alpha": _order(rng)}
        if kind in ("eval_integral", "eval_derivative"):
            a, b = series_domain(kernel, rng.choice(SERIES_SHIFTS[kernel]))
            family = "sum" if kind == "eval_integral" else "product"
            spec.update(kernel=kernel, a=a, b=b, f=general_spec(rng, family),
                        t=sorted(_interior(rng, a, b) for _ in range(2)))
            return spec
        if kind == "eval_powersum":
            kernel = rng.choice(list(refs.SERIES_DOMAINS))
            a, b = series_domain(kernel, rng.choice(SERIES_SHIFTS[kernel]))
            f, exact = power_sum_spec(rng)
            spec.update(kernel=kernel, a=a, b=b, f=f, exact=exact,
                        t=sorted(_interior(rng, a, b) for _ in range(2)))
            return spec
        if kind == "leibniz":
            kernel = rng.choice(list(refs.SYMMETRY_DOMAINS))
            a, b = symmetry_domain(rng, kernel)
            (f, fe), (g, ge) = power_sum_spec(rng), power_sum_spec(rng)
            spec.update(kernel=kernel, a=a, b=b, f=f, g=g, exact=refs.poly_product(fe, ge),
                        t=_interior(rng, a, b))
            return spec
        spec["alpha"] = round(rng.uniform(0.2, 0.9), 4)
        if kind == "prolong":
            spec.update(eta_inputs(rng), x=round(rng.uniform(0.3, 1.0), 3),
                        t=sorted(round(rng.uniform(0.4, 1.6), 3) for _ in range(2)))
        elif kind in ("verify_gfbe", "verify_diffusion"):
            kernel = rng.choice(list(refs.SYMMETRY_DOMAINS))
            a, b = symmetry_domain(rng, kernel)
            if kind == "verify_gfbe":
                case = rng.choice(GFBE_CASES)
                table = "X1" if case == "arbitrary g" else "X2"
            else:
                case = rng.choice(["K=1", "K=power-law"])
                table = rng.choice(["X1", "X2", "X3", "X4"]) if case == "K=1" else "X2"
            spec.update(kernel=kernel, a=a, b=b, case=case,
                        table=table, p=rng.choice([2, 3, 4]),
                        bpar=rng.choice([0.5, 1.0, 2.0]), c1=rng.choice([0.0, 0.5, 1.0]))
        elif kind == "verify_explicit":
            kernel = rng.choice(list(refs.SYMMETRY_DOMAINS))
            a, b = symmetry_domain(rng, kernel)
            spec.update(kernel=kernel, a=a, b=b,
                        which=(("none",) + SymmetrySweep.PERTURB)[npass % 4],
                        size=round(rng.uniform(0.05, 0.5), 4) * rng.choice([-1, 1]))
        elif kind in ("verify_zhang", "verify_gazizov"):
            spec["cand"] = rng.randrange(len(PANEL_VERDICTS))
        else:  # solve
            # `psifrac solve` compares its basis with the published one
            # after nsimplify(alpha) * nsimplify(2/alpha), which is not 2 for
            # most orders with more decimals (0.79 and 0.83 among the
            # two-decimal ones); that defect is an edge input below
            spec.update(alpha=rng.randint(2, 9) / 10, case=SOLVE_CASES[npass % 6],
                        p=rng.choice([2, 3, 4]), bpar=rng.choice([0.5, 1.0, 2.0]),
                        c1=rng.choice([0.0, 0.5, 1.0]))
        return spec

    # -- argv ---------------------------------------------------------------

    @staticmethod
    def panel_candidate(alpha: float, entry: int):
        """criterion 9's panel entry as explicit CLI flags."""
        two = repr(2.0 / alpha)
        rows = [("1", "0", "0", "0", "0", "0"), ("x", "0", two, "0", "-1", "0"),
                ("x", "0", two, "0", "1", "0"), ("x", "0", "1", "0", "-1", "0"),
                ("1", "0", "0", "0", "0", "1"), ("x", "0", two, "0.5", "-1", "0")]
        label = list(PANEL_VERDICTS)[entry]
        xi, c0, c1, c2, th, rho = rows[entry]
        return label, ["--xi", xi, "--c0", c0, "--ctau1", c1, "--ctau2", c2,
                       "--theta", th, "--rho", rho]

    def argv(self, op: Op):
        s, kind = op.spec, op.kind
        common = ["--format", s["format"], "--alpha", repr(s["alpha"])]
        if "kernel" in s:
            common += ["--psi", s["kernel"], "--a", repr(s["a"]), "--b", repr(s["b"])]
        if kind.startswith("eval"):
            which = "integral" if kind == "eval_integral" else "derivative"
            extra = [] if kind == "eval_powersum" else ["--terms", str(SERIES_TERMS)]
            return ["eval", which, "--f", s["f"], "--t", ",".join(map(repr, s["t"])),
                    *extra, *common]
        if kind == "leibniz":
            return ["leibniz", "--f", s["f"], "--g", s["g"], "--t", repr(s["t"]),
                    "--N", "1,2,3,5,8,10", "--tol", repr(refs.TOL_LEIBNIZ), *common]
        if kind == "prolong":
            return ["prolong", "--xi", s["xi"], "--tau", s["tau"], "--eta", s["eta"],
                    "--u", s["u"], "--x", repr(s["x"]), "--t", ",".join(map(repr, s["t"])),
                    *common]
        if kind in ("verify_gfbe", "verify_diffusion"):
            return ["verify", kind[7:], "--case", s["case"], "--table", s["table"],
                    "--p", str(s["p"]), "--bpar", repr(s["bpar"]), "--c1", repr(s["c1"]),
                    *common]
        if kind == "verify_explicit":
            two, d = 2.0 / s["alpha"], s["size"]
            c0, c1, theta = {"none": (0.0, two, -1.0), "theta": (0.0, two, -1.0 + d),
                             "c1": (0.0, two + d, -1.0), "c0": (d, two, -1.0)}[s["which"]]
            return ["verify", "gfbe", "--case", "g=u", "--xi", "x", "--c0", repr(c0),
                    "--ctau1", repr(c1), "--theta", repr(theta), *common]
        if kind in ("verify_zhang", "verify_gazizov"):
            _, flags = self.panel_candidate(s["alpha"], s["cand"])
            return ["verify", kind[7:], "--case", "g=u", *flags, *common]
        return ["solve", "--case", s["case"], "--p", str(s["p"]), "--bpar", repr(s["bpar"]),
                "--c1", repr(s["c1"]), *common]

    # -- run / check --------------------------------------------------------

    def run(self, op: Op):
        report = OUT / "op.report.json"
        flags = ["--trace"] if self.traced else []
        res = spawn([sys.executable, str(LAUNCHER), str(report), *flags, *self.argv(op)],
                    "op", report)
        if res.report is not None:
            self.speed.absorb(res.report)
        self.children.append(res)
        return res

    @staticmethod
    def expect_exit(res: ChildResult, code: int) -> None:
        if "Traceback" in res.stderr:
            raise Mismatch("traceback: " + res.stderr.strip().splitlines()[-1])
        if res.returncode != code:
            raise Mismatch(f"exit {res.returncode}, expected {code}: {res.stderr.strip()}")

    def check(self, op: Op, res: ChildResult) -> Checked:
        s, kind, chk = op.spec, op.kind, Checked()
        fmt = s["format"]
        if kind.startswith("eval"):
            self.expect_exit(res, 0)
            cols, rows, _ = parse_table(res.stdout, fmt)
            quad = [float(v) for v in column(cols, rows, "quadrature")]
            series = [float(v) for v in column(cols, rows, "series")]
            if len(quad) != len(s["t"]):
                raise Mismatch(f"{len(quad)} rows for {len(s['t'])} points")
            for t, q, sr in zip(s["t"], quad, series):
                if kind == "eval_powersum":
                    ref = refs.power_rule(s["exact"], s["alpha"],
                                          refs.shifted(s["kernel"], s["a"], t))
                    # the stencil derivative as in _check_backends
                    chk.add(refs.mixed_err(q, ref), refs.TOL_DERIVATIVE, "quadrature")
                    chk.add(refs.rel_err(sr, ref), refs.TOL_POWER_RULE, "series")
                elif kind == "eval_integral":
                    chk.add(refs.mixed_err(q, sr), refs.TOL_INTEGRAL, "integral backends")
                else:
                    chk.add(refs.mixed_err(q, sr), refs.TOL_DERIVATIVE, "derivative backends")
        elif kind == "leibniz":
            cols, rows, _ = parse_table(res.stdout, fmt)
            last = float(column(cols, rows, "leibniz")[-1])
            # exit 0 iff the final-N discrepancy to the direct derivative is
            # within --tol (both are quadrature results, so either can occur)
            within = float(column(cols, rows, "error")[-1]) <= refs.TOL_LEIBNIZ
            self.expect_exit(res, 0 if within else 1)
            ref = refs.power_rule(s["exact"], s["alpha"],
                                  refs.shifted(s["kernel"], s["a"], s["t"]))
            chk.add(refs.mixed_err(last, ref), refs.TOL_LEIBNIZ, "leibniz at N=10")
        elif kind == "prolong":
            self.expect_exit(res, 0)
            cols, rows, _ = parse_table(res.stdout, fmt)
            for t, got in zip(s["t"], column(cols, rows, "eta_alpha")):
                ref, with_omega = eta_reference(s, s["alpha"], s["x"], t)
                check_eta(chk, float(got), ref, with_omega, f"eta_alpha at t={t}")
        elif kind in ("verify_zhang", "verify_gazizov"):
            # both classical systems must give criterion 9's verdict
            label, _ = self.panel_candidate(s["alpha"], s["cand"])
            passed = PANEL_VERDICTS[label]
            self.expect_exit(res, 0 if passed else 1)
            cols, rows, _ = parse_table(res.stdout, fmt)
            residuals = [float(v) for v in column(cols, rows, "max_residual")]
            if passed != all(v <= refs.TOL_RESIDUAL for v in residuals):
                raise Mismatch(f"{label}: verdict does not follow the residuals")
        elif kind.startswith("verify"):
            if kind != "verify_explicit":
                case = "K=(c1+3u)^(-4/3)" if s["case"] == "K=power-law" else s["case"]
                expected = table_expectation(case, s["kernel"], s["a"], s["alpha"],
                                             s["bpar"], s["c1"])
            else:
                expected = perturbation_expectation(s["which"], s["size"], s["kernel"],
                                                    s["a"], s["alpha"])
            self.expect_exit(res, 1 if expected else 0)
            cols, rows, _ = parse_table(res.stdout, fmt)
            residuals = dict(zip(column(cols, rows, "equation"),
                                 (float(v) for v in column(cols, rows, "max_residual"))))
            # the human format prints 11 significant digits
            check_residuals(chk, residuals, expected, f"{kind} {s.get('case', '')}", 1e-9)
        else:  # solve
            self.expect_exit(res, 0)
            cols, rows, extra = parse_table(res.stdout, fmt)
            if fmt != "csv" and str(extra.get("matches_published")) not in ("True", "true"):
                raise Mismatch(f"solve {s['case']}: matches_published is "
                               f"{extra.get('matches_published')}")
            err = basis_error(cli_solve_rows(cols, rows),
                              expected_basis(s["case"], s["alpha"], s["p"], s["bpar"],
                                             s["c1"]))
            chk.add(err, 1e-9, f"solve {s['case']}")
        return chk

    def panel(self) -> Checked:
        """A fixed eval on the identity kernel against the exact power rule."""
        op = Op("eval_powersum", {"format": "json", "alpha": 1.5, "kernel": "identity",
                                  "a": 0.0, "b": 2.0, "f": PANEL_F["P"][0],
                                  "exact": PANEL_F["P"][1], "t": [0.4, 0.8, 1.2, 1.6]})
        res = spawn([sys.executable, "-m", "psifrac.cli", *self.argv(op)], "panel")
        return self.check(op, res)

    def edge_probes(self):
        """(attempted, failed) over the documented-domain edge inputs."""
        failed = 0
        for i, (args, alpha) in enumerate(EDGE_INPUTS):
            res = spawn([sys.executable, "-m", "psifrac.cli", *args], f"edge{i}")
            one_line_exit3 = res.returncode == 3 and len(res.stderr.strip().splitlines()) == 1
            if not (one_line_exit3 or self._edge_value_ok(args, res, alpha)):
                failed += 1
        return len(EDGE_INPUTS), failed

    @staticmethod
    def _edge_value_ok(args, res: ChildResult, alpha) -> bool:
        if res.returncode != 0 or "Traceback" in res.stderr:
            return False
        if args[0] == "solve":  # exit 0 means the basis matches
            return True
        if alpha is None:
            return False
        cols, rows, _ = parse_table(res.stdout, "human")
        for row in rows:
            t, q, sr = (float(row[cols.index(c)]) for c in ("t", "quadrature", "series"))
            ref = refs.power_rule([(1.0, 2)], alpha, t)
            if not max(refs.mixed_err(q, ref), refs.mixed_err(sr, ref)) <= refs.TOL_POWER_RULE:
                return False
        return True


WORKLOADS = {w.name: w for w in (CliOneshot, SeriesCold, KernelsWarm, SymmetrySweep)}

