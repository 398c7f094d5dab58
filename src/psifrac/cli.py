"""Command-line front end.

Commands: ``eval``, ``leibniz``, ``prolong``, ``verify``, ``solve``,
``selftest``.  Exit codes: 0 pass, 1 verification failure, 2 configuration
error, 3 numerical error (an arithmetic fault or a non-finite result
included).  Output formats: ``human`` (aligned table), ``json``
(canonical, byte-stable round trip), ``csv`` (17 significant digits).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, replace

import sympy as sp

from . import fracops as fo
from . import prolong as pr
from . import selftest as st
from . import symmetry as sy
from .errors import DomainError, NumericsError, PoleError, PsifracError
from .jets import JetFunction, SolutionJet, T, U, W, X
from .parser import ParseError, parse_expr
from .psi import builtin

__all__ = ["main", "RunConfig"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@dataclass(frozen=True)
class RunConfig:
    psi: str = "identity"
    a: float = 0.0
    b: float = 2.0
    rho: float = 2.0  # exponent of the power kernel family
    alpha: float = 0.5
    nodes: int = 64
    terms: int = 20
    tol: float = 1e-8
    seed: int = 20230815
    fmt: str = "human"

    def psi_fn(self):
        return builtin(self.psi, self.a, self.b, rho=self.rho)

    def quad(self):
        return fo.QuadratureSpec(self.nodes)


_CONFIG_FIELDS = {
    "psi": str,
    "a": float,
    "b": float,
    "rho": float,
    "alpha": float,
    "nodes": int,
    "terms": int,
    "tol": float,
    "seed": int,
    "format": str,
}


def _load_config(path: str) -> dict:
    """Plain key = value document; keys match the CLI flag names."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_string("[run]\n" + fh.read())
    except OSError as e:
        raise DomainError(f"cannot read config {path}: {e}") from None
    except configparser.Error as e:
        raise DomainError(f"malformed config {path}: {e}") from None
    out = {}
    for key, raw in cp["run"].items():
        if key not in _CONFIG_FIELDS:
            raise DomainError(f"unknown config key '{key}' in {path}")
        try:
            out[key] = _CONFIG_FIELDS[key](raw)
        except ValueError:
            raise DomainError(f"bad value for '{key}' in {path}: {raw!r}") from None
    return out


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        file_vals = _load_config(args.config)
        if "format" in file_vals:
            file_vals["fmt"] = file_vals.pop("format")
        cfg = replace(cfg, **file_vals)
    # explicit flags override the config file
    overrides = {}
    for flag, field in (
        ("psi", "psi"), ("a", "a"), ("b", "b"), ("psi_rho", "rho"),
        ("alpha", "alpha"), ("nodes", "nodes"), ("terms", "terms"),
        ("tol", "tol"), ("seed", "seed"), ("format", "fmt"),
    ):
        val = getattr(args, flag, None)
        if val is not None:
            overrides[field] = val
    cfg = replace(cfg, **overrides)
    if cfg.fmt not in ("human", "json", "csv"):
        raise DomainError(f"unknown format '{cfg.fmt}'")
    return cfg


# -- report emission -----------------------------------------------------------


def _fmt_cell(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def emit(cfg: RunConfig, command: str, columns, rows, extra=None, out=None):
    for r in rows:
        for v in r:
            if isinstance(v, float) and not math.isfinite(v):
                raise NumericsError(f"{command}: non-finite result {v}")
    out = out if out is not None else sys.stdout
    if cfg.fmt == "json":
        doc = {"command": command, "columns": list(columns),
               "rows": [list(r) for r in rows]}
        if extra:
            doc.update(extra)
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")), file=out)
        return
    if cfg.fmt == "csv":
        print(",".join(columns), file=out)
        for r in rows:
            print(",".join(_fmt_cell(v) for v in r), file=out)
        return
    cells = [[_fmt_cell(v) if not isinstance(v, float) else f"{v: .10e}" for v in r]
             for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)), file=out)
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)
    if extra:
        for k, v in extra.items():
            print(f"{k}: {v}", file=out)


# -- spec -> object helpers ------------------------------------------------------


def _as_f_of_t(spec: str, psi) -> JetFunction:
    expr = parse_expr(spec)
    if expr.has(X) or expr.has(U):
        raise DomainError(f"function spec {spec!r} must use only t and psi")
    wa = sp.expand(psi.expr - psi.expr.subs(T, psi.a))
    return JetFunction.of_t(sp.expand(expr.subs(W, wa)))


def _as_f_of_u(spec: str) -> JetFunction:
    expr = parse_expr(spec)
    if expr.has(X) or expr.has(T) or expr.has(W):
        raise DomainError(f"function spec {spec!r} must use only u")
    return JetFunction.of_u(expr)


def _as_jet(spec: str, psi) -> SolutionJet:
    expr = parse_expr(spec)
    if expr.has(U):
        raise DomainError(f"jet spec {spec!r} must use only x, t and psi")
    wa = sp.expand(psi.expr - psi.expr.subs(T, psi.a))
    return SolutionJet.from_expr(sp.expand(expr.subs(W, wa)))


def _t_list(raw: str, cfg: RunConfig):
    try:
        ts = [float(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise DomainError(f"bad t list {raw!r}") from None
    if not ts:
        raise DomainError("empty t list")
    for t in ts:
        if not cfg.a < t <= cfg.b:
            raise DomainError(f"t = {t} outside (a, b] = ({cfg.a}, {cfg.b}]")
    return ts


# -- commands ---------------------------------------------------------------------


def cmd_eval(cfg: RunConfig, args) -> int:
    psi = cfg.psi_fn()
    f = _as_f_of_t(args.f, psi)
    rows = []
    for t in _t_list(args.t, cfg):
        if args.op == "integral":
            quad = fo.frac_integral(f, psi, cfg.alpha, t, cfg.quad())
            series = fo.frac_integral_series(f, psi, cfg.alpha, t, cfg.terms).value
        else:
            quad = fo.frac_derivative(f, psi, cfg.alpha, t, cfg.quad())
            series = fo.frac_derivative_series(f, psi, cfg.alpha, t, cfg.terms).value
        rows.append((t, quad, series, abs(quad - series)))
    emit(cfg, f"eval {args.op}", ("t", "quadrature", "series", "discrepancy"), rows)
    return EXIT_PASS


def cmd_leibniz(cfg: RunConfig, args) -> int:
    psi = cfg.psi_fn()
    f = _as_f_of_t(args.f, psi)
    g = _as_f_of_t(args.g, psi)
    try:
        n_list = [int(s) for s in args.N.split(",") if s.strip()]
    except ValueError:
        raise DomainError(f"bad N list {args.N!r}") from None
    fg = JetFunction.of_t(sp.expand(f.expr * g.expr))
    rows, ok = [], True
    for t in _t_list(args.t, cfg):
        direct = fo.frac_derivative(fg, psi, cfg.alpha, t, cfg.quad())
        for n in n_list:
            approx = fo.leibniz_product(f, g, psi, cfg.alpha, t, n, cfg.quad())
            err = abs(approx - direct)
            rows.append((t, n, approx, direct, err))
        if err > cfg.tol:  # error at the last (largest) N decides the exit code
            ok = False
    emit(cfg, "leibniz", ("t", "N", "leibniz", "direct", "error"), rows)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_prolong(cfg: RunConfig, args) -> int:
    psi = cfg.psi_fn()
    xi = parse_expr(args.xi)
    tau = parse_expr(args.tau)
    eta = parse_expr(args.eta)
    for name, e in (("xi", xi), ("tau", tau), ("eta", eta)):
        if e.has(W):
            raise DomainError(f"{name} spec must use x, t, u (not psi)")
    inf = pr.Infinitesimals.from_exprs(xi, tau, eta)
    jet = _as_jet(args.u, psi)
    rows = []
    for t in _t_list(args.t, cfg):
        full = pr.eta_alpha_psi(inf, jet, psi, cfg.alpha, args.x, t,
                                terms=cfg.terms, quad=cfg.quad())
        mu = pr.mu_term(inf, jet, psi, cfg.alpha, args.x, t, M=cfg.terms)
        u_t = JetFunction.of_t(jet.expr.subs(X, args.x), max_order=40)
        omega = pr.omega_term(inf, u_t, psi, cfg.alpha, args.x, t, cfg.quad())
        compact = pr.eta_alpha_psi_compact(inf, jet, psi, cfg.alpha, args.x, t,
                                           terms=cfg.terms, quad=cfg.quad())
        rows.append((t, full, mu, omega, compact, abs(full - compact)))
    emit(cfg, "prolong",
         ("t", "eta_alpha", "mu", "omega", "compact", "discrepancy"), rows)
    return EXIT_PASS


_GFBE_CASES = {
    "arbitrary g": lambda p, b: U**2 + U,
    "g=u": lambda p, b: U,
    "g=u^p": lambda p, b: U**sp.nsimplify(p),
    "g=e^(b u)": lambda p, b: sp.exp(sp.nsimplify(b) * U),
    "g=u/(1+u)": lambda p, b: U / (1 + U),
}

_DIFFUSION_CASES = {
    "K=1": lambda c1: sp.Integer(1) + 0 * U,
    "K=power-law": lambda c1: (sp.nsimplify(c1) + 3 * U) ** sp.Rational(-4, 3),
}


def _candidate_from_args(cfg: RunConfig, args, case: str) -> sy.GeneratorCandidate:
    if args.table:
        table = sy.builtin_table(cfg.alpha, p=args.p, b=args.bpar, c1=args.c1)
        lookup = case if case != "K=power-law" else "K=(c1+3u)^(-4/3)"
        matches = [c for cs, c in table
                   if cs == lookup and c.label.startswith(args.table)]
        if not matches:
            raise DomainError(
                f"no table row labelled '{args.table}' for case '{case}'")
        return matches[0]
    xi = parse_expr(args.xi)
    theta = parse_expr(args.theta)
    rho = parse_expr(args.rho)
    if xi.has(T, U, W) or theta.has(T, U, W) or rho.has(T, U):
        raise DomainError("reduced candidate: xi(x), theta(x), rho(x, psi)")
    red = pr.ReducedInfinitesimals(
        cfg.alpha, sy._jx(xi), args.c0, args.ctau1, args.ctau2,
        sy._jx(theta), sy._jxw(rho),
    )
    return sy.GeneratorCandidate("explicit", reduced=red)


def _report_rows(rep: sy.ResidualReport):
    return [(name, res, "pass" if res <= rep.tol else "FAIL")
            for name, res in rep.equations.items()]


def cmd_verify(cfg: RunConfig, args) -> int:
    psi = cfg.psi_fn()
    case = args.case
    cand = _candidate_from_args(cfg, args, case)
    if args.equation == "gfbe":
        if case not in _GFBE_CASES:
            raise DomainError(f"unknown gfbe case '{case}'")
        g = JetFunction.of_u(_GFBE_CASES[case](args.p, args.bpar))
        rep = sy.detsys_gfbe(cand, g, psi, cfg.alpha, tol=cfg.tol, quad=cfg.quad())
    elif args.equation == "diffusion":
        if case not in _DIFFUSION_CASES:
            raise DomainError(f"unknown diffusion case '{case}'")
        K = JetFunction.of_u(_DIFFUSION_CASES[case](args.c1))
        rep = sy.detsys_diffusion(cand, K, psi, cfg.alpha, tol=cfg.tol,
                                  quad=cfg.quad())
    elif args.equation == "gazizov":
        if case not in _GFBE_CASES:
            raise DomainError(f"unknown gfbe case '{case}'")
        g = JetFunction.of_u(_GFBE_CASES[case](args.p, args.bpar))
        psi_cl = builtin("identity", 0.0, 10.0)
        gen = sy.GeneratorCandidate(cand.label,
                                    general=cand.reduced.to_general(psi_cl))
        rep = sy.detsys_gazizov_rl(gen, g, cfg.alpha, tol=cfg.tol)
    else:  # zhang
        if case not in _GFBE_CASES:
            raise DomainError(f"unknown gfbe case '{case}'")
        g = JetFunction.of_u(_GFBE_CASES[case](args.p, args.bpar))
        psi_cl = builtin("identity", 0.0, 10.0)
        eq = sy.EvolutionEquation("gfbe", cfg.alpha, psi_cl, g=g)
        rep = sy.detsys_zhang_rl(cand, eq, cfg.alpha, tol=cfg.tol)
    emit(cfg, f"verify {args.equation}", ("equation", "max_residual", "status"),
         _report_rows(rep),
         extra={"candidate": cand.label, "grid": rep.grid,
                "tol": rep.tol, "passed": rep.passed,
                "worst": rep.worst})
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _describe(cand: sy.GeneratorCandidate):
    r = cand.reduced
    return (cand.label, str(r.xi.expr), f"{r.c0:.17g}", f"{r.c1:.17g}",
            f"{r.c2:.17g}", str(r.theta.expr), str(r.rho.expr))


def cmd_solve(cfg: RunConfig, args) -> int:
    psi = cfg.psi_fn()
    case = args.case
    if case in _GFBE_CASES and case != "arbitrary g":
        g = JetFunction.of_u(_GFBE_CASES[case](args.p, args.bpar))
        eq = sy.EvolutionEquation("gfbe", cfg.alpha, psi, g=g)
        lookup = case
        kw = {"p": args.p} if case == "g=u^p" else (
            {"b": args.bpar} if case == "g=e^(b u)" else {})
    elif case in _DIFFUSION_CASES:
        K = JetFunction.of_u(_DIFFUSION_CASES[case](args.c1))
        eq = sy.EvolutionEquation("diffusion", cfg.alpha, psi, K=K)
        lookup = "K=1" if case == "K=1" else "K=(c1+3u)^(-4/3)"
        kw = {} if case == "K=1" else {"c1": args.c1}
    else:
        raise DomainError(f"unknown case '{case}'")
    basis = sy.solve_ansatz(eq, case, **kw)
    table = sy.builtin_table(cfg.alpha, p=args.p, b=args.bpar, c1=args.c1)
    published = [c for cs, c in table if cs in (lookup, "arbitrary g")]
    if case.startswith("K="):
        published = [c for cs, c in table if cs == lookup]
        if case == "K=power-law":
            published.insert(0, sy._x_translation(cfg.alpha))
    ok = st._same_span(basis, published)
    emit(cfg, f"solve {case}",
         ("label", "xi", "c0", "c1", "c2", "theta", "rho"),
         [_describe(c) for c in basis],
         extra={"matches_published": ok})
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_selftest(cfg: RunConfig, args) -> int:
    return st.run_all()


# -- argument parsing --------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--format", choices=("human", "json", "csv"))
    p.add_argument("--psi", choices=("identity", "power", "exponential", "affine"))
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--psi-rho", dest="psi_rho", type=float,
                   help="power-kernel exponent")
    p.add_argument("--alpha", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--nodes", type=int)
    p.add_argument("--terms", type=int)
    p.add_argument("--seed", type=int)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psifrac",
        description="Fractional operators with respect to a kernel function, "
                    "their symmetry prolongation and determining systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an operator with both backends")
    p.add_argument("op", choices=("integral", "derivative"))
    p.add_argument("--f", required=True, help="function spec in t, psi")
    p.add_argument("--t", required=True, help="comma-separated t values")
    _add_common(p)

    p = sub.add_parser("leibniz", help="product-rule convergence table")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--N", default="1,2,3,5,8,10", help="comma-separated term counts")
    _add_common(p)

    p = sub.add_parser("prolong", help="alpha-th prolongation coefficient")
    p.add_argument("--xi", required=True, help="spec in x, t, u")
    p.add_argument("--tau", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--u", required=True, help="solution jet spec in x, t, psi")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", required=True)
    _add_common(p)

    for name in ("verify", "solve"):
        p = sub.add_parser(
            name,
            help="check a generator against a determining system"
            if name == "verify" else "solve the reduced-ansatz system",
        )
        if name == "verify":
            p.add_argument("equation",
                           choices=("gfbe", "diffusion", "gazizov", "zhang"))
        p.add_argument("--case", required=True,
                       help="e.g. 'g=u', 'g=u^p', 'K=1', 'K=power-law'")
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--bpar", type=float, default=1.0, help="b in e^(b u)")
        p.add_argument("--c1", type=float, default=0.0,
                       help="c1 in K = (c1 + 3u)^(-4/3)")
        if name == "verify":
            p.add_argument("--table", help="builtin table row label prefix, e.g. X2")
            p.add_argument("--xi", default="0", help="explicit candidate: xi(x)")
            p.add_argument("--c0", type=float, default=0.0)
            p.add_argument("--ctau1", type=float, default=0.0)
            p.add_argument("--ctau2", type=float, default=0.0)
            p.add_argument("--theta", default="0")
            p.add_argument("--rho", default="0")
        _add_common(p)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    _add_common(p)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _build_config(args)
    except (DomainError, ParseError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    handler = {
        "eval": cmd_eval,
        "leibniz": cmd_leibniz,
        "prolong": cmd_prolong,
        "verify": cmd_verify,
        "solve": cmd_solve,
        "selftest": cmd_selftest,
    }[args.command]
    try:
        return handler(cfg, args)
    except (ParseError, DomainError) as e:
        # PoleError is a DomainError but marks a numerical singularity
        if isinstance(e, PoleError):
            print(f"numerical error: {e}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except PsifracError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as e:
        print(f"numerical error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
