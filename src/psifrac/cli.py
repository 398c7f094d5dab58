"""Command-line front end.

Commands ``eval``, ``leibniz``, ``prolong``, ``verify`` and ``solve`` take
``--config FILE`` and the flags of the :data:`SETTINGS` they read, and no
other; ``selftest`` takes none, and ``verify zhang`` and ``gazizov``, on
psi = t on [0, 10], no kernel or quadrature flag.  Exit codes: 0 pass,
1 verification failure, 2 configuration error (one line, whatever the
input error), 3 numerical error (an arithmetic fault or a non-finite
result included), 141 standard output closed by its reader (as in
``psifrac selftest | head -1``; the shell reports a writer killed by
SIGPIPE as 128 + 13).  Output formats: ``human`` (aligned table),
``json`` (canonical, byte-stable round trip), ``csv`` (17 significant
digits).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from typing import NamedTuple, Optional

import numpy as np

from . import fracops as fo
from . import tree as tr
from .errors import DomainError, NumericsError, PoleError, PsifracError
from .jets import JetFunction, SolutionJet
from .parser import ParseError, parse
from .psi import builtin

__all__ = ["main", "SETTINGS"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141

#: largest --terms, --N entry and jet depth of alpha: an input bound.  The
#: quadrature's forward-mode jets of a spec cost O(depth^2) series terms
#: per node of its tree; the --terms jets are Taylor mode
MAX_TERMS = 40
#: largest --nodes; the quadrature caches its nodes and the jet values
#: there per point, so this also caps what one cached table holds
MAX_NODES = 20000


class Setting(NamedTuple):
    """A run setting: its flag, type, default, help text, the commands
    that read it, and the values it may take when they are few."""

    flag: str
    type: type
    default: object
    help: str
    commands: tuple
    choices: Optional[tuple] = None


_KERNEL = ("eval", "leibniz", "prolong", "verify")  # the commands that take a kernel
_ALL = _KERNEL + ("solve",)
_QUADRATURE = ("eval", "leibniz", "verify")  # the commands that run the quadrature

#: every run setting, by config key; a command takes only the flags of those naming it
SETTINGS = {
    "format": Setting("--format", str, "human", "output format", _ALL, ("human", "json", "csv")),
    "psi": Setting("--psi", str, "identity", "kernel psi(t)", _KERNEL,
                   ("identity", "power", "exponential")),
    "a": Setting("--a", float, 0.0, "left end of the interval, the base point", _KERNEL),
    "b": Setting("--b", float, 2.0, "right end of the interval", _KERNEL),
    "rho": Setting("--psi-rho", float, 2.0, "power kernel exponent, finite and > 0", _KERNEL),
    "alpha": Setting("--alpha", float, 0.5, "order, finite and > 0", _ALL),
    "nodes": Setting("--nodes", int, 64, f"quadrature nodes, in [4, {MAX_NODES}]", _QUADRATURE),
    "terms": Setting("--terms", int, 20, f"series terms, in [0, {MAX_TERMS}]",
                     ("eval", "prolong")),
    "tol": Setting("--tol", float, 1e-8, "pass bound, finite and >= 0",
                   ("eval", "leibniz", "verify")),
}


def _load_config(path: str) -> dict:
    """Plain key = value document, keyed as :data:`SETTINGS`.  It may hold
    settings a command does not read, so one file serves every command."""
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
        if key not in SETTINGS:
            raise DomainError(f"unknown config key '{key}' in {path}")
        s = SETTINGS[key]
        try:
            out[key] = s.type(raw)
            if s.choices and out[key] not in s.choices:
                raise ValueError
        except ValueError:
            raise DomainError(f"bad value for '{key}' in {path}: {raw!r}") from None
    return out


def _build_config(args) -> argparse.Namespace:
    """Each setting's default, overridden by the config file, overridden by
    the flag, and validated before any work."""
    given = {n: getattr(args, n) for n in SETTINGS if getattr(args, n, None) is not None}
    cfg = argparse.Namespace(**{n: s.default for n, s in SETTINGS.items()})
    if getattr(args, "config", None):
        vars(cfg).update(_load_config(args.config))
    vars(cfg).update(given)
    fixed = [n for n in given if n in ("psi", "a", "b", "rho", "nodes")]
    if fixed and getattr(args, "equation", None) in ("zhang", "gazizov"):
        raise DomainError(f"verify {args.equation} runs on psi = t on [0, 10] without "
                          f"quadrature; {SETTINGS[fixed[0]].flag} does nothing")
    if "rho" in given and cfg.psi != "power":
        raise DomainError(f"{SETTINGS['rho'].flag} is the power kernel's exponent; "
                          f"the kernel is {cfg.psi}")
    if not (math.isfinite(cfg.alpha) and cfg.alpha > 0):
        raise DomainError(f"alpha must be finite and > 0, got {cfg.alpha}")
    # the base point, prolong's point x and verify's tau coefficients
    for name in ("a", "x", "c0", "ctau1", "ctau2"):
        v = getattr(cfg if name == "a" else args, name, None)
        if v is not None and not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v}")
    # a quadrature derivative of order alpha takes ceil(alpha) psi-jets
    if args.command == "leibniz" or getattr(args, "op", None) == "derivative":
        depth = math.ceil(cfg.alpha)
        if depth > MAX_TERMS:
            raise DomainError(f"alpha = {cfg.alpha} needs {depth} psi-jets, over {MAX_TERMS}")
    if not 4 <= cfg.nodes <= MAX_NODES:
        raise DomainError(f"nodes must be in [4, {MAX_NODES}], got {cfg.nodes}")
    if not 0 <= cfg.terms <= MAX_TERMS:
        raise DomainError(f"terms must be in [0, {MAX_TERMS}], got {cfg.terms}")
    if not (math.isfinite(cfg.tol) and cfg.tol >= 0):
        raise DomainError(f"tol must be finite and >= 0, got {cfg.tol}")
    if getattr(args, "N", None) is not None:
        _n_list(args.N)
    return cfg


def _n_list(raw: str):
    """The leibniz term counts, sorted: a non-empty comma list of integers
    in [0, MAX_TERMS]."""
    try:
        ns = sorted(int(s) for s in raw.split(",") if s.strip())
    except ValueError:
        raise DomainError(f"bad N list {raw!r}") from None
    if not ns or ns[0] < 0 or ns[-1] > MAX_TERMS:
        raise DomainError(
            f"N must be a non-empty list of integers in [0, {MAX_TERMS}], got {raw!r}")
    return ns


# -- report emission -----------------------------------------------------------


def _fmt_cell(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def emit(cfg: argparse.Namespace, command: str, columns, rows, extra=None):
    for r in rows:
        for v in r:
            if isinstance(v, float) and not math.isfinite(v):
                raise NumericsError(f"{command}: non-finite result {v}")
    if cfg.format == "json":
        doc = {"command": command, "columns": list(columns),
               "rows": [list(r) for r in rows]}
        if extra:
            doc.update(extra)
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return
    if cfg.format == "csv":
        print(",".join(columns))
        for r in rows:
            print(",".join(_fmt_cell(v) for v in r))
        return
    cells = [[_fmt_cell(v) if not isinstance(v, float) else f"{v: .10e}" for v in r]
             for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if extra:
        for k, v in extra.items():
            print(f"{k}: {v}")


# -- spec -> object helpers ------------------------------------------------------


def _psi(cfg: argparse.Namespace):
    return builtin(cfg.psi, cfg.a, cfg.b, rho=cfg.rho)


def _in_t(spec: str, psi, with_x: bool) -> tuple:
    """The tree of a spec in t, psi and, with_x, x, with psi(t) - psi(a)
    put in for psi."""
    e = parse(spec)
    if tr.names(e) - ({"t", "w", "x"} if with_x else {"t", "w"}):
        kind, names = ("jet", "x, t and psi") if with_x else ("function", "t and psi")
        raise DomainError(f"{kind} spec {spec!r} must use only {names}")
    return tr.subs(e, "w", psi.shifted)


def _as_f_of_t(spec: str, psi) -> JetFunction:
    return JetFunction.of_t(_in_t(spec, psi, False))


def _as_jet(spec: str, psi) -> SolutionJet:
    return SolutionJet.from_expr(_in_t(spec, psi, True))


def _t_list(raw: str, cfg: argparse.Namespace):
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


def cmd_eval(cfg: argparse.Namespace, args) -> int:
    psi = _psi(cfg)
    f = _as_f_of_t(args.f, psi)
    rule = fo.QuadratureSpec(cfg.nodes)
    rows = []
    for t in _t_list(args.t, cfg):
        if args.op == "integral":
            quad = fo.frac_integral(f, psi, cfg.alpha, t, rule)
            series = fo.frac_integral_series(f, psi, cfg.alpha, t, cfg.terms).value
        else:
            quad = fo.frac_derivative(f, psi, cfg.alpha, t, rule)
            series = fo.frac_derivative_series(f, psi, cfg.alpha, t, cfg.terms).value
        rows.append((t, quad, series, abs(quad - series)))
    emit(cfg, f"eval {args.op}", ("t", "quadrature", "series", "discrepancy"), rows)
    # the two backends are independent: a gap above tol (1 + |quadrature|),
    # criterion 2's measure, fails the check
    ok = all(gap <= cfg.tol * (1.0 + abs(quad)) for _, quad, _, gap in rows)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_leibniz(cfg: argparse.Namespace, args) -> int:
    psi = _psi(cfg)
    f = _as_f_of_t(args.f, psi)
    g = _as_f_of_t(args.g, psi)
    n_list = _n_list(args.N)
    fg = JetFunction.of_t(("mul", f.tree, g.tree))
    quad = fo.QuadratureSpec(cfg.nodes)
    rows, ok = [], True
    for t in _t_list(args.t, cfg):
        direct = fo.frac_derivative(fg, psi, cfg.alpha, t, quad)
        for n in n_list:
            approx = fo.leibniz_product(f, g, psi, cfg.alpha, t, n, quad)
            err = abs(approx - direct)
            rows.append((t, n, approx, direct, err))
        if err > cfg.tol:  # error at the largest N, the last, decides the exit code
            ok = False
    emit(cfg, "leibniz", ("t", "N", "leibniz", "direct", "error"), rows)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_prolong(cfg: argparse.Namespace, args) -> int:
    from . import prolong as pr

    psi = _psi(cfg)
    specs = {name: parse(getattr(args, name)) for name in ("xi", "tau", "eta")}
    for name, e in specs.items():
        if "w" in tr.names(e):
            raise DomainError(f"{name} spec must use x, t, u (not psi)")
    inf = pr.Infinitesimals.from_exprs(*specs.values())
    jet = _as_jet(args.u, psi)
    rows = []
    for t in _t_list(args.t, cfg):
        # one row: mu and omega once, added as eta_alpha_psi and
        # eta_alpha_psi_compact add them
        row = pr._Row(inf, jet, psi, cfg.alpha, args.x, t, cfg.terms)
        acc = row.expanded()
        mu = row.mu()
        omega = pr.omega_term(inf, jet.u, psi, cfg.alpha, args.x, t)
        full = (acc + mu) + omega
        compact = row.compact() + omega
        rows.append((t, full, mu, omega, compact, abs(full - compact)))
    emit(cfg, "prolong",
         ("t", "eta_alpha", "mu", "omega", "compact", "discrepancy"), rows)
    return EXIT_PASS


def _case_params(args) -> dict:
    return {"p": args.p, "b": args.bpar, "c1": args.c1}


def _candidate_from_args(alpha: float, args, case):
    from . import prolong as pr
    from . import symmetry as sy

    if args.table:
        rows = case.rows(alpha, **_case_params(args))
        matches = [c for c in rows if c.label.startswith(args.table)]
        if not matches:
            raise DomainError(
                f"no table row labelled '{args.table}' for case '{case.name}'")
        return matches[0]
    xi, theta, rho = (parse(s) for s in (args.xi, args.theta, args.cand_rho))
    if (tr.names(xi) | tr.names(theta)) - {"x"} or tr.names(rho) - {"x", "w"}:
        raise DomainError("reduced candidate: xi(x), theta(x), rho(x, psi)")
    red = pr.ReducedInfinitesimals(
        alpha, sy._jx(xi), args.c0, args.ctau1, args.ctau2,
        sy._jx(theta), sy._jxw(rho),
    )
    return sy.GeneratorCandidate("explicit", reduced=red)


def _report_rows(rep):
    return [(name, res, "pass" if res <= rep.tol else "FAIL")
            for name, res in rep.equations.items()]


def cmd_verify(cfg: argparse.Namespace, args) -> int:
    from . import symmetry as sy

    psi = _psi(cfg)
    kind = "diffusion" if args.equation == "diffusion" else "gfbe"
    case = sy.lookup_case(args.case, kind)
    params = _case_params(args)
    cand = _candidate_from_args(cfg.alpha, args, case)
    if args.equation in ("gfbe", "diffusion"):
        system = sy.detsys_gfbe if kind == "gfbe" else sy.detsys_diffusion
        rep = system(cand, case.jet(**params), psi, cfg.alpha,
                     tol=cfg.tol, quad=fo.QuadratureSpec(cfg.nodes))
    elif args.equation == "gazizov":  # the classical systems: psi = t on [0, 10]
        psi_cl = builtin("identity", 0.0, 10.0)
        gen = sy.GeneratorCandidate(cand.label, general=cand.reduced.to_general(psi_cl))
        rep = sy.detsys_gazizov_rl(gen, case.jet(**params), cfg.alpha, tol=cfg.tol)
    else:  # zhang
        eq = case.equation(cfg.alpha, builtin("identity", 0.0, 10.0), **params)
        rep = sy.detsys_zhang_rl(cand, eq, cfg.alpha, tol=cfg.tol)
    emit(cfg, f"verify {args.equation}", ("equation", "max_residual", "status"),
         _report_rows(rep),
         extra={"candidate": cand.label, "grid": rep.grid,
                "tol": rep.tol, "passed": rep.passed,
                "worst": rep.worst})
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _describe(cand):
    """A solved generator's row: its label, xi, theta and rho printed from
    their trees (:func:`psifrac.tree.to_text`), so that printing loads no
    sympy, and c0, c1 and c2 to 17 digits."""
    r = cand.reduced
    xi, theta, rho = (tr.to_text(f.tree) for f in (r.xi, r.theta, r.rho))
    return (cand.label, xi, f"{r.c0:.17g}", f"{r.c1:.17g}", f"{r.c2:.17g}", theta, rho)


def _finite(node: tuple) -> bool:
    """Whether every number of a tree is finite."""
    if node[0] == "num":
        return math.isfinite(float(node[1]))
    return node[0] == "sym" or all(map(_finite, node[1:]))


def cmd_solve(cfg: argparse.Namespace, args) -> int:
    from . import symmetry as sy

    case = sy.lookup_case(args.case)
    if case.params is None:
        raise DomainError(f"solve has no ansatz for case '{case.name}'")
    params = _case_params(args)
    basis = case.solve(cfg.alpha, **params)
    # a row is text, which emit does not check: an order near 0 overflows
    # c1 = 2/alpha, and Gamma(alpha) in K=1's rho
    for c in basis:
        r = c.reduced
        if not (all(map(math.isfinite, (r.c0, r.c1, r.c2)))
                and all(_finite(f.tree) for f in (r.xi, r.theta, r.rho))):
            raise NumericsError(f"solve {case.name}: non-finite number in {c.label!r}")
    ok = case.matches(basis, cfg.alpha, **params)
    emit(cfg, f"solve {case.name}",
         ("label", "xi", "c0", "c1", "c2", "theta", "rho"),
         [_describe(c) for c in basis],
         extra={"matches_published": ok})
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_selftest(cfg: argparse.Namespace, args) -> int:
    from . import selftest as st

    return st.run_all()


# -- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Every parse error is one config error line.  later(parser), if
    given, adds the arguments that need the case registry when the parser
    is first used, so that parsing eval, leibniz, prolong or selftest
    imports neither symmetry nor prolong."""

    def __init__(self, *args, later=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.later = later

    def parse_known_args(self, args=None, namespace=None):
        if self.later:
            later, self.later = self.later, None
            later(self)
        return super().parse_known_args(args, namespace)

    def _parse_optional(self, arg_string):
        # only a registered option string, alone or as --flag=value, is an
        # option: anything else that starts with '-' is a value, as -3*x is
        # for --theta (argparse would take it for an unknown option)
        if arg_string.split("=", 1)[0] not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _command(sub, name: str, run, help: str, later=None) -> argparse.ArgumentParser:
    """The parser of command name, which run carries out: --config and the
    flags of the settings it reads, if any, unabbreviated (solve's --a is
    an error, not its --alpha)."""
    p = sub.add_parser(name, help=help, allow_abbrev=False, later=later)
    p.set_defaults(run=run)
    reads = [(key, s) for key, s in SETTINGS.items() if name in s.commands]
    if reads:
        p.add_argument("--config", help="key = value file of settings, keyed "
                       + ", ".join(SETTINGS) + "; a flag overrides it")
    for key, s in reads:
        p.add_argument(s.flag, dest=key, type=s.type, choices=s.choices,
                       help=f"{s.help} (default {s.default})")
    return p


def _case_arguments(p: argparse.ArgumentParser) -> None:
    """--case and the case parameters of verify and solve, and verify's
    candidate flags."""
    from . import symmetry as sy

    verify = p.prog.endswith("verify")
    # solve has an ansatz for the cases whose solver parameters it knows
    cases = [c for c in sy.CASES if verify or c.params is not None]
    p.add_argument("--case", required=True,
                   help="one of " + ", ".join(repr(c.name) for c in cases))
    for flag, key in (("--p", "p"), ("--bpar", "b"), ("--c1", "c1")):
        # the table row of the case whose solver reads the parameter
        row = next(c.row for c in sy.CASES if key in (c.params or ()))
        p.add_argument(flag, type=float, default=sy.CASE_DEFAULTS[key],
                       help=f"{key} in {row}")
    if verify:
        p.add_argument("--table", help="builtin table row label prefix, e.g. X2")
        p.add_argument("--xi", default="0", help="explicit candidate: xi(x)")
        p.add_argument("--c0", type=float, default=0.0)
        p.add_argument("--ctau1", type=float, default=0.0)
        p.add_argument("--ctau2", type=float, default=0.0)
        p.add_argument("--theta", default="0")
        p.add_argument("--rho", dest="cand_rho", default="0")


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="psifrac", allow_abbrev=False,
        description="Fractional operators with respect to a kernel function, "
                    "their symmetry prolongation and determining systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, "eval", cmd_eval, "evaluate an operator with both backends")
    p.add_argument("op", choices=("integral", "derivative"))
    p.add_argument("--f", required=True, help="function spec in t, psi")
    p.add_argument("--t", required=True, help="comma-separated t values")

    p = _command(sub, "leibniz", cmd_leibniz, "product-rule convergence table")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--N", default="1,2,3,5,8,10", help="comma-separated term counts")

    p = _command(sub, "prolong", cmd_prolong, "alpha-th prolongation coefficient")
    p.add_argument("--xi", required=True, help="spec in x, t, u")
    p.add_argument("--tau", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--u", required=True, help="solution jet spec in x, t, psi")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", required=True)

    p = _command(sub, "verify", cmd_verify, "check a generator against a determining system",
                 _case_arguments)
    p.add_argument("equation", choices=("gfbe", "diffusion", "gazizov", "zhang"))
    _command(sub, "solve", cmd_solve, "solve the reduced-ansatz system", _case_arguments)

    _command(sub, "selftest", cmd_selftest, "run the acceptance criteria")
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _build_config(args)
        # emit turns a non-finite value into exit 3 with one line; numpy's
        # floating-point warnings would only add lines to it
        with np.errstate(all="ignore"):
            code = args.run(cfg, args)
        # buffered output reaches a closed pipe here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: say nothing more, and let the interpreter's
        # own flush at exit write to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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
