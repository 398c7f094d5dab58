"""Outside tracer: spans around calls into psifrac's public functions.

Nothing in ``src/`` is changed.  :func:`install` replaces every alias of
each listed function across the loaded ``psifrac.*`` namespaces (and on
the classes, for methods) with a wrapper that records a span, and wraps
``sympy.diff``, ``sympy.expand`` and ``sympy.lambdify`` so that each call
made from a psifrac module is attributed to that module.
:meth:`Tracer.uninstall` puts every original object back.

Self time is computed online with a stack (a span's duration minus the
time its child spans cover), so the per-layer figures are exact however
many spans a run makes; the span records themselves (name, start, end,
parent, operation id) are kept in memory up to ``keep`` and written out
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# module -> public functions timed by the traced run; a dotted entry is a
# method (psi.call is PsiFunction.__call__)
LAYERS = {
    "cli": ["main"],
    "parser": ["parse_expr"],
    "psi": ["PsiFunction.__call__", "PsiFunction.invert", "PsiFunction.deriv"],
    "jets": ["JetFunction.partial"],
    "special": ["rgamma", "gamma", "gen_binom"],
    "fracops": ["frac_integral", "frac_derivative", "frac_op_series",
                "psi_deriv_m", "leibniz_product", "product_integral"],
    "prolong": ["eta_alpha_psi", "eta_alpha_psi_compact", "mu_term",
                "omega_commutator"],
    "symmetry": ["detsys_gfbe", "detsys_diffusion", "detsys_zhang_rl",
                 "detsys_gazizov_rl", "solve_ansatz"],
}
SYMPY_ENTRIES = ("diff", "expand", "lambdify")
SYMPY_CALLERS = ("psi", "jets", "fracops", "prolong", "symmetry")


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a traced function: psi.call, fracops.psi_deriv_m."""
    leaf = attr.rsplit(".", 1)[-1]
    return f"{module}.{'call' if leaf == '__call__' else leaf}"


def layer_span_names():
    names = [span_name(m, a) for m, attrs in LAYERS.items() for a in attrs]
    names += [f"{m}.sympy_{e}" for m in SYMPY_CALLERS for e in SYMPY_ENTRIES]
    return names


class Tracer:
    """Span recorder with online self-time aggregation."""

    def __init__(self, clock=time.perf_counter, keep: int = 200_000):
        self.clock = clock
        self.keep = keep
        self.active = True
        self.op = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent name, child name) -> calls
        self.zero_jets = 0
        self.grid_points = 0
        self.spans = []  # (name, start, end, parent id, op id), first `keep`
        self.n_spans = 0
        self._stack = []  # [name, start, child time, span id]
        self._restore = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, self.n_spans])
        self.n_spans += 1

    def exit(self) -> None:
        end = self.clock()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
            self.edges[(parent[0], name)] += 1
        if sid < self.keep:
            self.spans.append((name, start, end,
                               parent[3] if parent is not None else -1, self.op))

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(out)
            return out

        return traced

    def wrap_sympy(self, entry: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("psifrac."):
                return fn(*args, **kwargs)
            tracer.enter(f"{caller[len('psifrac.'):]}.sympy_{entry}")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap every listed function under every alias in psifrac.*."""
        import sympy

        modules = {m: importlib.import_module(f"psifrac.{m}") for m in LAYERS}
        # a module imported after this point would bind wrapped functions by
        # name and keep them after uninstall
        importlib.import_module("psifrac.selftest")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None
                      and (name == "psifrac" or name.startswith("psifrac."))]
        observers = {
            "fracops.psi_deriv_m": self._observe_jet,
            **{f"symmetry.{f}": self._observe_report
               for f in LAYERS["symmetry"] if f.startswith("detsys_")},
        }
        for module, attrs in LAYERS.items():
            for attr in attrs:
                name = span_name(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(modules[module], cls_name)
                    self._replace(cls, meth, self.wrap(name, cls.__dict__[meth]))
                    continue
                orig = getattr(modules[module], attr)
                traced = self.wrap(name, orig, observers.get(name))
                for ns in namespaces:
                    for alias, obj in list(vars(ns).items()):
                        if obj is orig:
                            self._replace(ns, alias, traced)
        for entry in SYMPY_ENTRIES:
            self._replace(sympy, entry,
                          self.wrap_sympy(entry, sympy.__dict__[entry]))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- counters read off return values -----------------------------------

    def _observe_jet(self, value) -> None:
        if value == 0.0:
            self.zero_jets += 1

    def _observe_report(self, report) -> None:
        # ResidualReport.grid reads "NxMxK nodes, ..."
        dims = report.grid.split(" ", 1)[0].split("x")
        n = 1
        for d in dims:
            n *= int(d)
        self.grid_points += n

    # -- results -----------------------------------------------------------

    def state(self) -> dict:
        """Aggregates in a JSON-able form (mergeable across processes)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "zero_jets": self.zero_jets,
            "grid_points": self.grid_points,
            "n_spans": self.n_spans,
            "spans": self.spans,
        }


def merge(states) -> dict:
    """Sum the aggregates of several tracer states; spans are concatenated
    with their ids offset so parents stay consistent."""
    calls, self_s, edges = Counter(), defaultdict(float), Counter()
    out = {"zero_jets": 0, "grid_points": 0, "n_spans": 0, "spans": []}
    for st in states:
        calls.update(st["calls"])
        for k, v in st["self_s"].items():
            self_s[k] += v
        for p, c, n in st["edges"]:
            edges[(p, c)] += n
        base = out["n_spans"]
        out["spans"].extend(
            (n, s, e, p + base if p >= 0 else -1, op) for n, s, e, p, op in st["spans"])
        for k in ("zero_jets", "grid_points", "n_spans"):
            out[k] += st[k]
    out.update(calls=dict(calls), self_s=dict(self_s),
               edges=[[p, c, n] for (p, c), n in edges.items()])
    return out


def layer_metrics(state: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a tracer state."""
    calls, self_s = state["calls"], state["self_s"]
    edges = {(p, c): n for p, c, n in state["edges"]}
    out = {}
    for name in layer_span_names():
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    n_deriv = calls.get("fracops.frac_derivative", 0)
    n_jets = calls.get("fracops.psi_deriv_m", 0)
    # each Gauss-Jacobi node evaluates the integrand at psi.invert(v)
    out["fracops.quad_evals"] = (edges.get(("fracops.frac_integral", "psi.invert"), 0),
                                 "count")
    out["fracops.integrals_per_derivative"] = (
        edges.get(("fracops.frac_derivative", "fracops.frac_integral"), 0)
        / n_deriv if n_deriv else 0.0, "ratio")
    out["fracops.series_terms"] = (
        edges.get(("fracops.frac_op_series", "fracops.psi_deriv_m"), 0), "count")
    out["fracops.zero_jet_ratio"] = (
        state["zero_jets"] / n_jets if n_jets else 0.0, "ratio")
    out["symmetry.grid_points"] = (state["grid_points"], "count")
    return out
