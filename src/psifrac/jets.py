"""Symbolic jet carriers and the one compile cache.

A :class:`JetFunction` is a scalar function of declared variables exposing
exact mixed partial derivatives of any order; it carries the functions u,
f, g, eta, rho used everywhere else.  It is given either as a sympy
expression or as a tree (:mod:`psifrac.tree`), as a parsed spec is; each
form is built from the other when first asked, so a function that stays a
tree never loads sympy.  Derivatives come from the expression, never from
finite differences.

:func:`compiled` turns an expression, or one of its mixed partials, into
a float callable; every lambdified callable in the package comes from it,
so equal requests share one compile.  The symbolic psi-jets of the
quadrature backend, for functions given in sympy, are built in
:mod:`psifrac.fracops`, which sits above this module, and are compiled
here like any other expression; the psi-jets of a tree, of the series
backend and of the prolongation are never compiled (forward-mode and
Taylor arithmetic), and neither are the determining systems, which
evaluate trees (:func:`psifrac.tree.evaluate`).

sympy is loaded on first use: it (``sp``) and the symbols ``X``, ``T``,
``U`` and ``W`` are module attributes made on first access (PEP 562).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

__all__ = ["JetFunction", "SolutionJet", "compiled", "symbol", "X", "T", "U", "W"]


def __getattr__(name: str):
    if name == "sp":
        import sympy

        globals()["sp"] = sympy
        return sympy
    if name in ("X", "T", "U", "W"):
        return symbol(name.lower())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sp():
    """sympy, through the module attribute ``sp``."""
    return sys.modules[__name__].sp


@lru_cache(maxsize=64)
def symbol(name: str):
    """The real sympy symbol of a variable name; ``w`` is the placeholder
    for psi(t) - psi(a) in expressions given "in psi units"."""
    return _sp().Symbol(name, real=True)


# a few kB per entry; many entries (one alpha, one parsed f) are never
# reused, so the bound keeps memory flat over long runs
@lru_cache(maxsize=1024)
def compiled(expr, vars: tuple = None, orders: tuple = ()):
    """Float callable of expr in vars, or of its mixed partial of the given
    orders (one per variable, differentiated in the order of vars).

    vars None stands for (t,): hashing a sympy symbol runs Python code, and
    the hot callers, psi and the psi-jets of f(t), look up on every call.
    Pass every argument positionally: the cache keys on the arguments as
    given.  This is the package's one lambdify.  An expression or partial
    that is exactly 0 is not compiled: every such request shares one
    constant callable.  ``docstring_limit=0`` keeps lambdify from printing
    the expression a second time, into the callable's ``__doc__`` (about a
    quarter of a compile); the generated code is the same.
    """
    sp = _sp()
    if vars is None:
        vars = (symbol("t"),)
    e = expr
    for v, o in zip(vars, orders):
        if o:
            e = sp.diff(e, v, o)
    if e is sp.S.Zero:
        return _zero
    return sp.lambdify(vars, e, "math", docstring_limit=0)


def _zero(*args):
    """The compiled form of an expression that is exactly 0: it returns
    the int 0, as the lambdified ``return 0`` does."""
    return 0


def _given(expr):
    """A tree as it is; anything else through sympify."""
    return expr if isinstance(expr, tuple) else _sp().sympify(expr)


@dataclass(frozen=True, init=False)
class JetFunction:
    """Function of the declared variables with exact partials.

    ``source`` is the function as given, a sympy expression or a tree;
    ``names`` are the names of its variables, in order.  ``expr`` (sympy)
    and ``tree`` are each built from the other when first asked."""

    source: object
    names: tuple

    def __init__(self, expr, vars: Sequence):
        object.__setattr__(self, "source", expr)
        object.__setattr__(self, "names", tuple(getattr(v, "name", v) for v in vars))
        if not all(isinstance(v, str) for v in vars):
            object.__setattr__(self, "vars", tuple(vars))  # the symbols as given

    def __hash__(self) -> int:
        # kept: a tree's hash walks the tree, and the jet caches look f up
        # at every call
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((self.source, self.names))
        return self.__dict__["_hash"]

    @property
    def symbolic(self) -> bool:
        """Given as a sympy expression, rather than as a tree."""
        return not isinstance(self.source, tuple)

    @cached_property
    def expr(self):
        """The sympy expression."""
        if self.symbolic:
            return self.source
        from .tree import to_sympy

        return to_sympy(self.source)

    @cached_property
    def tree(self) -> tuple:
        """The tree (:mod:`psifrac.tree`); a DomainError for a sympy node
        that has none."""
        if not self.symbolic:
            return self.source
        from .tree import from_sympy

        return from_sympy(self.source)

    @cached_property
    def vars(self) -> tuple:
        """The sympy symbols of the variables."""
        return tuple(map(symbol, self.names))

    @classmethod
    def of_t(cls, expr) -> "JetFunction":
        return cls(_given(expr), ("t",))

    @classmethod
    def of_xt(cls, expr) -> "JetFunction":
        return cls(_given(expr), ("x", "t"))

    @classmethod
    def of_u(cls, expr) -> "JetFunction":
        return cls(_given(expr), ("u",))

    @classmethod
    def of_xtu(cls, expr) -> "JetFunction":
        return cls(_given(expr), ("x", "t", "u"))

    def _fn(self, orders: tuple):
        """Compiled mixed partial."""
        if len(orders) != len(self.names):
            raise ValueError(f"expected {len(self.names)} orders, got {orders}")
        if any(o < 0 for o in orders):
            raise ValueError("negative derivative order")
        return compiled(self.expr, self.vars, orders)

    def partial(self, orders: Sequence[int], *args: float) -> float:
        return float(self._fn(tuple(int(o) for o in orders))(*args))

    def __call__(self, *args: float) -> float:
        return self.partial((0,) * len(self.names), *args)


@dataclass(frozen=True)
class SolutionJet:
    """A solution u(x, t), carried as its expression."""

    u: JetFunction

    @classmethod
    def from_expr(cls, expr) -> "SolutionJet":
        return cls(JetFunction.of_xt(expr))

    @property
    def expr(self):
        return self.u.expr
