"""Symbolic jet carriers and the one compile cache.

A :class:`JetFunction` is a scalar function of declared variables exposing
exact mixed partial derivatives of any order; it carries the functions u,
f, g, eta, rho used everywhere else.  Derivatives come from a sympy
expression, never from finite differences.

:func:`compiled` turns an expression, or one of its mixed partials, into
a float callable; every lambdified callable in the package comes from
it, so equal requests share one compile.  The symbolic psi-jets of the
quadrature backend are built in :mod:`psifrac.fracops`, which sits above
this module, and are compiled here like any other expression; the psi-jets
of the series backend and of the prolongation are never compiled (Taylor
arithmetic, :mod:`psifrac.taylor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import sympy as sp

__all__ = ["JetFunction", "SolutionJet", "compiled", "X", "T", "U", "W"]

X = sp.Symbol("x", real=True)
T = sp.Symbol("t", real=True)
U = sp.Symbol("u", real=True)
#: placeholder for psi(t) - psi(a) in expressions given "in psi units"
W = sp.Symbol("w", real=True)


# a few kB per entry; many entries (one alpha, one parsed f) are never
# reused, so the bound keeps memory flat over long runs
@lru_cache(maxsize=1024)
def compiled(expr: sp.Expr, vars: tuple = None, orders: tuple = ()):
    """Float callable of expr in vars, or of its mixed partial of the given
    orders (one per variable, differentiated in the order of vars).

    vars None stands for (t,): hashing a sympy symbol runs Python code, and
    the hot callers, psi and the psi-jets of f(t), look up on every call.
    Pass every argument positionally: the cache keys on the arguments as
    given.  An expression or partial that is exactly 0 (as many partials
    of the determining systems are) is not compiled: every such request
    shares one constant callable.

    ``docstring_limit=0`` keeps lambdify from printing the expression a
    second time, into the callable's ``__doc__`` (about a quarter of a
    compile); the generated code is the same.
    """
    if vars is None:
        vars = (T,)
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


@dataclass(frozen=True)
class JetFunction:
    """Function of the declared sympy variables with exact partials."""

    expr: sp.Expr
    vars: tuple

    @classmethod
    def of_t(cls, expr) -> "JetFunction":
        return cls(sp.sympify(expr), (T,))

    @classmethod
    def of_xt(cls, expr) -> "JetFunction":
        return cls(sp.sympify(expr), (X, T))

    @classmethod
    def of_u(cls, expr) -> "JetFunction":
        return cls(sp.sympify(expr), (U,))

    @classmethod
    def of_xtu(cls, expr) -> "JetFunction":
        return cls(sp.sympify(expr), (X, T, U))

    def _fn(self, orders: tuple):
        """Compiled mixed partial."""
        if len(orders) != len(self.vars):
            raise ValueError(f"expected {len(self.vars)} orders, got {orders}")
        if any(o < 0 for o in orders):
            raise ValueError("negative derivative order")
        return compiled(self.expr, self.vars, orders)

    def partial(self, orders: Sequence[int], *args: float) -> float:
        return float(self._fn(tuple(int(o) for o in orders))(*args))

    def __call__(self, *args: float) -> float:
        return self.partial((0,) * len(self.vars), *args)


@dataclass(frozen=True)
class SolutionJet:
    """A solution u(x, t), carried as its expression."""

    u: JetFunction

    @classmethod
    def from_expr(cls, expr) -> "SolutionJet":
        return cls(JetFunction.of_xt(expr))

    @property
    def expr(self) -> sp.Expr:
        return self.u.expr
