"""Expression trees: the one form of a function that the parser, the series
backend (:mod:`psifrac.taylor`) and the quadrature's forward-mode jets
(:mod:`psifrac.fracops`) share, with no sympy.

A node is a tuple ``(op, *children)``, so trees are hashable and compare
by structure::

    ("num", v)           a number: an int, a float, or the text of a decimal
                         (read by float(), and by sympy at its own precision)
    ("sym", name)        a variable: "t", "x", "u", or "w" for psi(t) - psi(a)
    ("add", a, b, ...)   a sum, evaluated left to right
    ("mul", a, b, ...)   a product, likewise
    ("pow", base, e)     base ** e, e a node
    ("exp", a), ("log", a), ("sin", a), ("cos", a)

The parser writes ``a - b`` as ``a + (-1) b``, ``a / b`` as ``a b^-1`` and
``-a`` as ``(-1) a``, one binary node per operator, and :func:`to_sympy`
builds ``a b^-1`` as ``a / b``, so it gives the sympy expression the same
operators would.  :func:`from_sympy` keeps sympy's argument order and puts
each sub-expression free of symbols in as the float sympy gives it, so a
program compiled from it does the arithmetic it did when it read sympy
directly.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

from .errors import DomainError, NumericsError

__all__ = ["T", "X", "U", "W", "num", "names", "subs", "to_sympy", "from_sympy"]

T = ("sym", "t")
X = ("sym", "x")
U = ("sym", "u")
#: psi(t) - psi(a) in a spec, the ``psi`` of the grammar
W = ("sym", "w")

_FUNCTIONS = ("exp", "log", "sin", "cos")


def num(v) -> tuple:
    return ("num", v)


def names(node: tuple) -> frozenset:
    """The names of the variables node depends on."""
    if node[0] == "sym":
        return frozenset((node[1],))
    if node[0] == "num":
        return frozenset()
    return frozenset().union(*map(names, node[1:]))


def subs(node: tuple, name: str, value: tuple) -> tuple:
    """node with the variable name replaced by the tree value."""
    if node[0] == "sym":
        return value if node[1] == name else node
    if node[0] == "num":
        return node
    return (node[0], *(subs(a, name, value) for a in node[1:]))


def to_sympy(node: tuple):
    """The sympy expression of a tree, over the symbols of :mod:`psifrac.jets`."""
    import sympy as sp

    from .jets import symbol

    op = node[0]
    if op == "num":
        v = node[1]
        return sp.Integer(v) if isinstance(v, int) else sp.Float(v)
    if op == "sym":
        return symbol(node[1])
    if op == "mul" and len(node) == 3 and node[2][0] == "pow" and node[2][2] == ("num", -1):
        # a / b: sympy divides two numbers in one rounding
        return to_sympy(node[1]) / to_sympy(node[2][1])
    args = [to_sympy(a) for a in node[1:]]
    if op == "add":
        return reduce(lambda a, b: a + b, args)
    if op == "mul":
        return reduce(lambda a, b: a * b, args)
    if op == "pow":
        return args[0] ** args[1]
    return getattr(sp, op)(args[0])


# the prolongation converts the same few expressions at every point
@lru_cache(maxsize=1024)
def from_sympy(expr) -> tuple:
    """The tree of a sympy expression.  Add, Mul, Pow, exp, log, sin and
    cos are kept, in sympy's argument order; a sub-expression free of
    symbols becomes the float it evaluates to, and any other node is a
    DomainError that names it."""
    node = _convert(expr)
    return _constant(expr) if node is None else node


def _convert(e):
    """The tree of e, or None when e is free of symbols."""
    if e.is_Symbol:
        return ("sym", e.name)
    kids = [_convert(a) for a in e.args]
    if all(k is None for k in kids):
        return None
    kids = tuple(_constant(a) if k is None else k for k, a in zip(kids, e.args))
    if e.is_Add:
        return ("add", *kids)
    if e.is_Mul:
        return ("mul", *kids)
    if e.is_Pow:
        return ("pow", *kids)
    name = type(e).__name__
    if name in _FUNCTIONS:
        return (name, *kids)
    raise DomainError(f"psi-jets: unsupported {name} node {e}")


def _constant(e) -> tuple:
    try:
        v = float(e)
    except TypeError:
        raise NumericsError(f"constant {e} is not a real number") from None
    if not math.isfinite(v):
        raise NumericsError(f"constant {e} is not finite")
    return ("num", v)
