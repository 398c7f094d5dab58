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

A number may also be a :class:`~fractions.Fraction`, an exact rational
that :func:`to_sympy` makes a ``Rational``, or, for a parameter that no
small fraction gives, the sympy number ``nsimplify`` gives.  Ints and
Fractions (any :class:`numbers.Rational`) stay exact in :func:`add`,
:func:`mul` and :func:`power_sum`.

The parser writes ``a - b`` as ``a + (-1) b``, ``a / b`` as ``a b^-1`` and
``-a`` as ``(-1) a``, one binary node per operator, and :func:`to_sympy`
builds ``a b^-1`` as ``a / b``, so it gives the sympy expression the same
operators would.  :func:`from_sympy` keeps sympy's argument order and puts
each sub-expression free of symbols in as the float sympy gives it, so a
program compiled from it does the arithmetic it did when it read sympy
directly.  :func:`to_text` prints a tree with no sympy: for the exact
bases ``solve`` prints it gives sympy's str, and a float prints as its
round-trip repr.

The determining systems and the prolongation take their functions'
derivatives here, with no sympy: :func:`diff`, whose :func:`add`,
:func:`mul` and :func:`power` drop 0 and 1 by structure (a derivative that
is 0 is the node 0, so a table stops where sympy's would); :func:`evaluate`
on numpy arrays; :func:`expand`, sympy's expand on trees, which the
prolongation applies to each factor before it is compiled; and
:func:`power_sum`, the split of that same expansion into c_j w^p_j that the
exact power rule sums (:func:`psifrac.fracops.frac_deriv_psi_powers`).
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError, NumericsError

__all__ = ["T", "X", "U", "W", "ZERO", "ONE", "num", "names", "subs", "to_sympy", "to_text",
           "from_sympy", "add", "mul", "power", "diff", "evaluate", "expand", "power_sum"]

T = ("sym", "t")
X = ("sym", "x")
U = ("sym", "u")
#: psi(t) - psi(a) in a spec, the ``psi`` of the grammar
W = ("sym", "w")

_FUNCTIONS = ("exp", "log", "sin", "cos")


def num(v) -> tuple:
    """The number v; a Fraction that is an integer becomes the int."""
    return ("num", _exact(v))


def _exact(k):
    """k, an int where it is a whole Fraction."""
    return k.numerator if isinstance(k, numbers.Rational) and k.denominator == 1 else k


ZERO = num(0)
ONE = num(1)


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
        if isinstance(v, int):
            return sp.Integer(v)
        if isinstance(v, numbers.Rational):
            return sp.Rational(v.numerator, v.denominator)
        return sp.Float(v) if isinstance(v, (float, str)) else v
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


def to_text(node: tuple) -> str:
    """The text of a tree, with no sympy: an int by str, a Fraction as
    p/q, a float by its round-trip repr, a sympy number by its own str.  A
    product's exact rational factors, with each ``("pow", q, -1)`` of a
    rational q, fold into one coefficient, printed as its sign, ``k*``,
    the other factors and ``/q``.  A compound base or exponent of a power
    takes parentheses, as does a sum in a product.  Where no float is in
    the tree, the text is str(to_sympy(node)) for the bases solve prints."""
    op = node[0]
    if op == "num":
        v = node[1]
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, numbers.Rational) and v.denominator != 1:
            return f"{v.numerator}/{v.denominator}"
        return str(v)
    if op == "sym":
        return node[1]
    if op == "add":
        terms = [to_text(a) for a in node[1:]]
        return terms[0] + "".join(f" - {s[1:]}" if s.startswith("-") else f" + {s}"
                                  for s in terms[1:])
    if op == "mul":
        k, factors = _coefficient(node)
        if k == 0 or not factors:
            return to_text(num(k))
        text = "*".join(f"({to_text(f)})" if f[0] == "add" else to_text(f) for f in factors)
        k = Fraction(k)
        lead = "" if abs(k.numerator) == 1 else f"{abs(k.numerator)}*"
        over = "" if k.denominator == 1 else f"/{k.denominator}"
        return f"{'-' if k < 0 else ''}{lead}{text}{over}"
    if op == "pow":
        return "**".join(map(_operand, node[1:]))
    return f"{op}({to_text(node[1])})"


def _coefficient(node: tuple) -> tuple:
    """(k, factors) of a product: k the product of its exact rational
    factors and of the reciprocals of its factors q^-1, q a rational other
    than 0; factors the rest, with the products in it opened."""
    k, factors = 1, []
    for f in node[1:]:
        if f[0] == "mul":
            kf, ff = _coefficient(f)
            k, factors = k * kf, factors + ff
        elif f[0] == "num" and isinstance(f[1], numbers.Rational):
            k *= f[1]
        elif (f[0] == "pow" and f[2] == ("num", -1) and f[1][0] == "num"
              and isinstance(f[1][1], numbers.Rational) and f[1][1] != 0):
            k = Fraction(k) / f[1][1]
        else:
            factors.append(f)
    return k, factors


def _operand(node: tuple) -> str:
    """The text of a base or exponent, in parentheses unless it is a
    variable, a function or a number without a sign or a /."""
    text = to_text(node)
    if node[0] in ("sym", *_FUNCTIONS) or (node[0] == "num" and text.replace(".", "").isalnum()):
        return text
    return f"({text})"


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


# -- derivatives, values and power sums ----------------------------------------


def _number(node: tuple):
    """The value of a number node, exact where it is an int or a Fraction."""
    v = node[1]
    return v if isinstance(v, numbers.Rational) else float(v)


def _is(node: tuple, v) -> bool:
    return node[0] == "num" and _number(node) == v


def add(*terms: tuple) -> tuple:
    """The sum of terms, without its 0 terms: a sum of numbers is one
    number, taken left to right, and a sum of none is 0."""
    terms = [a for a in terms if not _is(a, 0)]
    if all(a[0] == "num" for a in terms):
        return num(reduce(operator.add, map(_number, terms), 0))
    return terms[0] if len(terms) == 1 else ("add", *terms)


def mul(*factors: tuple) -> tuple:
    """The product of factors, 0 where one is 0 and without its 1 factors:
    a product of numbers is one number, taken left to right."""
    if any(_is(a, 0) for a in factors):
        return ZERO
    factors = [a for a in factors if not _is(a, 1)]
    if all(a[0] == "num" for a in factors):
        return num(reduce(operator.mul, map(_number, factors), 1))
    return factors[0] if len(factors) == 1 else ("mul", *factors)


def power(base: tuple, e: tuple) -> tuple:
    """base ** e, base where e is the int 1 (sympy keeps t**1.0, the
    derivative of t**2.0) and 1 where e is 0 or base is 1."""
    if e == ONE and not isinstance(e[1], float):
        return base
    return ONE if _is(e, 0) or _is(base, 1) else ("pow", base, e)


def _typed(seen: tuple, node: tuple) -> bool:
    """Whether a cache's entry for seen, a tree equal to node, holds node's
    value: a tree is equal to one whose numbers differ only in type, as 2
    and 2.0 or 1/2 and 0.5 do, and each gets a derivative of its own types.
    The caches are asked mostly for the very trees they gave out."""
    return seen is node or repr(seen) == repr(node)


def diff(node: tuple, name: str) -> tuple:
    """d node / d name, built by :func:`add`, :func:`mul` and
    :func:`power`, so that a derivative that vanishes by structure is the
    node 0; taken once per tree."""
    seen, d = _diff(node, name)
    return d if _typed(seen, node) else _derivative(node, name)


# one entry per function and variable of the candidates, coefficients and
# their derivatives a run meets: a few hundred
@lru_cache(maxsize=2048)
def _diff(node: tuple, name: str) -> tuple:
    return node, _derivative(node, name)


def _derivative(node: tuple, name: str) -> tuple:
    op = node[0]
    if name not in names(node):
        return ZERO
    if op == "sym":
        return ONE
    args = node[1:]
    if op == "add":
        return add(*(diff(a, name) for a in args))
    if op == "mul":
        return add(*(mul(*args[:i], diff(a, name), *args[i + 1:])
                     for i, a in enumerate(args)))
    if op == "pow":
        base, e = args
        if name not in names(e):
            less = num(_number(e) - 1) if e[0] == "num" else add(e, num(-1))
            return mul(e, power(base, less), diff(base, name))
        return mul(node, add(mul(diff(e, name), ("log", base)),
                             mul(e, diff(base, name), power(base, num(-1)))))
    inner = diff(args[0], name)
    if op == "exp":
        return mul(node, inner)
    if op == "log":
        return mul(inner, power(args[0], num(-1)))
    if op == "sin":
        return mul(("cos", args[0]), inner)
    return mul(num(-1), ("sin", args[0]), inner)


_UFUNCS = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos}


def evaluate(node: tuple, values: dict):
    """node at values, a dict of each variable's value (a float or an
    array): sums and products left to right, powers and functions by
    numpy, so a power of a negative base that is not real is NaN."""
    op = node[0]
    if op == "num":
        return float(node[1])
    if op == "sym":
        return values[node[1]]
    args = [evaluate(a, values) for a in node[1:]]
    if op == "add":
        return reduce(operator.add, args)
    if op == "mul":
        return reduce(operator.mul, args)
    if op == "pow":
        return np.power(*args)
    return _UFUNCS[op](args[0])


def expand(node: tuple) -> tuple:
    """node expanded, like sympy's expand: a product is distributed over
    sums, a power of a sum to a positive integer is multiplied out, and
    equal terms are collected, exactly where their coefficients are ints or
    Fractions.  The result is a sum of terms k b_1^e_1 ... b_n^e_n, each
    base a variable or a node expand does not open, as exp(w) or 1/(1 + w).
    Taken once per tree."""
    return _expansion(node)[1]


def _expansion(node: tuple) -> tuple:
    """(the items of :func:`_expand`, their tree) of node."""
    seen, items, out = _expanded(node)
    if not _typed(seen, node):
        _, items, out = _expanded.__wrapped__(node)
    return items, out


# one entry per table of a prolongation, and per candidate's rho or eta
@lru_cache(maxsize=1024)
def _expanded(node: tuple) -> tuple:
    items = tuple(_expand(node).items())
    return node, items, _sum_of(items)


def _sum_of(items: tuple) -> tuple:
    return add(*(mul(num(k), *(power(base, num(e)) for base, e in factors))
                 for factors, k in items))


def power_sum(node: tuple, name: str) -> tuple:
    """node, expanded (:func:`expand`), as a sum of terms k c w^p for w the
    variable name: a tuple of (k, c, p), k a number, c a tree free of w (1
    where there is none) and p a number, one per term of the expansion with
    k != 0.  The collected terms cancel exactly, so that u eta_u cancels
    what is linear in u in eta - u eta_u.  DomainError where a term is no
    such power, as w in exp(w) or in 1/(1 + w)."""
    out = []
    for factors, k in _expansion(node)[0]:
        p, rest = 0, []
        for base, e in factors:
            if base == ("sym", name):
                p = e
            elif name in names(base):
                raise DomainError(f"a term is not of the form c*{name}**p")
            else:
                rest.append(power(base, num(e)))
        out.append((k, mul(*rest), p))
    return tuple(out)


def _expand(node: tuple) -> dict:
    """node as {factors: coefficient}: factors a sorted tuple of (base,
    exponent), each base a variable or a node expand does not open."""
    op = node[0]
    if op == "num":
        k = _number(node)
        return {(): k} if k != 0 else {}
    if op == "sym":
        return {((node, 1),): 1}
    if op == "add":
        out: dict = {}
        for a in node[1:]:
            for f, k in _expand(a).items():
                out[f] = out.get(f, 0) + k
        return {f: k for f, k in out.items() if k != 0}
    if op == "mul":
        return reduce(_times, map(_expand, node[1:]))
    if op == "pow" and node[2][0] == "num":
        e = _number(node[2])
        base = _expand(node[1])
        n = int(e) if float(e).is_integer() else None
        if len(base) == 1 and n is not None:  # a monomial to an integer power
            ((f, k),) = base.items()
            k = Fraction(k) ** n if isinstance(k, numbers.Rational) else k ** n
            return {tuple((b, x * n) for b, x in f if n): _exact(k)}
        if base == {((node[1], 1),): 1}:  # a variable to any power
            return {((node[1], e),): 1}
        if n is not None and n > 0:
            return reduce(_times, [base] * n)
    return {((node, 1),): 1}


def _times(a: dict, b: dict) -> dict:
    """The product of two expansions, distributed and collected."""
    out: dict = {}
    for fa, ka in a.items():
        for fb, kb in b.items():
            merged = dict(fa)
            for base, e in fb:
                merged[base] = merged.get(base, 0) + e
            f = tuple(sorted(((b_, e) for b_, e in merged.items() if e != 0), key=repr))
            out[f] = out.get(f, 0) + ka * kb
    return {f: _exact(k) for f, k in out.items() if k != 0}
