"""Kernel functions psi: increasing, C^1, psi'(t) != 0 on [a, b].

A :class:`PsiFunction` bundles psi, its derivatives and its inverse on a
closed interval.  A built-in kernel is given by its tree
(:mod:`psifrac.tree`) and evaluates psi and its derivatives of every
order in closed form, in floats; its sympy expression is built only when
asked.  Any other kernel is a sympy expression in t, compiled for its
values and derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericsError
from .jets import compiled
from .tree import T, num

__all__ = ["PsiFunction", "builtin", "validate", "invert_numeric", "ValidationReport"]


@dataclass(frozen=True, init=False)
class PsiFunction:
    """Monotone kernel on [a, b] with derivative and inverse access.

    ``source`` is psi itself, as given: the tree of a built-in kernel, or
    a sympy expression in ``t`` (passed as ``expr``, or as ``source``, as
    :func:`dataclasses.replace` passes it), the source of its derivatives
    of every order.  ``inverse`` is an analytic inverse when
    available, else ``None`` (numeric bisection is used instead).
    """

    name: str
    a: float
    b: float
    source: object
    inverse: Optional[Callable[[float], float]] = None

    def __init__(self, name, a, b, expr=None, inverse=None, *, source=None):
        if not a < b:
            raise DomainError(f"need a < b, got [{a}, {b}]")
        if isinstance(source, tuple) and not _builtin_form(source):
            raise DomainError(f"{source} is not the tree of a built-in kernel")
        for key, value in (("name", name), ("a", a), ("b", b),
                           ("source", expr if source is None else source),
                           ("inverse", inverse)):
            object.__setattr__(self, key, value)

    def __hash__(self) -> int:
        # kept: the caches of the quadrature look a kernel up at every call
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((self.name, self.a, self.b, self.source,
                                           self.inverse))
        return self.__dict__["_hash"]

    @property
    def closed(self) -> bool:
        """A built-in kernel, evaluated in closed form."""
        return isinstance(self.source, tuple)

    @cached_property
    def expr(self):
        """psi as a sympy expression in t."""
        if not self.closed:
            return self.source
        from .tree import to_sympy

        return to_sympy(self.source)

    @cached_property
    def tree(self) -> tuple:
        """psi as a tree (:mod:`psifrac.tree`)."""
        if self.closed:
            return self.source
        from .tree import from_sympy

        return from_sympy(self.source)

    @cached_property
    def shifted(self) -> tuple:
        """The tree of psi(t) - psi(a), the ``psi`` of a spec."""
        va = self(self.a)
        return ("add", self.tree, num(-va)) if va else self.tree

    # -- evaluation ---------------------------------------------------------

    def _fn(self, order: int) -> Callable[[float], float]:
        return compiled(self.expr, None, (order,))

    def __call__(self, t: float) -> float:
        if self.closed:
            return _closed(self.source, float(t), (0,))[0]
        return float(self._fn(0)(t))

    def deriv(self, t: float, order: int = 1) -> float:
        """order-th derivative of psi at t."""
        if self.closed:
            return _closed(self.source, float(t), (order,))[0]
        return float(self._fn(order)(t))

    def derivatives(self, ts: np.ndarray, orders) -> list:
        """The derivatives of the given orders (0 for psi itself) at each of
        the points ts: each an array, or a float where it is the same at
        every point."""
        if self.closed:
            return _closed(self.source, ts, orders)
        fns = [self._fn(k) for k in orders]
        return [np.array([float(fn(t)) for t in ts.tolist()]) for fn in fns]

    def invert(self, v):
        """psi^{-1}(v), analytic if registered, else numeric.  At an array v,
        each point gets the float a call at that point gives: a built-in
        identity or affine kernel's inverse, linear, is one array expression
        with the same float operations; any other is taken point by point,
        as numpy's log and power can round apart from Python's in the last
        bit: these are the quadrature's nodes, verify's (v) among its
        results."""
        if isinstance(v, np.ndarray):
            if self.inverse is None:
                return np.array([invert_numeric(self, x) for x in v.tolist()])
            if self.closed and self.source[0] in ("sym", "add"):
                return self.inverse(v)
            return np.fromiter(map(self.inverse, v.tolist()), float, len(v))
        if self.inverse is not None:
            return float(self.inverse(v))
        return invert_numeric(self, v)


def builtin(
    name: str,
    a: float,
    b: float,
    rho: float = 2.0,
    c: float = 1.0,
    d: float = 0.0,
) -> PsiFunction:
    """Builtin kernel families: identity, power(rho), exponential, affine(c, d)."""
    if name == "identity":
        return PsiFunction("identity", a, b, source=T, inverse=lambda v: v)
    if name == "power":
        if not (math.isfinite(rho) and rho > 0):
            raise DomainError(f"power kernel needs a finite rho > 0, got {rho}")
        if a < 0:
            raise DomainError("power kernel requires a >= 0")
        if rho < 1 and a <= 0 < b:
            raise DomainError("power kernel t^rho with rho < 1 is singular at 0")
        return PsiFunction(
            f"power({rho})",
            a,
            b,
            source=("pow", T, num(float(rho))),
            inverse=lambda v: v ** (1.0 / rho),
        )
    if name == "exponential":
        return PsiFunction("exponential", a, b, source=("exp", T), inverse=math.log)
    if name == "affine":
        if c <= 0:
            raise DomainError(f"affine kernel needs slope c > 0, got {c}")
        return PsiFunction(f"affine({c},{d})", a, b,
                           source=("add", ("mul", num(float(c)), T), num(float(d))),
                           inverse=lambda v: (v - d) / c)
    raise DomainError(f"unknown kernel family '{name}'")


def _builtin_form(tree: tuple) -> bool:
    """tree is t, exp(t), t**rho or c t + d, with float rho, c and d, as
    :func:`builtin` writes them."""
    def number(e):
        return e[0] == "num" and isinstance(e[1], float)

    if tree in (T, ("exp", T)):
        return True
    if tree[0] == "pow":
        return tree[1] == T and number(tree[2])
    if tree[0] == "add" and len(tree) == 3:
        scaled, d = tree[1:]
        return (number(d) and scaled[0] == "mul" and len(scaled) == 3
                and number(scaled[1]) and scaled[2] == T)
    return False


def _closed(tree: tuple, t, orders) -> list:
    """The derivatives of the given orders of a built-in kernel at t, each
    a float or an array (a float where it is the same everywhere).  At a
    float t, the floats the compiled sympy derivative gives (a power's
    coefficient is the product rho (rho - 1) ..., taken left to right, as
    sympy's repeated differentiation takes it); at an array, powers and
    exp are numpy's.
    """
    op = tree[0]
    if op == "sym":  # t
        return [t if k == 0 else float(k == 1) for k in orders]
    if op == "exp":  # every order is exp(t), taken once
        return [math.exp(t) if isinstance(t, float) else np.exp(t)] * len(orders)
    if op == "pow":  # t**rho
        return [_power_derivative(tree[2][1], t, k) for k in orders]
    # c t + d
    c, d = tree[1][1][1], tree[2][1]
    return [c * t + d if k == 0 else c if k == 1 else 0.0 for k in orders]


def _power_derivative(rho: float, t, order: int):
    c = 1.0
    for i in range(order):
        c *= rho - i
    e = rho - order
    if c == 0.0 or e == 0.0:
        return c
    te = t if e == 1.0 else t**e
    return te if c == 1.0 else c * te


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: str = ""
    t: Optional[float] = None


def validate(psi: PsiFunction) -> ValidationReport:
    """Check psi' > 0 and inverse round-trip at 64 Chebyshev points."""
    k = np.arange(64)
    nodes = np.cos((2 * k + 1) * np.pi / 128)
    ts = psi.a + (psi.b - psi.a) * (nodes + 1) / 2
    for t in sorted(float(t) for t in ts):
        d = psi.deriv(t)
        if not d > 0:
            return ValidationReport(False, f"psi'({t:.6g}) = {d:.6g} <= 0", t)
        back = psi.invert(psi(t))
        if abs(back - t) > 1e-10 * max(1.0, abs(t)):
            return ValidationReport(
                False, f"inverse round-trip off by {abs(back - t):.3g} at t={t:.6g}", t
            )
    return ValidationReport(True)


def invert_numeric(psi: PsiFunction, v: float) -> float:
    """Solve psi(t) = v on [a, b] by bisection then secant polish.

    psi is monotone increasing, so the root is unique when it exists.
    """
    lo, hi = psi.a, psi.b
    flo, fhi = psi(lo) - v, psi(hi) - v
    tol = 1e-12 * max(1.0, abs(v))
    if flo > tol or fhi < -tol:
        raise DomainError(f"v={v} outside [psi(a), psi(b)] = [{psi(lo)}, {psi(hi)}]")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = psi(mid) - v
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo < 1e-9 * max(1.0, abs(mid)):
            break
    # secant polish inside the bracket
    t0, t1 = lo, hi
    f0, f1 = flo, fhi
    for _ in range(30):
        if f1 == f0:
            break
        t2 = t1 - f1 * (t1 - t0) / (f1 - f0)
        t2 = min(max(t2, psi.a), psi.b)
        f2 = psi(t2) - v
        t0, f0, t1, f1 = t1, f1, t2, f2
        if abs(f1) <= tol:
            return t1
    t = 0.5 * (t0 + t1) if abs(f0) < abs(f1) else t1
    if abs(psi(t) - v) > 1e3 * tol:
        raise NumericsError(f"inversion of psi at v={v} did not converge")
    return t
