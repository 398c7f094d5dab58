"""Kernel functions psi: increasing, C^1, psi'(t) != 0 on [a, b].

A :class:`PsiFunction` bundles psi, its derivatives and its inverse on a
closed interval.  psi is a sympy expression in t, which gives analytic
derivatives of every order and the psi-jets of every depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import sympy as sp

from .errors import DomainError, NumericsError
from .jets import T, compiled

__all__ = ["PsiFunction", "builtin", "validate", "invert_numeric", "ValidationReport"]


@dataclass(frozen=True)
class PsiFunction:
    """Monotone kernel on [a, b] with derivative and inverse access.

    ``expr``, a sympy expression in ``t``, is psi itself and the source of
    its derivatives of every order.  ``inverse`` is an analytic inverse
    when available, else ``None`` (numeric bisection is used instead).
    """

    name: str
    a: float
    b: float
    expr: sp.Expr
    inverse: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError(f"need a < b, got [{self.a}, {self.b}]")

    # -- evaluation ---------------------------------------------------------

    def _fn(self, order: int) -> Callable[[float], float]:
        return compiled(self.expr, None, (order,))

    def __call__(self, t: float) -> float:
        return float(self._fn(0)(t))

    def deriv(self, t: float, order: int = 1) -> float:
        """order-th derivative of psi at t."""
        return float(self._fn(order)(t))

    def invert(self, v: float) -> float:
        """psi^{-1}(v), analytic if registered, else numeric."""
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
        return PsiFunction("identity", a, b, expr=T, inverse=lambda v: v)
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
            expr=T**rho,
            inverse=lambda v: v ** (1.0 / rho),
        )
    if name == "exponential":
        return PsiFunction("exponential", a, b, expr=sp.exp(T), inverse=math.log)
    if name == "affine":
        if c <= 0:
            raise DomainError(f"affine kernel needs slope c > 0, got {c}")
        return PsiFunction(
            f"affine({c},{d})", a, b, expr=c * T + d, inverse=lambda v: (v - d) / c
        )
    raise DomainError(f"unknown kernel family '{name}'")


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
