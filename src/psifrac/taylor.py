"""Truncated Taylor series in w = psi(t) - psi(t0), without symbolic
differentiation.

The psi-jets of f at t0 are its plain derivatives in w,
f^{[m]}_psi(t0) = m! c_m for f = sum_m c_m w^m near t0.  :func:`program`
compiles a tree in t (:mod:`psifrac.tree`: a parsed spec, or a sympy
expression through :func:`~psifrac.tree.from_sympy`) once, for one kernel
psi, given by its tree too, into a flat list of steps over truncated
Taylor series (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
SIAM 2008, ch. 13).  It handles sums, products, powers with any real
exponent, exp, log, sin and cos.  Running the program at t0 gives c_0 ..
c_{L-1} in numpy, and no sympy runs.

t enters through psi^{-1}(psi(t0) + w), in closed form for the built-in
kernels, as :func:`psifrac.psi.family` names them from psi's tree: t0 + w/c
for the identity and affine kernels, t0 (1 + w/psi0)^{1/rho} for t^rho and
t0 + log(1 + w/psi0) for exp(t), with psi0 = psi(t0).  Powers of psi are
closed forms too: t**e on the power kernel is t0^e (1 + w/psi0)^{e/rho},
and exp(k t) on the exponential kernel is e^{k t0} (1 + w/psi0)^k.  A
power or exp of a node affine in w takes a closed form, and any other
node the standard O(L^2) recurrence.  For any other kernel tree, however
close to a built-in one (``2*t + 1`` in sympy's order, ``exp(2*t)``), t
itself comes from applying (1/psi') d/ds to t m times, with 1/psi' (from
:func:`~psifrac.tree.diff`) a truncated series in s = t - t0.

Each node also carries its degree as a polynomial in w: 0 for constants,
q for psi^q with q a non-negative integer (t for the identity and affine
kernels, t**(q rho) for t^rho, exp(q t) for exp(t), and psi itself on
any other kernel), the maximum over a sum, the sum over a product and the
multiple under a non-negative integer power.  Anything else has none (None).
The psi-jets of f vanish past its degree, so a jet table ends there
exactly, whatever rounding the coefficients before it carry.

Other symbols may be named as run-time inputs (the prolongation's x and a
fixed u): each is a leaf of degree 0 whose value comes with the point, so
one program serves every (t0, x, u).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, NumericsError
from .psi import family
from .tree import T, diff, names, num, power

__all__ = ["Program", "program"]


class Program(NamedTuple):
    """A compiled expression: :meth:`jets` runs it at a point."""

    steps: tuple
    #: degree as a polynomial in w = psi(t) - psi(a), None if it is none
    degree: Optional[int]
    #: the value, when the expression does not depend on t
    constant: Optional[float]
    #: t0 -> 1/psi(t0), for the power and exponential kernels
    inv_psi: Optional[Callable[[float], float]]

    def series(self, t0: float, size: int, *values: float) -> np.ndarray:
        """c_0 .. c_{size-1} of the expansion in w at t0, with the run-time
        inputs of :func:`program` at values."""
        if self.constant is not None:
            out = np.zeros(size)
            out[0] = self.constant
            return out
        point = (t0, self.inv_psi(t0) if self.inv_psi else 0.0, *values)
        regs = []
        for step in self.steps:
            regs.append(step(regs, point, size))
        return regs[-1]

    def jets(self, t0: float, size: int, *values: float) -> np.ndarray:
        """The psi-jets 0 .. size-1 at t0: m! c_m."""
        return self.series(t0, size, *values) * _index(size)[1]


@lru_cache(maxsize=1024)
def program(expr: tuple, psi_tree: tuple, params: tuple = ()) -> Program:
    """The tree expr compiled for truncated Taylor arithmetic in w for the
    kernel psi_tree, with its degree in w.  The variables named in params
    are run-time inputs, given to :meth:`Program.jets` in the same order."""
    c = _Compiler(psi_tree, params)
    node = c.node(expr)
    if node.reg is None:
        return Program((), 0, node.value, None)
    return Program(tuple(c.steps), node.degree, None, c.inv_psi)


class _Node(NamedTuple):
    reg: Optional[int]  # register of a series, None for a constant
    value: float  # the constant
    degree: Optional[int]

    @property
    def affine(self) -> bool:
        """The series is exactly c_0 + c_1 w."""
        return self.degree is not None and self.degree <= 1


class _Compiler:
    def __init__(self, psi_tree: tuple, params: tuple = ()):
        self.steps: list = []
        self.memo: dict = {}
        self.params = params
        # ("affine", c, d), ("power", rho), ("exp",), or (None,) for any other kernel
        self.form = family(psi_tree) or (None,)
        self.kind = self.form[0]
        self.inv_psi = self.psi_tree = None
        if self.kind == "power":
            rho = self.form[1]
            self.inv_psi = lambda t0: _positive(t0) ** -rho
        elif self.kind == "exp":
            self.inv_psi = lambda t0: math.exp(-t0)
        elif self.kind is None:
            # 1/psi' in s = t - t0 (psi = t makes w = s), for the jets of t
            self.inv_dpsi = program(power(diff(psi_tree, "t"), num(-1)), T)
            self.psi_tree, self.psi_at = psi_tree, program(psi_tree, T)

    def _emit(self, step, degree) -> _Node:
        self.steps.append(step)
        return _Node(len(self.steps) - 1, 0.0, degree)

    def node(self, e: tuple) -> _Node:
        got = self.memo.get(e)
        if got is None:
            got = self.memo[e] = self._node(e)
        return got

    def _node(self, e: tuple) -> _Node:
        op = e[0]
        if op == "num":
            v = float(e[1])
            if not math.isfinite(v):
                raise NumericsError(f"constant {e[1]} is not finite")
            return _Node(None, v, 0)
        if e == T:
            return self._t()
        if e == self.psi_tree:  # psi(t0) + w, on a kernel given by an expression
            at = self.psi_at
            return self._emit(lambda r, pt, size: _affine(at.series(pt[0], 1)[0], 1.0, size), 1)
        if op == "sym":
            if e[1] not in self.params:
                raise DomainError(f"psi-jets of a function of t, but it depends on {e[1]}")
            k = 2 + self.params.index(e[1])  # its place in the point
            return self._emit(lambda r, pt, size: _affine(pt[k], 0.0, size), 0)
        if op == "add":
            return self._add(e[1:])
        if op == "mul":
            return self._mul(e[1:])
        if op == "pow":
            return self._pow(*e[1:])
        if op not in _SERIES:
            raise DomainError(f"psi-jets: unsupported {op} node")
        return self._elementary(e)

    # -- t and the powers of psi ---------------------------------------------

    def _t(self):
        if self.kind == "affine":
            slope = 1.0 / self.form[1]
            return self._emit(lambda r, pt, size: _affine(pt[0], slope, size), 1)
        if self.kind == "power":
            return self._psi_power(1.0 / self.form[1], lambda t0: t0)
        if self.kind == "exp":
            return self._emit(lambda r, pt, size: _log_shift(pt, size), None)
        inv_dpsi = self.inv_dpsi
        return self._emit(lambda r, pt, size: _t_by_jets(pt[0], inv_dpsi, size), None)

    def _psi_power(self, q: float, value: Callable[[float], float]) -> _Node:
        """psi^q at t0 + w: value(t0) (1 + w/psi0)^q."""
        degree = int(q) if q >= 0 and q.is_integer() else None
        return self._emit(
            lambda r, pt, size: value(pt[0]) * _binomials(q, size) * pt[1] ** _index(size)[0],
            degree,
        )

    # -- arithmetic ------------------------------------------------------------

    def _add(self, args):
        c, regs, degree = 0.0, [], 0
        for a in args:
            n = self.node(a)
            if n.reg is None:
                c += n.value
                continue
            regs.append(n.reg)
            degree = None if degree is None or n.degree is None else max(degree, n.degree)
        if not regs:
            return _Node(None, c, 0)
        regs = tuple(regs)

        def step(r, pt, size):
            out = r[regs[0]]
            for i in regs[1:]:
                out = out + r[i]
            if c:
                out = out.copy()
                out[0] += c
            return out

        return self._emit(step, degree)

    def _mul(self, args):
        c, regs, degree = 1.0, [], 0
        for a in args:
            n = self.node(a)
            if n.reg is None:
                c *= n.value
                continue
            regs.append(n.reg)
            degree = None if degree is None or n.degree is None else degree + n.degree
        if not regs:
            return _Node(None, c, 0)
        regs = tuple(regs)

        def step(r, pt, size):
            out = r[regs[0]]
            for i in regs[1:]:
                out = np.convolve(out, r[i])[:size]
            return out if c == 1.0 else c * out

        return self._emit(step, degree)

    def _pow(self, base, ex):
        inputs = names(ex)
        if "t" in inputs:
            raise DomainError("psi-jets: an exponent depends on t")
        if inputs:
            return self._pow_at_run_time(base, ex)
        p = self.node(ex).value
        if base == T and self.kind == "power":
            return self._psi_power(p / self.form[1], lambda t0: _positive(t0) ** p)
        b = self.node(base)
        if b.reg is None:
            return _Node(None, b.value ** p, 0)
        whole = p >= 0 and p.is_integer()
        degree = b.degree * int(p) if whole and b.degree is not None else None
        i = b.reg
        if b.affine:
            return self._emit(lambda r, pt, size: _pow_affine(r[i], p, size), degree)
        if whole:
            n = int(p)
            return self._emit(lambda r, pt, size: _pow_int(r[i], n, size), degree)
        return self._emit(lambda r, pt, size: _pow_series(r[i], p, size), degree)

    def _pow_at_run_time(self, base, ex):
        """base**ex with ex a run-time input: its value is read at the point."""
        b, k = self.node(base), self.node(ex).reg
        i, b0 = b.reg, b.value

        def step(r, pt, size):
            p = float(r[k][0])
            s = r[i] if i is not None else _affine(b0, 0.0, size)
            if p >= 0 and p.is_integer():
                return _pow_int(s, int(p), size)
            return _pow_series(s, p, size)

        return self._emit(step, 0 if b.degree == 0 else None)

    def _elementary(self, e):
        op, arg = e
        k = _exp_rate(e)
        if k is not None and self.kind == "exp":
            return self._psi_power(k, lambda t0: math.exp(k * t0))
        a = self.node(arg)
        if a.reg is None:
            return _Node(None, getattr(math, op)(a.value), 0)
        # exp of c_0 + c_1 w has a closed form; the rest take the recurrences
        fn = _exp_affine if a.affine and op == "exp" else _SERIES[op]
        i = a.reg
        return self._emit(lambda r, pt, size: fn(r[i], size), None)


def _exp_rate(e: tuple) -> Optional[float]:
    """k when e is exp(k t), a node of f, else None."""
    if e[0] == "exp":
        arg = e[1]
        if arg == T:
            return 1.0
        if arg[0] == "mul" and len(arg) == 3 and arg[1][0] == "num" and arg[2] == T:
            return float(arg[1][1])
    return None


def _positive(t0: float) -> float:
    if not t0 > 0.0:
        raise NumericsError(f"the power kernel's psi-jets need t > 0, got t = {t0}")
    return t0


@lru_cache(maxsize=64)
def _index(size: int):
    """k and k! as floats, and the lag matrix i - j + 1 of :func:`_t_by_jets`
    (a negative lag reads index size, a zero appended after the series)."""
    i = np.arange(size)
    lag = i[:, None] - i[None, :] + 1
    lag[lag < 0] = size
    return i.astype(float), np.array([float(math.factorial(k)) for k in range(size)]), lag


@lru_cache(maxsize=256)
def _binomials(q: float, size: int) -> np.ndarray:
    """binom(q, k) for k < size; exactly 0 past q when q is a whole number."""
    out = [1.0]
    for k in range(1, size):
        out.append(out[-1] * ((q - k + 1) / k))
    return np.array(out)


def _affine(c0: float, c1: float, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[0] = c0
    if size > 1:
        out[1] = c1
    return out


def _log_shift(pt, size: int) -> np.ndarray:
    """t0 + log(1 + w/psi0)."""
    t0, r = pt[0], pt[1]
    ks = _index(size)[0]
    out = np.empty(size)
    out[0] = t0
    out[1:] = -((-r) ** ks[1:]) / ks[1:]
    return out


def _t_by_jets(t0: float, inv_dpsi: Program, size: int) -> np.ndarray:
    """t0 + sum_m t^{[m]} w^m / m!, the psi-jets of t taken in s = t - t0:
    t^{[m]} is the constant term of (P d/ds)^m (t0 + s), P = 1/psi'."""
    ks, factorials, lag = _index(size)
    # (P dG/ds)_i = sum_{j=1..i+1} P_{i-j+1} j G_j, as a matrix on G
    A = np.append(inv_dpsi.series(t0, size), 0.0)[lag] * ks
    jets = np.empty(size)
    G = _affine(t0, 1.0, size)
    jets[0] = t0
    # (P d/ds)^m G is exact in its first size - m coefficients
    for m in range(1, size):
        G = A[: size - m, : size - m + 1] @ G
        jets[m] = G[0]
    return jets / factorials


# -- closed forms for an argument affine in w, b0 + b1 w ----------------------


def _linear(b):
    return float(b[0]), (float(b[1]) if len(b) > 1 else 0.0)


def _pow_affine(b, p, size):
    b0, b1 = _linear(b)
    if p >= 0 and p.is_integer():
        n = int(p)
        out = np.zeros(size)
        for k in range(min(n, size - 1) + 1):
            out[k] = math.comb(n, k) * b0 ** (n - k) * b1**k
        return out
    _check_base(b0, p, size)
    # binom(p, k) b0^p (b1 / b0)^k; one coefficient is b0^p alone, 0 at b0 = 0 < p
    ratio = b1 / b0 if size > 1 else 0.0
    return b0**p * _binomials(p, size) * ratio ** _index(size)[0]


def _exp_affine(b, size):
    b0, b1 = _linear(b)
    ks, factorials, _ = _index(size)
    return math.exp(b0) * b1**ks / factorials


# -- recurrences for any argument ---------------------------------------------


def _check_base(b0, p, size):  # a zero base is a pole, or for size > 1 not a series
    if (b0 == 0.0 and (p < 0.0 or size > 1)) or (b0 < 0.0 and not float(p).is_integer()):
        raise NumericsError(f"power {p} of a series with value {b0} at the point")


def _pow_int(b, n, size):
    out = None
    while n:
        if n & 1:
            out = b if out is None else np.convolve(out, b)[:size]
        n >>= 1
        if n:
            b = np.convolve(b, b)[:size]
    return out if out is not None else _affine(1.0, 0.0, size)


def _pow_series(b, p, size):
    # b y' = p b' y: k b0 y_k = sum_{j=1..k} ((p + 1) j - k) b_j y_{k-j}
    b0 = float(b[0])
    _check_base(b0, p, size)
    y = np.empty(size)
    y[0] = b0**p
    js = _index(size)[0]
    for k in range(1, size):
        y[k] = (((p + 1.0) * js[1:k + 1] - k) * b[1:k + 1]) @ y[k - 1::-1] / (k * b0)
    return y


def _exp_series(b, size):
    # y' = b' y: k y_k = sum_{j=1..k} j b_j y_{k-j}
    y = np.empty(size)
    y[0] = math.exp(b[0])
    jb = _index(size)[0] * b
    for k in range(1, size):
        y[k] = jb[1:k + 1] @ y[k - 1::-1] / k
    return y


def _log_series(b, size):
    # b y' = b': k b0 y_k = k b_k - sum_{j=1..k-1} j y_j b_{k-j}
    b0 = float(b[0])
    if not b0 > 0.0:
        raise NumericsError(f"log of a series with value {b0} at the point")
    y = np.empty(size)
    y[0] = math.log(b0)
    js = _index(size)[0]
    for k in range(1, size):
        y[k] = (b[k] - (js[1:k] * y[1:k]) @ b[k - 1:0:-1] / k) / b0
    return y


def _sincos_series(b, size):
    # s' = b' c and c' = -b' s
    s, c = np.empty(size), np.empty(size)
    s[0], c[0] = math.sin(b[0]), math.cos(b[0])
    jb = _index(size)[0] * b
    for k in range(1, size):
        s[k] = jb[1:k + 1] @ c[k - 1::-1] / k
        c[k] = -(jb[1:k + 1] @ s[k - 1::-1]) / k
    return s, c


_SERIES = {
    "exp": _exp_series,
    "log": _log_series,
    "sin": lambda b, size: _sincos_series(b, size)[0],
    "cos": lambda b, size: _sincos_series(b, size)[1],
}
