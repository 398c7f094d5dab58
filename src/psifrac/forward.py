"""Forward-mode psi-jets of a tree at many points at once, the quadrature
backend's jets for a function given as a tree (a parsed spec).

At each point s, f is taken as a truncated Taylor series in
w = psi(t) - psi(s) by forward mode (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13): since (1/psi') d/dt is d/dw,
the psi-jets are f^{[j]}_psi(s) = j! c_j.  The kernel itself, wherever the
tree holds it (as psi(t) - psi(a) is put in for ``psi``), is psi(s) + w;
t is s + h(w), h the inverse series of psi(s + h) - psi(s), reverted from
the kernel's own derivatives at s (no closed-form inverse, unlike the
series backend's).

:func:`jets` writes this once per shape, depth and kernel, the spec's
numbers passed at run time, as straight-line numpy code, vectorised over
the points, and runs it.  The shape of a tree is the tree with its numbers
taken out, save those the code depends on (exponents, 0 and 1, and the
kernel's own subtree), so specs that differ only in their coefficients,
or in psi(a), share one function, as a recorded tape is replayed at new
inputs (Griewank & Walther).  A coefficient is a float where it is the
same at every point and known when the code is written (on psi = t, those
of t are s, 1, 0, ...; psi's own derivatives are taken at the points, and
those that are floats are constants), folded then, and otherwise a name
read at run time: a float made of the spec's numbers, or an array over the
points.  A term with a coefficient that is 0 by structure is left out.
Written once, the float work is not repeated at every call: walking the
tree at each call instead, with the same arithmetic, cut the kernels_warm
benchmark's operations per second by 10%.  The module shares with the
series backend (:mod:`psifrac.taylor`) only the tree.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .special import gen_binom
from .tree import T

__all__ = ["jets"]


def jets(tree: tuple, psi, s: np.ndarray, m: int) -> list:
    """f^{[j]}_psi at each point of s, for j = 0..max(m, 2) and f the
    tree: a list of arrays, one per order.  A pass takes the orders through
    2 at least, which a derivative of order below 2 reads, so that an
    integral and a derivative at a point take one pass; no jet depends on
    the depth asked.  The pass, the kernel's derivatives included, runs with
    numpy's floating-point errors ignored: where an order overflows at a
    point, its array holds inf there and the other orders are untouched.
    The spec's numbers are numpy float64 scalars (:func:`_shape`), so a
    power of them that overflows is inf too; exp of a number is math.exp's,
    which raises OverflowError (exp(800)) as folding it would."""
    size = max(m, 2) + 1
    with np.errstate(all="ignore"):
        d = psi.derivatives(s, range(size))
        known = tuple(x if isinstance(x, float) else None for x in d)
        shape, numbers = _shape(tree, psi.tree)
        out = _code(shape, size, psi.tree, known)(s, d, numbers)
    return [j if isinstance(j, np.ndarray) else np.full(len(s), j) for j in out]


# looked up at every call, where walking the tree would take longer
@lru_cache(maxsize=256)
def _shape(tree: tuple, psi_tree: tuple) -> tuple:
    """The shape of tree and its numbers: the i-th number, in the order of
    a walk, becomes ("in", i), and a subtree that recurs (psi, put in as
    psi(t) - psi(a)) recurs in the shape, so the writer takes it once.
    Exponents, the numbers 0 and 1 (the writer drops terms by them) and the
    kernel's own subtree (found by equality) stay as they are.  The numbers
    are numpy float64 scalars, whose arithmetic gives the bits of Python's
    float arithmetic, folding's, and follows numpy's error state."""
    slots: list = []
    seen: dict = {}

    def walk(e: tuple) -> tuple:
        op = e[0]
        if op == "sym" or e == psi_tree:
            return e
        if op == "num":
            v = float(e[1])
            if v in (0.0, 1.0):
                return ("num", v)
            slots.append(np.float64(v))
            return ("in", len(slots) - 1)
        if e not in seen:
            seen[e] = (op, walk(e[1]), e[2]) if op == "pow" else (op, *map(walk, e[1:]))
        return seen[e]

    return walk(tree), tuple(slots)


# once per shape, the spec's numbers passed at run time: 2,400 operations
# of the series_cold benchmark (three kernels, orders 0 to 2) write 121 to
# 143 functions by the seed, where one per spec wrote 17,997; 256 holds them
@lru_cache(maxsize=256)
def _code(shape: tuple, size: int, psi_tree: tuple, known: tuple):
    """The jets 0..size-1 of a tree of this shape as a function of the
    points s, the list d of psi's derivatives there, those in known (the
    floats) folded in, and the tuple p of the tree's numbers."""
    c = _Writer(size, psi_tree, known)
    out = ", ".join(map(c.ref, c.jets(c.node(shape))))
    body = "".join(f"    {line}\n" for line in c.lines)
    ns = {"exp": _exp, **c.consts}
    exec(f"def _jets(s, d, p):\n{body}    return [{out}]\n", ns)
    return ns["_jets"]


def _exp(x):
    """exp of a float by math.exp, which raises where it overflows, and of
    an array by numpy."""
    return math.exp(x) if isinstance(x, float) else np.exp(x)


def _zero(x) -> bool:
    return isinstance(x, float) and x == 0.0


def _one(x) -> bool:
    return isinstance(x, float) and x == 1.0


class _Writer:
    """Writes the code: a coefficient is a float, folded as it is written,
    or the name of a value read at run time (a float made of the tree's
    numbers, or an array), and a series a list of size coefficients.  A
    product or quotient with a 0.0 factor is 0.0, a float or not, so the
    code written for a shape gives the bits of the code written for one
    tree of it, its numbers folded."""

    def __init__(self, size: int, psi_tree: tuple, known: tuple):
        self.size, self.psi_tree = size, psi_tree
        self.lines: list = []
        self.consts: dict = {}
        self.memo: dict = {}
        self.d = [k if k is not None else f"d[{i}]" for i, k in enumerate(known)]

    # -- coefficients --------------------------------------------------------

    def ref(self, x) -> str:
        if isinstance(x, str):
            return x
        name = f"c{len(self.consts)}"
        self.consts[name] = x
        return name

    def let(self, expr: str) -> str:
        """A name for the value of expr, written as the next line."""
        name = f"v{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def add(self, a, b):
        if isinstance(a, float) and isinstance(b, float):
            return a + b
        if _zero(a):
            return b
        if _zero(b):
            return a
        return self.let(f"{self.ref(a)} + {self.ref(b)}")

    def mul(self, a, b):
        if _zero(a) or _zero(b):
            return 0.0
        if isinstance(a, float) and isinstance(b, float):
            return a * b
        if _one(a):
            return b
        if _one(b):
            return a
        return self.let(f"{self.ref(a)} * {self.ref(b)}")

    def div(self, a, b):
        if _zero(a):
            return 0.0
        if isinstance(a, float) and isinstance(b, float):
            return a / b
        if _one(b):
            return a
        return self.let(f"{self.ref(a)} / {self.ref(b)}")

    def pow(self, x, p: float):
        """x ** p, point by point."""
        if p == 0:
            return 1.0
        if p == 1:
            return x
        if isinstance(x, float):
            return x**p
        return self.let(f"{x} ** {self.ref(float(p))}")

    # -- series --------------------------------------------------------------

    def constant(self, v: float) -> list:
        return [v] + [0.0] * (self.size - 1)

    def total(self, terms) -> object:
        """The sum of terms, in their order."""
        acc = 0.0
        for x in terms:
            acc = self.add(acc, x)
        return acc

    def product(self, a: list, b: list, size: int) -> list:
        """The first size coefficients of the product of two series."""
        return [self.total(self.mul(a[j], b[k - j]) for j in range(k + 1))
                for k in range(size)]

    def node(self, e: tuple) -> list:
        got = self.memo.get(e)
        if got is None:
            got = self.memo[e] = self._node(e)
        return got

    def _node(self, e: tuple) -> list:
        op, size = e[0], self.size
        if op == "num":
            return self.constant(float(e[1]))
        if op == "in":
            return self.constant(f"p[{e[1]}]")
        if e == T:
            return self.t()
        if e == self.psi_tree:
            return [self.d[0], 1.0] + [0.0] * (size - 2)
        if op not in ("add", "mul", "pow", "exp"):
            raise DomainError(f"psi-jets of a spec: unsupported {op} node")
        args = [self.node(a) for a in e[1:]]
        if op == "add":
            out = args[0]
            for b in args[1:]:
                out = [self.add(x, y) for x, y in zip(out, b)]
            return out
        if op == "mul":
            out = args[0]
            for b in args[1:]:
                out = self.product(out, b, size)
            return out
        if op == "exp":
            return self.exp(args[0])
        b, ex = args
        if not all(isinstance(x, float) for x in ex):
            raise DomainError("psi-jets: an exponent depends on t")
        return self.power(b, ex[0])

    def power(self, b: list, p: float) -> list:
        size = self.size
        whole = p >= 0 and p.is_integer()
        if all(map(_zero, b[1:])):
            return self.constant(self.pow(b[0], p))
        if all(map(_zero, b[2:])):
            # b0 + b1 w: binom(p, k) b1^k b0^(p-k), exactly 0 past a whole p
            out = [0.0] * size
            for k in range(min(size, int(p) + 1) if whole else size):
                c = self.mul(gen_binom(p, k), self.pow(b[1], k))
                out[k] = self.mul(c, self.pow(b[0], p - k))
            return out
        if whole:
            out, n = None, int(p)
            while n:
                if n & 1:
                    out = b if out is None else self.product(out, b, size)
                n >>= 1
                if n:
                    b = self.product(b, b, size)
            return out if out is not None else self.constant(1.0)
        # b y' = p b' y: k b0 y_k = sum_{j=1..k} ((p + 1) j - k) b_j y_{k-j}
        y = [self.pow(b[0], p)]
        for k in range(1, size):
            acc = self.total(self.mul(self.mul((p + 1.0) * j - k, b[j]), y[k - j])
                             for j in range(1, k + 1))
            y.append(self.div(acc, self.mul(float(k), b[0])))
        return y

    def exp(self, b: list) -> list:
        y = [math.exp(b[0]) if isinstance(b[0], float) else self.let(f"exp({b[0]})")]
        # y' = b' y: k y_k = sum_{j=1..k} j b_j y_{k-j}
        for k in range(1, self.size):
            acc = self.total(self.mul(self.mul(float(j), b[j]), y[k - j])
                             for j in range(1, k + 1))
            y.append(self.div(acc, float(k)))
        return y

    def t(self) -> list:
        """t = s + h(w), with psi(s + h) - psi(s) = sum_k a_k h^k = w and
        a_k the k-th derivative over k!: b_1 = 1/a_1, and for k >= 2,
        a_1 b_k = -sum_{j=2..k} a_j [w^k] h^j, whose powers of h need b_1 ..
        b_{k-1} only."""
        size = self.size
        a = [x if k < 2 else self.div(x, float(math.factorial(k)))
             for k, x in enumerate(self.d)]
        h = [0.0] * size
        powers = [None, h]  # powers[j][k] = [w^k] h^j, filled as b_k is known
        for k in range(1, size):
            for j in range(2, k + 1):
                if j == len(powers):
                    powers.append([0.0] * size)
                powers[j][k] = self.total(
                    self.mul(h[i], powers[j - 1][k - i]) for i in range(1, k - j + 2))
            rest = self.total(self.mul(a[j], powers[j][k]) for j in range(2, k + 1))
            h[k] = self.div(self.add(float(k == 1), self.mul(-1.0, rest)), a[1])
        return ["s"] + h[1:]

    def jets(self, f: list) -> list:
        """j! c_j of the series f in w."""
        return [self.mul(float(math.factorial(k)), c) for k, c in enumerate(f)]
