"""Gamma, reciprocal gamma and the generalized binomial coefficient.

Every series coefficient in the library funnels through these three
functions.  ``rgamma`` is finite (exactly zero) at the poles of gamma, so
series terms like 1/Gamma(m - alpha + 1) vanish cleanly when the argument
hits a non-positive integer.
"""

from __future__ import annotations

import math

from .errors import PoleError

__all__ = ["gamma", "rgamma", "gen_binom"]


def gamma(x: float) -> float:
    """Gamma function for real x; raises at non-positive integers, and is
    +-inf where |Gamma(x)| exceeds the largest double."""
    if x <= 0 and float(x).is_integer():
        raise PoleError(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:  # x > 171.62, or |x| below 1/DBL_MAX
        return math.copysign(math.inf, x)


def rgamma(x: float) -> float:
    """1/Gamma(x); exactly 0 at non-positive integers.

    Past the range of Gamma it stays defined: 0.0 or a finite value for
    x > 171, x itself for |x| below 1/DBL_MAX, and +-inf for x below
    about -171, where |1/Gamma(x)| exceeds the largest double.
    """
    if x <= 0 and float(x).is_integer():
        return 0.0
    if x > 171.0:
        # Gamma overflows a double from x = 171.62 on; its reciprocal
        # underflows smoothly
        return math.exp(-math.lgamma(x))
    try:
        g = math.gamma(x)
    except OverflowError:  # 1/Gamma(x) = x (1 + O(x)) at tiny |x|
        return float(x)
    return 1.0 / g if g else math.copysign(math.inf, g)


def gen_binom(alpha: float, m: int) -> float:
    """Generalized binomial coefficient binom(alpha, m) for real alpha.

    Computed by the falling-factorial product
    prod_{j=0}^{m-1} (alpha - j) / m!, not by gamma ratios, so that
    alternating-sign coefficients with negative factors stay exact.
    """
    if m < 0:
        raise ValueError(f"lower index must be non-negative, got {m}")
    num = 1.0
    for j in range(m):
        num *= alpha - j
    return num / math.factorial(m)
