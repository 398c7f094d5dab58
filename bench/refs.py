"""Independent references the benchmark checks results against.

Everything here is closed-form and uses only ``math``: kernel values, the
exact psi-power rule, and the residuals the determining systems must
report for the documented table rows.  None of it calls psifrac.
"""

from __future__ import annotations

import math

# criterion 2's kernel domains: the series backend (30 terms) converges on
# them for the function families the benchmark draws
SERIES_DOMAINS = {"identity": (0.0, 2.0), "power": (1.0, 1.5),
                  "exponential": (0.0, 0.9)}
# kernels of the determining-system tests (tests/test_symmetry.py)
SYMMETRY_DOMAINS = {"identity": (0.0, 2.0), "power": (0.5, 2.0)}
POWER_RHO = 2.0

# default residual grid of GridSpec.default: x, t - a in linspace(0.2, 1, 5),
# u in linspace(0.5, 2, 5); the probe seed fixes the omega probe u(a)
GRID_X_MAX = 1.0
GRID_T_MIN_OFFSET = 0.2
GRID_U = tuple(0.5 + 1.5 * i / 4 for i in range(5))

# acceptance tolerances of the repository's criteria, unchanged
TOL_POWER_RULE = 1e-6      # criterion 1, relative
TOL_INTEGRAL = 1e-8        # criterion 2, |q - s| / (1 + |q|)
TOL_DERIVATIVE = 1e-5      # criterion 2, |q - s| / (1 + |q|)
TOL_LEIBNIZ = 1e-6         # criterion 3, at N = 10
TOL_ORACLE = 1e-8          # criterion 4, absolute
TOL_RESIDUAL = 1e-8        # determining-system default tolerance


def psi_value(kernel: str, t: float) -> float:
    if kernel == "identity":
        return t
    if kernel == "power":
        return t ** POWER_RHO
    if kernel == "exponential":
        return math.exp(t)
    raise ValueError(kernel)


def shifted(kernel: str, a: float, t: float) -> float:
    """w = psi(t) - psi(a)."""
    return psi_value(kernel, t) - psi_value(kernel, a)


def rgamma(x: float) -> float:
    if x <= 0 and float(x).is_integer():
        return 0.0
    return 1.0 / math.gamma(x)


def power_rule(terms, nu: float, w: float) -> float:
    """D^{nu;psi} of sum c w^k (an integral of order -nu for nu < 0)."""
    return sum(c * math.gamma(k + 1.0) * rgamma(k + 1.0 - nu) * w ** (k - nu)
               for c, k in terms)


def poly_product(p, q):
    """Product of two power sums given as [(c, k)]."""
    out = {}
    for c1, k1 in p:
        for c2, k2 in q:
            out[k1 + k2] = out.get(k1 + k2, 0.0) + c1 * c2
    return sorted((c, k) for k, c in out.items())


def rel_err(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def mixed_err(got: float, ref: float) -> float:
    return abs(got - ref) / (1.0 + abs(ref))


def constant_shift_residual(shift: float, kernel: str, a: float, alpha: float) -> float:
    """Equation (i) of the Burgers system for a constant rho = shift:
    |D^{alpha;psi} shift| = |shift| w^{-alpha} / Gamma(1 - alpha), largest at
    the grid's smallest t.  Also the residual of rho = -c1 x (times x_max)."""
    w = shifted(kernel, a, a + GRID_T_MIN_OFFSET)
    return abs(shift) * w ** (-alpha) * abs(rgamma(1.0 - alpha))


def rational_row_residual() -> float:
    """Equation (iv) of the published g = u/(1+u) row (theta = +1, rho = 0):
    g + u g' = u/(1+u) + u/(1+u)^2, largest at the grid's largest u."""
    return max(u / (1 + u) + u / (1 + u) ** 2 for u in GRID_U)


def omega_residual(c0: float, u_at_a: float, kernel: str, a: float,
                   alpha: float) -> float:
    """Equation (v): |c0 [D^{alpha;psi}, D^{1;psi}] u| for u polynomial in w.
    The commutator is -u(a) w^{-alpha-1} / Gamma(-alpha), largest at the
    smallest t of the grid."""
    w = shifted(kernel, a, a + GRID_T_MIN_OFFSET)
    return abs(c0 * u_at_a * w ** (-alpha - 1.0) * rgamma(-alpha))


def omega_identity(tau_at_a: float, u_at_a: float, alpha: float, t: float) -> float:
    """omega on the identity kernel with a = 0:
    tau(a) [D^alpha, d/dt] u = -tau(a) u(a) t^{-alpha-1} / Gamma(-alpha)."""
    return -tau_at_a * u_at_a * t ** (-alpha - 1.0) * rgamma(-alpha)
