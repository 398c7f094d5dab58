"""Fractional operators with respect to a kernel function psi, their
Lie-symmetry prolongation and determining-equation systems.

Quick start::

    from psifrac import builtin, JetFunction, frac_derivative, T

    psi = builtin("power", 0.5, 2.0)       # psi(t) = t^2 on [0.5, 2]
    f = JetFunction.of_t(T**2)
    frac_derivative(f, psi, 0.5, 1.0)

sympy, and the modules that need it, load on first use.
"""

import importlib

from .errors import (
    DomainError,
    NumericsError,
    PoleError,
    PsifracError,
)
from .fracops import (
    QuadratureSpec,
    SeriesValue,
    frac_deriv_psi_powers,
    frac_derivative,
    frac_derivative_series,
    frac_integral,
    frac_integral_series,
    frac_op,
    frac_op_series,
    leibniz_product,
    product_integral,
    psi_deriv_m,
    psi_jets,
)
from .jets import JetFunction, SolutionJet
from .parser import ParseError, parse_expr
from .psi import PsiFunction, builtin, validate
from .special import gamma, gen_binom, rgamma

# imported on first access (PEP 562): the sympy symbols, which load sympy,
# and the prolongation and the determining systems, which load it where
# they need it (the solver, and the quadrature of the omega equation of a
# moving lower limit), so that `import psifrac` stays light and a process
# that evaluates operators, prolongs a generator or checks a determining
# system never loads it
_LAZY = {
    "jets": ("X", "T", "U", "W"),
    "prolong": ("Infinitesimals", "ReducedInfinitesimals", "eta_alpha_psi",
                "eta_alpha_psi_compact", "eta_integer", "eta_m_psi", "mu_term",
                "omega_commutator", "omega_term"),
    "symmetry": ("EvolutionEquation", "GeneratorCandidate", "ResidualReport",
                 "builtin_table", "detsys_diffusion", "detsys_gazizov_rl", "detsys_gfbe",
                 "detsys_zhang_rl", "diffusion_rho_fixture", "solve_ansatz"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    # not cached here: a patch or a tracer replaces the attribute of the
    # module that defines it, and a copy here would outlive the patch
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "PsifracError", "DomainError", "PoleError", "NumericsError",
    "gamma", "rgamma", "gen_binom",
    "PsiFunction", "builtin", "validate",
    "JetFunction", "SolutionJet", "X", "T", "U", "W",
    "QuadratureSpec", "SeriesValue",
    "frac_integral", "frac_derivative", "frac_op",
    "frac_integral_series", "frac_derivative_series", "frac_op_series",
    "frac_deriv_psi_powers", "psi_deriv_m", "psi_jets",
    "leibniz_product", "product_integral",
    "Infinitesimals", "ReducedInfinitesimals",
    "eta_integer", "eta_m_psi", "mu_term", "omega_commutator", "omega_term",
    "eta_alpha_psi", "eta_alpha_psi_compact",
    "EvolutionEquation", "GeneratorCandidate", "ResidualReport",
    "detsys_gfbe", "detsys_diffusion", "detsys_gazizov_rl", "detsys_zhang_rl",
    "builtin_table", "solve_ansatz", "diffusion_rho_fixture",
    "parse_expr", "ParseError",
]
