"""Fractional operators with respect to a kernel function psi, their
Lie-symmetry prolongation and determining-equation systems.

Quick start::

    from psifrac import builtin, JetFunction, frac_derivative, T

    psi = builtin("power", 0.5, 2.0)       # psi(t) = t^2 on [0.5, 2]
    f = JetFunction.of_t(T**2)
    frac_derivative(f, psi, 0.5, 1.0)
"""

from .errors import (
    DomainError,
    JetOrderError,
    NumericsError,
    PoleError,
    PsifracError,
)
from .fracops import (
    FractionalOrder,
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
)
from .jets import JetFunction, SolutionJet, T, U, W, X
from .parser import ParseError, parse_expr
from .prolong import (
    Infinitesimals,
    ReducedInfinitesimals,
    eta_alpha_psi,
    eta_alpha_psi_compact,
    eta_integer,
    eta_m_psi,
    mu_term,
    omega_commutator,
    omega_term,
    total_frac_deriv,
)
from .psi import PsiFunction, builtin, validate
from .special import gamma, gen_binom, rgamma
from .symmetry import (
    EvolutionEquation,
    GeneratorCandidate,
    GridSpec,
    ResidualReport,
    builtin_table,
    detsys_diffusion,
    detsys_gazizov_rl,
    detsys_gfbe,
    detsys_zhang_rl,
    diffusion_rho_fixture,
    solve_ansatz,
)

__version__ = "0.1.0"

__all__ = [
    "PsifracError", "DomainError", "PoleError", "JetOrderError", "NumericsError",
    "gamma", "rgamma", "gen_binom",
    "PsiFunction", "builtin", "validate",
    "JetFunction", "SolutionJet", "X", "T", "U", "W",
    "FractionalOrder", "QuadratureSpec", "SeriesValue",
    "frac_integral", "frac_derivative", "frac_op",
    "frac_integral_series", "frac_derivative_series", "frac_op_series",
    "frac_deriv_psi_powers", "psi_deriv_m",
    "leibniz_product", "product_integral",
    "Infinitesimals", "ReducedInfinitesimals",
    "eta_integer", "eta_m_psi", "mu_term", "omega_commutator", "omega_term",
    "eta_alpha_psi", "eta_alpha_psi_compact", "total_frac_deriv",
    "EvolutionEquation", "GeneratorCandidate", "GridSpec", "ResidualReport",
    "detsys_gfbe", "detsys_diffusion", "detsys_gazizov_rl", "detsys_zhang_rl",
    "builtin_table", "solve_ansatz", "diffusion_rho_fixture",
    "parse_expr", "ParseError",
]
