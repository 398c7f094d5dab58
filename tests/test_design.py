"""Design guards: every sympy-to-float callable comes from one cached
compile, so equal requests share one callable and compile once; and the
library runs on numpy and sympy alone."""

import subprocess
import sys
from pathlib import Path

import sympy as sp

import psifrac
from psifrac.jets import T, JetFunction, compiled
from psifrac.psi import builtin

SRC = Path(psifrac.__file__).resolve().parent


def test_lambdify_is_called_in_one_place():
    sites = {
        path.name: path.read_text().count("sp.lambdify(")
        for path in SRC.glob("*.py")
    }
    assert sum(sites.values()) == 1, sites
    assert sites["jets.py"] == 1


def test_equal_jet_functions_share_one_compiled_callable():
    expr = sp.exp(T) * T**3 + sp.Rational(7, 13)
    first = JetFunction.of_t(expr)
    fn = first._fn((2,))
    misses = compiled.cache_info().misses
    second = JetFunction.of_t(expr)
    assert second == first and second is not first
    assert second._fn((2,)) is fn
    assert second.partial((2,), 0.7) == first.partial((2,), 0.7)
    assert compiled.cache_info().misses == misses


def test_equal_builtin_kernels_share_one_compiled_callable():
    first = builtin("power", 1.0, 2.0, rho=2.5)
    fn = first._fn(3)
    misses = compiled.cache_info().misses
    second = builtin("power", 1.0, 2.0, rho=2.5)
    assert second._fn(3) is fn
    assert second.deriv(1.3, 3) == first.deriv(1.3, 3)
    assert compiled.cache_info().misses == misses


def test_import_does_not_load_scipy():
    code = (
        "import sys, psifrac\n"
        "from psifrac.fracops import frac_integral\n"
        "from psifrac.psi import builtin\n"
        "from psifrac.jets import JetFunction, T\n"
        "f = JetFunction.of_t(T)\n"
        "frac_integral(f, builtin('identity', 0.0, 2.0), 0.5, 1.0)\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=SRC.parent,
    )
    assert out.stdout.strip() == "False"
