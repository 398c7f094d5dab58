"""Design guards: every sympy-to-float callable comes from one cached
compile, so equal requests share one callable and compile once; the
psi-jets have one owner, fracops, above the compile cache; the series
backend takes its jets without symbolic differentiation; the
psi-time prolongation is the compact form at an integer order; the
determining systems share one grid evaluation with no symbolic work in
it and one transcription of the reduced system, and the prolongation
sums keep symbolic work out of their m-loops; a warm
quadrature runs no Python per node; the classical checks never
simplify, and the selftest oracle differentiates with sympy alone; each
CLI command takes the flags of the settings it reads, and reads every
one of them; every cache has a finite bound; every module-level
definition is read somewhere; and a run loads no module it does not
use: no scipy, no random generator for the determining systems, no
sympy for the operators on a parsed spec, for prolong, for verify (save
the omega equation of a moving lower limit), for the message of a rho it
refuses, or for solve, which prints its bases from trees."""

import argparse
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp

import psifrac
from psifrac import fracops as fo
from psifrac import cli
from psifrac import symmetry as sy
from psifrac.jets import T, JetFunction, compiled
from psifrac.psi import PsiFunction, builtin
from test_cli import README_COMMANDS

SRC = Path(psifrac.__file__).resolve().parent


def test_lambdify_is_called_in_one_place():
    sites = {
        path.name: path.read_text().count("sp.lambdify(")
        for path in SRC.glob("*.py")
    }
    assert sum(sites.values()) == 1, sites
    assert sites["jets.py"] == 1


def _calls(name: str):
    """(file, enclosing top-level function) for each call of name under src/."""
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for n in ast.walk(top):
                if isinstance(n, ast.Call):
                    f = n.func
                    if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                        yield path.name, getattr(top, "name", None)


def test_power_sums_are_split_in_one_place():
    # the one exact power rule: the pointwise callers and the determining
    # systems' grids all reach frac_deriv_psi_powers for it
    assert list(_calls("power_sum")) == [("fracops.py", "frac_deriv_psi_powers")]


def _sympy_imports(path):
    """The enclosing top-level function (None at module level) of each
    import of sympy in path."""
    for top in ast.parse(path.read_text()).body:
        for n in ast.walk(top):
            if isinstance(n, ast.Import):
                mods = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                mods = [n.module or ""]
            else:
                continue
            if any(m == "sympy" or m.startswith("sympy.") for m in mods):
                yield getattr(top, "name", None)


def test_taylor_and_fracops_import_sympy_only_where_they_must():
    # Taylor mode differentiates no tree in sympy (1/psi' comes from
    # tree.diff), and fracops uses sympy only for the symbolic psi-jets of
    # a function given in sympy
    assert list(_sympy_imports(SRC / "taylor.py")) == []
    assert set(_sympy_imports(SRC / "fracops.py")) == {"_psi_jet_expr"}


def test_prolong_reaches_sympy_only_in_the_omega_quadrature():
    # the prolongation builds its factors on trees; omega_commutator, the
    # quadrature reference of omega, alone reads the sympy form (.expr) of a
    # function, for its symbolic psi-jet, and prolong.py imports no sympy
    tree = ast.parse((SRC / "prolong.py").read_text())
    assert list(_sympy_imports(SRC / "prolong.py")) == []
    readers = {top.name for top in tree.body for n in ast.walk(top)
               if isinstance(n, ast.Attribute) and n.attr == "expr"}
    assert readers == {"omega_commutator"}


# symbolic work a determining system does outside its grid
SYMBOLIC_CALLS = {"subs", "expand", "diff", "power_sum", "frac_deriv_psi_powers",
                  "compiled"}


def _called_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            f = n.func
            yield f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def test_no_sympy_in_the_determining_system_grid_loops():
    # one function in symmetry.py reads the grid's x nodes; it does no
    # symbolic work, itself or in the module functions it calls, and every
    # determining system reaches it
    tree = ast.parse((SRC / "symmetry.py").read_text())
    helpers = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def reached(node, seen):
        """The names node calls, with those the module functions it calls
        call, transitively."""
        found = set()
        for name in _called_names(node):
            found.add(name)
            if name in helpers and name not in seen:
                seen.add(name)
                found |= reached(helpers[name], seen)
        return found

    reading = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               and any(isinstance(n, ast.Name) and n.id == "_XS" for n in ast.walk(f))}
    assert len(reading) == 1, reading
    (grid,) = reading
    assert not reached(helpers[grid], set()) & SYMBOLIC_CALLS
    systems = [name for name in helpers if name.startswith("detsys_")]
    assert len(systems) == 4
    for name in systems:
        assert grid in reached(helpers[name], set()), name


def test_the_reduced_determining_system_is_written_once():
    # the classical reduced system combines the psi-fractional system's
    # equations on psi = t: it takes no derivative and no fractional term
    # of its own
    tree = ast.parse((SRC / "symmetry.py").read_text())
    func = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "detsys_zhang_rl")
    called = set(_called_names(func))
    assert "_equations" in called
    assert not called & {"_partials", "frac_deriv_psi_powers", "diff"}, called


# symbolic work, or a jet build, that a prolongation sum does before its loop
JET_CALLS = SYMBOLIC_CALLS | {"_psi_jet_expr", "_psi_jet_fn", "_jets", "_at"}


def test_no_symbolic_work_in_the_prolongation_sums():
    # the sums of the expanded form and of mu, methods of the one row that
    # eta_alpha_psi, mu_term and the CLI read
    tree = ast.parse((SRC / "prolong.py").read_text())
    funcs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    for name in ("expanded", "mu"):
        loops = [n for n in ast.walk(funcs[name]) if isinstance(n, ast.For)
                 and getattr(n.target, "id", None) == "m"]
        assert loops, name
        for loop in loops:
            sympy_calls = [n.lineno for n in ast.walk(loop) if isinstance(n, ast.Call)
                           and isinstance(n.func, ast.Attribute)
                           and getattr(n.func.value, "id", None) == "sp"]
            assert not sympy_calls, (name, sympy_calls)
            assert not set(_called_names(loop)) & JET_CALLS, (name, loop.lineno)


def test_eta_m_psi_is_the_compact_form_at_an_integer_order():
    # one formula for the psi-time prolongation: eta_m_psi builds no table
    # of its own
    tree = ast.parse((SRC / "prolong.py").read_text())
    func = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "eta_m_psi")
    called = set(_called_names(func))
    assert "eta_alpha_psi_compact" in called
    assert not called & {"_jets", "_characteristic", "jet_series"}, called


def test_series_backend_does_no_symbolic_work(monkeypatch):
    # a fresh f is compiled for Taylor arithmetic, never differentiated,
    # expanded or lambdified
    kernels = [builtin(name, 0.5, 1.5) for name in ("identity", "power", "exponential")]
    for psi in kernels:
        psi(1.0)  # psi's own compile happens once per kernel

    def refuse(*args, **kwargs):
        raise AssertionError("symbolic work on the series path")

    for name in ("diff", "expand", "lambdify"):
        monkeypatch.setattr(sp, name, refuse)
    f = JetFunction.of_t(sp.exp(T) * T**2 - sp.Rational(31, 7) / (T + 3))
    for psi in kernels:
        value = fo.frac_op_series(f, psi, 0.7, 1.2, 30).value
        assert value == value  # not NaN


@pytest.mark.parametrize("kernel", ("identity", "power", "exponential"))
def test_prolong_compiles_nothing(monkeypatch, capsys, kernel):
    # the tables are Taylor mode and omega is in closed form, so a moving
    # lower limit (tau(a) != 0) and a nonlinear eta (mu) lambdify nothing
    def refuse(*args, **kwargs):
        raise AssertionError("lambdify on the prolongation path")

    monkeypatch.setattr(sp, "lambdify", refuse)
    compiled.cache_clear()  # so that no earlier compile is reused
    argv = ["prolong", "--xi", "x", "--tau", "t+1", "--eta", "u^2 - u", "--u",
            "x*psi + psi^2 + 1", "--x", "0.5", "--t", "1.0,1.5", "--psi", kernel,
            "--a", "0.5", "--format", "json"]
    assert cli.main(argv) == cli.EXIT_PASS
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(mu != 0.0 and omega != 0.0 for _, _, mu, omega, _, _ in rows), rows


def test_classical_checks_do_not_simplify(monkeypatch):
    # criterion 9's panel: to_general and both classical systems build
    # their equations without sympy's simplify
    from psifrac import selftest as st
    from psifrac import symmetry as sy

    def refuse(*args, **kwargs):
        raise AssertionError("simplify in a classical check")

    monkeypatch.setattr(sp, "simplify", refuse)
    alpha = 0.5
    psi = builtin("identity", 0.0, 10.0)
    eq = sy.lookup_case("g=u").equation(alpha, psi, **sy.CASE_DEFAULTS)
    for cand in st._panel(alpha):
        sy.detsys_zhang_rl(cand, eq, alpha)
        gen = sy.GeneratorCandidate(cand.label, general=cand.reduced.to_general(psi))
        sy.detsys_gazizov_rl(gen, eq.g, alpha)


def test_the_selftest_oracle_takes_no_shape_cached_derivative(monkeypatch):
    # selftest's classical references (criterion 4's oracle, and the
    # benchmark's) differentiate with sympy alone, so they stay
    # independent of tree.diff, the derivative engine of the prolongation
    # they check, under every alias psifrac holds of it
    import math

    from psifrac import selftest as st
    from psifrac import tree
    from psifrac.jets import U, X

    def refuse(*args, **kwargs):
        raise AssertionError("tree.diff in a selftest reference")

    engine = {id(tree.diff), id(tree._diff)}
    for name, mod in list(sys.modules.items()):
        if name.startswith("psifrac"):
            for attr, value in list(vars(mod).items()):
                if id(value) in engine:
                    monkeypatch.setattr(mod, attr, refuse)
    references = sorted(n for n in vars(st) if n.startswith("_classical"))
    assert references == ["_classical_eta_ref", "_classical_op"]
    u = 1 + 0.7 * X * T + T**2
    eta = 0.8 * X * U - U + 0.6 * U**2
    assert math.isfinite(st._classical_eta_ref(X, 1.3 * T + 0.4, eta, u, 0.6, 0.7, 1.1))
    assert math.isfinite(st._classical_op(u.subs(X, 0.7), 0.6, 1.1))
    assert "diff" not in vars(st)


def test_jets_imports_nothing_from_fracops():
    # fracops builds the psi-jets on top of jets.compiled, not the reverse
    tree = ast.parse((SRC / "jets.py").read_text())
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            names = [n.module or ""] + [a.name for a in n.names]
        elif isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        else:
            continue
        assert not any("fracops" in m for m in names), ast.dump(n)


def test_every_module_level_definition_is_used():
    # a def or class under src/ that nothing reads is dead code: each one
    # is loaded by name in its module (outside its own body), imported from
    # it and loaded, read as an attribute of the module, or named in a
    # string of its module or of the package's __init__ (__all__, _LAZY)
    defs, used, strings = set(), set(), set()
    for path in SRC.glob("*.py"):
        mod, tree = path.stem, ast.parse(path.read_text())
        home, modules = {}, {}  # local name -> (module, name); alias -> module
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for a in n.names:
                    if n.module is None:
                        modules[a.asname or a.name] = a.name
                    else:
                        home[a.asname or a.name] = (n.module, a.name)
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = top.name
                if not (own.startswith("__") and own.endswith("__")):
                    defs.add((mod, own))
            for n in ast.walk(top):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own:
                    used.add(home.get(n.id, (mod, n.id)))
                elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                      and n.value.id in modules):
                    used.add((modules[n.value.id], n.attr))
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    strings.add((mod, n.value))
    assert len(defs) > 100
    dead = sorted(d for d in defs - used - strings if ("__init__", d[1]) not in strings)
    assert dead == [], dead


def _settings_read(func, funcs, seen):
    """The cfg.<name> attributes that func, or a cli function it calls, reads."""
    read = {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load) and getattr(n.value, "id", None) == "cfg"}
    for name in set(_called_names(func)) & funcs.keys() - seen:
        seen.add(name)
        read |= _settings_read(funcs[name], funcs, seen)
    return read


def test_each_command_takes_exactly_the_settings_it_reads():
    # a flag that a command takes but never reads is a knob that does nothing
    tree = ast.parse((SRC / "cli.py").read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(n[4:] for n in funcs if n.startswith("cmd_"))
    for command, parser in sub.choices.items():
        row = {name for name, s in cli.SETTINGS.items() if command in s.commands}
        flags = {a.dest for a in parser._actions if a.dest in cli.SETTINGS}
        assert flags == row, command
        assert _settings_read(funcs[f"cmd_{command}"], funcs, set()) == row, command
        # --config comes with the settings, and a command without any has none
        assert any(a.dest == "config" for a in parser._actions) == bool(row), command


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


def test_equal_expression_kernels_share_one_compiled_callable():
    # a built-in kernel is evaluated in closed form; one given by its
    # expression is compiled
    first = PsiFunction("cubic", 0.1, 2.0, expr=T + T**3)
    fn = first._fn(3)
    misses = compiled.cache_info().misses
    second = PsiFunction("cubic", 0.1, 2.0, expr=T + T**3)
    assert second._fn(3) is fn
    assert second.deriv(1.3, 3) == first.deriv(1.3, 3)
    assert compiled.cache_info().misses == misses


def _python_events(fn) -> int:
    """The Python-level events, calls and lines, that fn() runs."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += 1
        return trace

    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def test_a_warm_quadrature_runs_no_python_per_node():
    # at a cached point the rule, the nodes and the jets come from the
    # caches and each moment is one array sum, so the Python work does not
    # grow with the nodes; a loop over them would, in lines if not in calls
    # an equal kernel cached by an earlier test would cost PsiFunction.__eq__
    # calls at the first lookup of each n: start from empty node tables
    fo._nodes.cache_clear()
    fo._node_values.cache_clear()
    psi = builtin("exponential", 0.0, 1.0)
    for f in (cli._as_f_of_t("(1 + psi)*exp(t)", psi), JetFunction.of_t(sp.exp(T) * T)):
        counts = []
        for n in (64, 513):
            quad = fo.QuadratureSpec(n)

            def point():
                fo.frac_integral(f, psi, 0.7, 0.6, quad)
                fo.frac_derivative(f, psi, 1.3, 0.6, quad)

            point()
            counts.append(_python_events(point))
        assert counts[0] == counts[1], counts


def _cache_decorators(tree):
    """(function name, decorator) for each functools cache decorator."""
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in n.decorator_list:
                f = d.func if isinstance(d, ast.Call) else d
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in ("lru_cache", "cache"):
                    yield n.name, d


def test_every_cache_is_bounded():
    # the caches live as long as the process; an unbounded one grows with
    # every new point, order or expression of a long run
    found = 0
    for path in SRC.glob("*.py"):
        for name, d in _cache_decorators(ast.parse(path.read_text())):
            found += 1
            where = f"{path.name}:{name}"
            assert isinstance(d, ast.Call), f"{where} has no explicit maxsize"
            sizes = [k.value for k in d.keywords if k.arg == "maxsize"] + d.args[:1]
            assert len(sizes) == 1, where
            size = sizes[0]
            assert isinstance(size, ast.Constant), where
            assert type(size.value) is int and size.value > 0, where
    assert found


# operator runs on a parsed spec: the README's eval and leibniz commands, and
# both operators on the kernels other than psi = t
OPERATOR_RUNS = [argv for argv, _ in README_COMMANDS if argv[0] in ("eval", "leibniz")] + [
    ["eval", op, "--f", "(1 + psi)*exp(t) - t^2/2", "--t", "0.7,1.3", "--psi", kernel,
     "--a", "0.5", "--alpha", alpha]
    for kernel in ("power", "exponential") for op in ("integral", "derivative")
    for alpha in ("0.6", "1.4")]

# verify on each of the four systems, on table rows and explicit candidates
# with c0 = 0, as the README and the benchmark run it
VERIFY_RUNS = [
    ["verify", "gfbe", "--case", "g=u", "--table", "X2"],
    ["verify", "gfbe", "--case", "g=u", "--xi", "x", "--ctau1", "4", "--theta", "1"],
    ["verify", "gfbe", "--case", "g=e^(b u)", "--table", "X2", "--psi", "power", "--a", "0.5"],
    ["verify", "gfbe", "--case", "g=u^p", "--table", "X2", "--p", "3", "--format", "json"],
    ["verify", "diffusion", "--case", "K=1", "--table", "X4", "--psi", "exponential"],
    ["verify", "diffusion", "--case", "K=power-law", "--table", "X2", "--c1", "0.5"],
    ["verify", "diffusion", "--case", "K=power-law", "--xi", "x^2", "--theta=-2.5*x"],
    ["verify", "zhang", "--case", "g=u", "--table", "X2", "--format", "csv"],
    ["verify", "zhang", "--case", "g=u/(1+u)", "--xi", "x", "--ctau1", "2", "--ctau2", "0.5"],
    ["verify", "gazizov", "--case", "g=u", "--table", "X2"],
    ["verify", "gazizov", "--case", "g=e^(b u)", "--xi", "1", "--rho", "x*psi^2"],
]

# prolong with a moving lower limit (tau(a) != 0, omega) and eta quadratic in
# u (mu), on each built-in kernel
PROLONG_RUNS = [
    ["prolong", "--xi", "x", "--tau", "t+1", "--eta", "u^2 - u", "--u", "x*psi + psi^2 + 1",
     "--x", "0.5", "--t", "1.0,1.5", "--psi", kernel, "--a", "0.5"]
    for kernel in ("identity", "power", "exponential")]

# a rho the exact power rule refuses: no sum of powers of psi, a power that
# is not integrable; its message is printed from the tree
REFUSED_RUNS = [
    ["verify", system, "--case", case, "--xi", "x", "--ctau1", "4", "--theta", "-1",
     "--rho", rho]
    for system, case in (("gfbe", "g=u"), ("diffusion", "K=1"))
    for rho in ("exp(psi)", "psi^-2", "1/(1+psi)", "x*psi^2 + psi^-1")]

# solve on every case it has an ansatz for, in each format, with the default
# parameters and with parameters that are fractions
SOLVE_RUNS = [
    ["solve", "--case", case.name, "--format", fmt, *params]
    for case in sy.CASES if case.params is not None
    for fmt in ("human", "json", "csv")
    for params in ([], ["--p", "3.7", "--bpar", "0.5", "--c1", "0.5"])]

# each module a run must not load, and the run: scipy serves only the tests
# as a reference; the determining systems' probes are literal, so they need
# no random generator; the operators on a parsed spec, the determining
# systems, the prolongation and the solver need no sympy, whose import is
# most of a cold CLI call: solve compares its bases on trees and prints them
# from trees; and solve runs without the selftest
RUNS = {
    "scipy": ("scipy", "import psifrac\n"
                       "from psifrac.fracops import frac_integral\n"
                       "from psifrac.psi import builtin\n"
                       "from psifrac.jets import JetFunction, T\n"
                       "frac_integral(JetFunction.of_t(T), builtin('identity', 0.0, 2.0), 0.5, "
                       "1.0)\n"),
    "numpy.random": ("numpy.random",
                     "from psifrac import cli\n"
                     "cli.main(['verify', 'zhang', '--case', 'g=u', '--table', 'X2'])\n"
                     "cli.main(['verify', 'gfbe', '--case', 'g=u', '--xi', 'x', '--c0', '1'])\n"
                     "cli.main(['verify', 'diffusion', '--case', 'K=power-law'])\n"
                     "cli.main(['verify', 'gazizov', '--case', 'g=u', '--table', 'X2'])\n"),
    "sympy": ("sympy", "import psifrac\n"
                       "from psifrac import cli\n"
                       f"for argv in {OPERATOR_RUNS!r}:\n"
                       "    cli.main(argv)\n"),
    "sympy in verify": ("sympy", "from psifrac import cli\n"
                                 f"for argv in {VERIFY_RUNS!r}:\n"
                                 "    cli.main(argv)\n"),
    "sympy in prolong": ("sympy", "from psifrac import cli\n"
                                  f"for argv in {PROLONG_RUNS!r}:\n"
                                  "    assert cli.main(argv) == cli.EXIT_PASS\n"),
    "sympy in a refused rho": ("sympy", "from psifrac import cli\n"
                                        f"for argv in {REFUSED_RUNS!r}:\n"
                                        "    assert cli.main(argv) == cli.EXIT_CONFIG\n"),
    "sympy in solve": ("sympy", "from psifrac import cli\n"
                                f"for argv in {SOLVE_RUNS!r}:\n"
                                "    assert cli.main(argv) == cli.EXIT_PASS\n"),
    "psifrac.selftest": ("psifrac.selftest",
                         "from psifrac import cli, symmetry as sy\n"
                         "for case in sy.CASES:\n"
                         "    if case.params is not None:\n"
                         "        assert cli.main(['solve', '--case', case.name]) == cli.EXIT_PASS\n"),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_run_does_not_load(run):
    module, script = RUNS[run]
    code = f"import sys\n{script}print({module!r} in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=SRC.parent,
    )
    assert out.stdout.splitlines()[-1] == "False", out.stderr


# (v) of a candidate with c0 != 0, as the sympy-built omega probe gives it
# through the quadrature: these bits were printed before the systems were
# evaluated from trees, and the omega path did not change
OMEGA_PINNED = [
    (["verify", "gfbe", "--case", "g=u", "--xi", "x", "--c0", "1", "--ctau1", "4",
      "--theta", "-1"], 1.6834493402107724),
    (["verify", "diffusion", "--case", "K=power-law", "--xi", "x^2", "--theta=-3*x",
      "--c0", "0.5", "--psi", "exponential", "--alpha", "0.7"], 0.8104157141613718),
]


@pytest.mark.parametrize("argv,omega", OMEGA_PINNED, ids=("gfbe", "diffusion"))
def test_a_moving_lower_limit_prints_the_omega_residual_it_did(argv, omega):
    out = subprocess.run(
        [sys.executable, "-m", "psifrac.cli", *argv, "--format", "json"],
        capture_output=True, text=True, cwd=SRC.parent,
    )
    assert out.returncode == cli.EXIT_FAIL, out.stderr
    rows = {name: value for name, value, _ in json.loads(out.stdout)["rows"]}
    assert repr(rows["v"]) == repr(omega)
