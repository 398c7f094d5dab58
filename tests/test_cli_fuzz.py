"""Property-based fuzz of the CLI through ``cli.main``, in process.

Whatever the operator, kernel, order, point or function spec, ``eval``
ends in a documented exit code without an escaping exception: exit 2 or 3
prints one line on stderr, and exit 0 prints only finite numbers.  Bad
numeric flags (``--alpha``, ``--terms``, ``--tol``, ``--N``) are a
configuration error of one line, whichever command reads them; ``--terms``
and each ``--N`` entry must lie in [0, MAX_TERMS].  A setting's flag given
to a command that does not read it is a configuration error of one line
too.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psifrac.cli import (EXIT_CONFIG, EXIT_FAIL, EXIT_NUMERIC, EXIT_PASS, MAX_TERMS,
                         SETTINGS, main)
from psifrac.parser import MAX_DEPTH
from test_cli import nested_spec

_ATOMS = st.sampled_from(["t", "psi", "1", "2", "0.5", "3.25"])


def _combine(children):
    pair = st.tuples(children, children)
    return st.one_of(
        st.builds(lambda p: f"({p[0]} + {p[1]})", pair),
        st.builds(lambda p: f"({p[0]} - {p[1]})", pair),
        st.builds(lambda p: f"{p[0]}*{p[1]}", pair),
        st.builds(lambda e, d: f"{e}/{d}", children, st.sampled_from(["t", "2", "0.5"])),
        st.builds(lambda e, k: f"({e})^{k}", children, st.sampled_from(["2", "3"])),
        st.builds(lambda e: f"exp({e})", children),
    )


# The quadrature's symbolic psi-jets keep a denominator that is a sum as a
# product, so every spec, those with poles included, ranges over orders in
# (0, 6).  The series takes Taylor-mode jets, so --terms ranges over
# [0, MAX_TERMS].
def _orders(top):
    return st.floats(0.01, top).filter(lambda a: not a.is_integer())


# Up to twice the parser's nesting bound, in each form that nests: the
# nested exp is an order below 1, since each psi-jet order multiplies its
# symbolic derivative's size by about the depth.
_DEPTHS = st.integers(1, 2 * MAX_DEPTH)

SPEC_ALPHA = st.one_of(
    st.tuples(st.recursive(_ATOMS, _combine, max_leaves=4), _orders(5.99)),
    st.tuples(st.sampled_from(["1/(t-1)", "psi^-1", "1/0", "0^-1"]), _orders(5.99)),
    st.tuples(st.builds(nested_spec, st.sampled_from(["paren", "minus"]), _DEPTHS),
              _orders(5.99)),
    st.tuples(st.builds(nested_spec, st.just("exp"), _DEPTHS), _orders(0.99)),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(
    op=st.sampled_from(["integral", "derivative"]),
    kernel=st.sampled_from(["identity", "power", "exponential"]),
    spec_alpha=SPEC_ALPHA,
    t=st.floats(0.0, 2.0, exclude_min=True),
    terms=st.integers(0, MAX_TERMS),
)
def test_eval_ends_in_documented_exit_code(op, kernel, spec_alpha, t, terms):
    spec, alpha = spec_alpha
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["eval", op, f"--f={spec}", "--t", repr(t), "--psi", kernel,
                     "--alpha", repr(alpha), "--terms", str(terms), "--format", "csv"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
    if code in (EXIT_CONFIG, EXIT_NUMERIC):
        assert len(err.strip().splitlines()) == 1, err
        assert out == ""
    if code == EXIT_PASS:
        for row in out.splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in row.split(",")), row


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.5]
_N_LISTS = st.one_of(
    st.lists(st.integers(-2, 4), max_size=3).map(lambda ns: ",".join(map(str, ns))),
    st.sampled_from([",", " ", "1,,2", "x", "1.5", f"{MAX_TERMS},1",
                     f"1,{MAX_TERMS + 1}"]),
)
_COMMANDS = {
    "eval": ["eval", "integral", "--f", "t^2", "--t", "1"],
    "leibniz": ["leibniz", "--f", "t", "--g", "1 + t", "--t", "1"],
    "solve": ["solve", "--case", "g=u"],
}


def _reads(command, name):
    return command in SETTINGS[name].commands


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(sorted(_COMMANDS)),
    alpha=st.one_of(st.sampled_from(_SPECIAL), st.floats(0.05, 2.5)),
    terms=st.one_of(st.integers(-3, 6), st.integers(MAX_TERMS - 1, MAX_TERMS + 3)),
    tol=st.one_of(st.sampled_from(_SPECIAL + [1e-300]), st.floats(1e-12, 1.0)),
    n_list=_N_LISTS,
)
def test_numeric_flags_are_validated_before_any_work(command, alpha, terms, tol,
                                                     n_list):
    # each command gets the numeric flags of the settings it reads
    argv = [*_COMMANDS[command], f"--alpha={alpha!r}", "--format", "csv"]
    if _reads(command, "terms"):
        argv.append(f"--terms={terms}")
    if _reads(command, "tol"):
        argv.append(f"--tol={tol!r}")
    if command == "leibniz":
        argv.append(f"--N={n_list}")
    try:
        ns = [int(s) for s in n_list.split(",") if s.strip()]
        n_ok = bool(ns) and min(ns) >= 0 and max(ns) <= MAX_TERMS
    except ValueError:
        n_ok = False
    valid = (math.isfinite(alpha) and alpha > 0
             and (not _reads(command, "terms") or 0 <= terms <= MAX_TERMS)
             and (not _reads(command, "tol") or math.isfinite(tol) and tol >= 0)
             and (command != "leibniz" or n_ok))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if not valid:
        assert code == EXIT_CONFIG
        assert out == ""
        assert len(err.strip().splitlines()) == 1, err
    else:
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_NUMERIC), err
        if code == EXIT_NUMERIC:
            assert len(err.strip().splitlines()) == 1, err


# a valid command of each kind; verify zhang and gazizov run on psi = t
# on [0, 10] without quadrature, so they read fewer settings than verify
_VALID = {
    **_COMMANDS,
    "prolong": ["prolong", "--xi", "x", "--tau", "4*t", "--eta", "0-u", "--u", "x*psi",
                "--x", "0.5", "--t", "1"],
    "verify": ["verify", "gfbe", "--case", "g=u", "--table", "X2"],
    "verify zhang": ["verify", "zhang", "--case", "g=u", "--table", "X2"],
    "verify gazizov": ["verify", "gazizov", "--case", "g=u", "--table", "X2"],
    "selftest": ["selftest"],
}
_CLASSICAL_UNREAD = ("psi", "a", "b", "rho", "nodes")


def _unread(command):
    base = command.split()[0]
    return [name for name in SETTINGS if not _reads(base, name)
            or command != base and name in _CLASSICAL_UNREAD]


@pytest.mark.parametrize("command, name", [(c, n) for c in _VALID for n in _unread(c)])
def test_a_flag_the_command_does_not_read_is_one_line_config_error(command, name):
    # the setting's own default (a kernel other than psi = t for --psi), so
    # that only the flag itself is wrong
    value = "power" if name == "psi" else str(SETTINGS[name].default)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*_VALID[command], SETTINGS[name].flag, value])
    assert code == EXIT_CONFIG
    assert out.getvalue() == ""
    err = err.getvalue()
    assert len(err.strip().splitlines()) == 1, err
    assert SETTINGS[name].flag in err
