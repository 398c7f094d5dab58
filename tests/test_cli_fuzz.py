"""Property-based fuzz of ``psifrac eval`` through ``cli.main``, in process.

Whatever the operator, kernel, order, point or function spec, the command
ends in a documented exit code without an escaping exception: exit 2 or 3
prints one line on stderr, and exit 0 prints only finite numbers.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psifrac.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_NUMERIC, EXIT_PASS, main

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


# The symbolic psi-jets expand every denominator that is a sum, so their
# cost grows steeply with the order (seconds at order 5 for 1/(t-1)).
# Specs with such denominators are drawn with orders below 3, where their
# jets are cheap; the others range over the whole (0, 6).
def _orders(top):
    return st.floats(0.01, top).filter(lambda a: not a.is_integer())


SPEC_ALPHA = st.one_of(
    st.tuples(st.recursive(_ATOMS, _combine, max_leaves=4), _orders(5.99)),
    st.tuples(st.sampled_from(["1/(t-1)", "psi^-1", "1/0", "0^-1"]), _orders(2.99)),
)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(
    op=st.sampled_from(["integral", "derivative"]),
    kernel=st.sampled_from(["identity", "power", "exponential", "affine"]),
    spec_alpha=SPEC_ALPHA,
    t=st.floats(0.0, 2.0, exclude_min=True),
)
def test_eval_ends_in_documented_exit_code(op, kernel, spec_alpha, t):
    spec, alpha = spec_alpha
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["eval", op, f"--f={spec}", "--t", repr(t), "--psi", kernel,
                     "--alpha", repr(alpha), "--terms", "3", "--format", "csv"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
    if code in (EXIT_CONFIG, EXIT_NUMERIC):
        assert len(err.strip().splitlines()) == 1, err
        assert out == ""
    if code == EXIT_PASS:
        for row in out.splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in row.split(",")), row
