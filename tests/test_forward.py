"""The quadrature's forward-mode psi-jets of a parsed spec against the
symbolic jets, which stay the reference: every shape of the grammar, every
built-in kernel, orders 0 to 3, at the 64 nodes of one point, and a kernel
given by its expression; jets that do not depend on the depth taken; and
one written function per shape, whatever the spec's numbers."""

import random
import re

import numpy as np
import pytest

from psifrac import forward
from psifrac import fracops as fo
from psifrac.cli import _as_f_of_t
from psifrac.jets import T
from psifrac.psi import PsiFunction, builtin
from test_taylor import KERNELS, SHAPES

# w^(5/2) is built in sympy: the grammar has no psi and no fractional power
PARSED = [spec for spec in SHAPES if spec != "w^(5/2)"]


@pytest.mark.parametrize("spec", PARSED)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_forward_jets_equal_the_symbolic_jets(kernel, spec):
    psi = KERNELS[kernel]
    t = psi.a + 0.77 * (psi.b - psi.a)
    if spec == "1/(t-1)" and psi.a < 1.0 < t:
        t = psi.a + 0.3 * (psi.b - psi.a)  # nodes on one side of the pole
    f = _as_f_of_t(spec, psi)
    _, s = fo._nodes(psi, t, 64)
    got = forward.jets(f.tree, psi, s, 3)
    for j in range(4):
        want = np.array([float(fo._psi_jet_fn(f.expr, psi.expr, j)(x)) for x in s.tolist()])
        err = np.abs(got[j] - want) / (1 + np.abs(want))
        assert err.max() <= 1e-12, (j, err.max())


# no closed form: psi's derivatives at the points come from its compiled
# expression, and t from reverting the series of psi
CUBIC = PsiFunction("cubic", 0.1, 2.0, expr=T + T**3)


@pytest.mark.parametrize("spec", ["t^2+3*t", "exp(t)*t", "(1+0.5*psi)^3", "psi^2+psi",
                                  "1/(t+1)"])
def test_forward_jets_on_a_kernel_given_by_its_expression(spec):
    f = _as_f_of_t(spec, CUBIC)
    s = np.array([0.3, 0.7, 1.2])
    got = forward.jets(f.tree, CUBIC, s, 3)
    for j in range(4):
        want = np.array([float(fo._psi_jet_fn(f.expr, CUBIC.expr, j)(x)) for x in s])
        err = np.abs(got[j] - want) / (1 + np.abs(want))
        assert err.max() <= 1e-13, (j, err.max())


@pytest.mark.parametrize("spec", ["(1+0.5*psi)^3", "psi^2+psi"])
def test_backends_agree_on_a_kernel_given_by_its_expression(spec):
    # f is a polynomial in psi(t) - psi(a), so the series terminates
    f = _as_f_of_t(spec, CUBIC)
    for alpha in (0.6, 1.4):
        quad = fo.frac_derivative(f, CUBIC, alpha, 1.2)
        series = fo.frac_derivative_series(f, CUBIC, alpha, 1.2, 40).value
        assert abs(quad - series) <= 1e-12 * (1 + abs(series)), alpha


# a literal of the spec that is no exponent
LITERAL = re.compile(r"(?<![\^\d.])(?<!\^-)\d+(?:\.\d*)?")


def _draws(spec: str, count: int = 5) -> list:
    """spec and count copies with every literal other than 0, 1 and the
    exponents drawn anew."""
    rng = random.Random(spec)
    return [spec] + [LITERAL.sub(lambda m: m[0] if float(m[0]) in (0.0, 1.0)
                                 else f"{rng.uniform(1.1, 2.9):.3f}", spec)
                     for _ in range(count)]


def _bits(jets: list) -> list:
    return [j.tobytes() for j in jets]  # the sign of a zero included


def test_a_jet_does_not_depend_on_the_depth_taken():
    # forward.jets(tree, psi, s, m)[:k] is the same, bit for bit and the
    # sign of a zero included, for every m >= k - 1: every shape on every
    # kernel, depths 0 to 7 against depth 8
    for kernel, psi in sorted(KERNELS.items()):
        for spec in PARSED:
            t = psi.a + 0.77 * (psi.b - psi.a)
            if spec == "1/(t-1)" and psi.a < 1.0 < t:
                t = psi.a + 0.3 * (psi.b - psi.a)
            f = _as_f_of_t(spec, psi)
            _, s = fo._nodes(psi, t, 64)
            deep = _bits(forward.jets(f.tree, psi, s, 8))
            for m in range(8):
                got = _bits(forward.jets(f.tree, psi, s, m))
                assert len(got) == max(m, 2) + 1
                assert got == deep[:len(got)], (kernel, spec, m)


@pytest.mark.parametrize("spec", PARSED)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_one_function_per_shape_whatever_the_numbers(monkeypatch, kernel, spec):
    psi = KERNELS[kernel]
    t = psi.a + 0.77 * (psi.b - psi.a)
    if spec == "1/(t-1)" and psi.a < 1.0 < t:
        t = psi.a + 0.3 * (psi.b - psi.a)
    _, s = fo._nodes(psi, t, 64)
    fs = [_as_f_of_t(d, psi) for d in _draws(spec)]
    forward._code.cache_clear()
    shared = [[_bits(forward.jets(f.tree, psi, s, m)) for m in range(4)] for f in fs]
    # depths 0 to 2 take one pass through order 2: one function, and one
    # for depth 3
    assert forward._code.cache_info().misses == 2
    for f, got in zip(fs, shared):
        # the same jets from a function written for this shape first
        forward._code.cache_clear()
        assert [_bits(forward.jets(f.tree, psi, s, m)) for m in range(4)] == got
    with monkeypatch.context() as patch:
        # and from one written for this tree, its numbers folded in
        patch.setattr(forward, "_shape", lambda tree, psi_tree: (tree, ()))
        for f, got in zip(fs, shared):
            assert [_bits(forward.jets(f.tree, psi, s, m)) for m in range(4)] == got
    for f in fs[1:]:
        got = forward.jets(f.tree, psi, s, 3)
        for j in range(4):
            fn = fo._psi_jet_fn(f.expr, psi.expr, j)
            want = np.array([float(fn(x)) for x in s[::8].tolist()])
            err = np.abs(got[j][::8] - want) / (1 + np.abs(want))
            assert err.max() <= 1e-12, (j, err.max())


def test_kernels_that_differ_in_psi_a_share_one_function():
    forward._code.cache_clear()
    for a in (0.1, 0.2, 0.3):
        psi = builtin("exponential", a, 0.9)
        f = _as_f_of_t("(1 + psi)*exp(t) - psi^2", psi)
        want = fo._psi_jet_fn(f.expr, psi.expr, 2)
        got = forward.jets(f.tree, psi, np.array([0.5, 0.7]), 2)[2]
        assert got.tolist() == pytest.approx([float(want(0.5)), float(want(0.7))], rel=1e-12)
    assert forward._code.cache_info().misses == 1
