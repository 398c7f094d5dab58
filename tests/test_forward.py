"""The quadrature's forward-mode psi-jets of a parsed spec against the
symbolic jets, which stay the reference: every shape of the grammar, every
built-in kernel, orders 0 to 3, at the 64 nodes of one point."""

import numpy as np
import pytest

from psifrac import forward
from psifrac import fracops as fo
from psifrac.cli import _as_f_of_t
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
    _, nodes, s = fo._nodes(psi, t, 64)
    got = forward.jets(f.tree, psi, s, 3)
    for j in range(4):
        want = np.array([float(fo._psi_jet_fn(f.expr, psi.expr, j)(x)) for x in nodes])
        err = np.abs(got[j] - want) / (1 + np.abs(want))
        assert err.max() <= 1e-12, (j, err.max())


def test_a_jet_does_not_depend_on_the_depth_taken():
    psi = KERNELS["exponential"]
    f = _as_f_of_t("(1 + psi)*exp(t)", psi)
    _, _, s = fo._nodes(psi, 0.7, 64)
    deep = forward.jets(f.tree, psi, s, 4)
    for m in range(4):
        assert all((a == b).all() for a, b in zip(forward.jets(f.tree, psi, s, m), deep))
