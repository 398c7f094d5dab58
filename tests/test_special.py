import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psifrac.errors import PoleError
from psifrac.special import gamma, gen_binom, rgamma


def test_gamma_matches_math_gamma():
    for x in (0.3, 0.5, 1.0, 2.5, 7.0, -0.5, -1.3):
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-15)


def test_gamma_raises_at_nonpositive_integers():
    for x in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            gamma(x)


def test_rgamma_is_exactly_zero_at_poles():
    for x in (0.0, -1.0, -5.0):
        assert rgamma(x) == 0.0


def test_rgamma_reciprocal_elsewhere():
    for x in (0.4, 1.0, 3.7, -2.5):
        assert rgamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-15)


def test_gamma_and_rgamma_past_the_double_range():
    assert rgamma(200.0) == 0.0
    assert 0.0 < rgamma(171.5) < 1e-300
    assert rgamma(171.5) == pytest.approx(math.exp(-math.lgamma(171.5)), rel=1e-12)
    assert gamma(200.0) == math.inf
    assert rgamma(1e-320) == 1e-320
    assert rgamma(-180.5) == -math.inf and rgamma(-181.5) == math.inf


def test_gen_binom_integer_case():
    # falls back to the combinatorial values for integer alpha
    for n in range(6):
        for k in range(n + 2):
            assert gen_binom(float(n), k) == pytest.approx(
                math.comb(n, k) if k <= n else 0.0, abs=1e-14
            )


def test_gen_binom_known_half():
    # binom(1/2, 2) = (1/2)(-1/2)/2 = -1/8
    assert gen_binom(0.5, 2) == pytest.approx(-0.125, rel=1e-14)


@given(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=300)
def test_gen_binom_pascal_identity(alpha, m):
    # binom(a, m) = binom(a-1, m) + binom(a-1, m-1)
    lhs = gen_binom(alpha, m)
    rhs = gen_binom(alpha - 1.0, m) + gen_binom(alpha - 1.0, m - 1)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
