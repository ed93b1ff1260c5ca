"""Root brackets checked against sympy's exact real-root isolation.

Every polynomial with a positive leading coefficient and exactly one
Descartes sign change has exactly one positive root; the bracket must hold
it.  sympy and hypothesis are optional test dependencies: without them this
module is skipped.
"""

from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from liegen.exact import Polynomial, isolate_largest_positive_root  # noqa: E402
from liegen.pingpong import r_inequalities, t_inequality  # noqa: E402

X = sp.Symbol("x")
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
WIDTHS = st.integers(0, 80).map(lambda k: Fraction(1, 2**k))


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def liegen_shaped(draw):
    """Positive leading coefficient, every other coefficient <= 0, negative constant."""
    degree = draw(st.integers(1, 12))
    middle = draw(st.lists(st.integers(-10**6, 0), min_size=degree - 1, max_size=degree - 1))
    return [draw(st.integers(-10**6, -1))] + middle + [draw(st.integers(1, 10**6))]


@st.composite
def one_change(draw):
    """Any integer coefficients <= 0 up to some degree and >= 0 above it, with
    at least one negative and a positive leading coefficient."""
    degree = draw(st.integers(1, 12))
    split = draw(st.integers(1, degree))
    low = draw(st.lists(st.integers(-10**6, 0), min_size=split, max_size=split))
    high = draw(st.lists(st.integers(0, 10**6), min_size=degree - split, max_size=degree - split))
    hypothesis.assume(any(low))
    return low + high + [draw(st.integers(1, 10**6))]


@st.composite
def many_changes(draw):
    degree = draw(st.integers(2, 12))
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=degree, max_size=degree))
    coeffs.append(draw(st.integers(1, 10**6)))
    hypothesis.assume(sign_changes(coeffs) >= 2)
    return coeffs


def check_against_sympy(coeffs, width):
    br = isolate_largest_positive_root([Polynomial(coeffs)], width)
    poly = sp.Poly(list(reversed(coeffs)), X)
    positive = [iv for iv, _ in poly.intervals() if iv[1] > 0]
    assert len(positive) == 1
    assert br.hi - br.lo <= width
    # count_roots counts distinct roots in the closed interval; a root at 0
    # is not the positive one
    lo, hi = sp.Rational(br.lo), sp.Rational(br.hi)
    assert poly.count_roots(lo, hi) - (br.lo == 0 and coeffs[0] == 0) == 1


@SETTINGS
@hypothesis.given(liegen_shaped(), WIDTHS)
def test_liegen_shaped_bracket_holds_the_positive_root(coeffs, width):
    check_against_sympy(coeffs, width)


@SETTINGS
@hypothesis.given(one_change(), WIDTHS)
def test_one_sign_change_bracket_holds_the_positive_root(coeffs, width):
    check_against_sympy(coeffs, width)


@SETTINGS
@hypothesis.given(many_changes())
def test_two_or_more_sign_changes_raise(coeffs):
    with pytest.raises(ValueError):
        isolate_largest_positive_root([Polynomial(coeffs)])


@pytest.mark.parametrize("n", [2, 3, 5, 9, 12, 17])
def test_t_inequality_bracket_holds_the_positive_root(n):
    check_against_sympy(list(t_inequality(n).integer_coefficients()), Fraction(1, 2**40))


@pytest.mark.parametrize("b", [(1, 2), (3, -5, 7), (1, -1, 2, -3, 5, -8)])
def test_r_inequality_brackets_hold_the_positive_root(b):
    for p in r_inequalities(b):
        check_against_sympy(list(p.integer_coefficients()), Fraction(1, 2**40))
