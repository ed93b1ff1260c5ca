import functools
import math
import random
from fractions import Fraction

import pytest

from liegen import exact
from liegen.exact import (
    DEFAULT_WIDTH,
    MIN_WIDTH,
    Matrix,
    Polynomial,
    RootBracket,
    SpanBasis,
    bracket,
    isolate_largest_positive_root,
)
from liegen.generators import G2_LOWER_B, doubling_bvector
from liegen.pingpong import r_inequalities, t_inequality

from paper_oracles import det, flat


def rand_matrix(rng, n, lo=-9, hi=9):
    return Matrix(
        [
            [Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
    )


class TestMatrix:
    def test_one_based_access(self):
        e12 = Matrix.unit(3, 1, 2)
        assert e12[1, 2] == 1
        assert e12[2, 1] == 0

    def test_square_required(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3, 4], [5, 6]])

    def test_det(self):
        assert det(Matrix([[2, 1], [1, 1]])) == 1
        assert det(Matrix([[0, 2], [3, 1]])) == -6  # one row swap
        assert det(Matrix([[1, 2], [2, 4]])) == 0

    def test_nilpotency_index(self):
        x = Matrix.unit(3, 1, 2) + Matrix.unit(3, 2, 3)
        assert x.nilpotency_index() == 3
        assert Matrix.identity(2).nilpotency_index() is None


class TestBracket:
    def test_sl2_relation(self):
        e, f = Matrix.unit(2, 1, 2), Matrix.unit(2, 2, 1)
        h = Matrix.unit(2, 1, 1) + (-1) * Matrix.unit(2, 2, 2)
        assert bracket(e, f) == h

    def test_shift_corner_n3(self):
        x = Matrix.unit(3, 1, 2) + Matrix.unit(3, 2, 3)
        y = Matrix.unit(3, 3, 1)
        assert bracket(x, y) == Matrix.unit(3, 2, 1) - Matrix.unit(3, 3, 2)

    def test_alternating(self):
        rng = random.Random(1)
        for _ in range(10):
            a = rand_matrix(rng, 4)
            assert bracket(a, a).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bracket(Matrix.identity(2), Matrix.identity(3))

    def test_jacobi_and_bilinearity(self):
        rng = random.Random(7)
        for _ in range(20):
            a, b, c = (rand_matrix(rng, 3) for _ in range(3))
            jac = (
                bracket(a, bracket(b, c))
                + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))
            )
            assert jac.is_zero()
            lam = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            assert bracket(a + lam * b, c) == bracket(a, c) + lam * bracket(b, c)


class TestSpanBasis:
    def test_idempotent(self):
        sb = SpanBasis(3)
        assert sb.insert_flat(flat(Matrix.unit(3, 1, 2)))
        assert not sb.insert_flat(flat(Matrix.unit(3, 1, 2)))
        assert sb.rank == 1

    def test_independence(self):
        sb = SpanBasis(3)
        sb.insert_flat(flat(Matrix.unit(3, 1, 2)))
        assert sb.insert_flat(flat(Matrix.unit(3, 1, 2) + Matrix.unit(3, 2, 1)))
        assert sb.rank == 2

    def test_full_gl3(self):
        sb = SpanBasis(3)
        for i in range(1, 4):
            for j in range(1, 4):
                sb.insert_flat(flat(Matrix.unit(3, i, j)))
        assert sb.rank == 9

    def test_zero_matrix_not_inserted(self):
        sb = SpanBasis(2)
        assert not sb.insert_flat(flat(Matrix([[0, 0], [0, 0]])))
        assert not sb.insert_flat({0: 0, 3: 0})
        assert sb.rank == 0

    def test_rank_order_independent(self):
        rng = random.Random(3)
        mats = [rand_matrix(rng, 3) for _ in range(12)]
        ranks = []
        for seed in (0, 1):
            shuffled = list(mats)
            random.Random(seed).shuffle(shuffled)
            sb = SpanBasis(3)
            for m in shuffled:
                sb.insert_flat(flat(m))
            ranks.append(sb.rank)
        assert ranks[0] == ranks[1]

    def test_membership_through_insert_flat(self):
        """A matrix lies in the span exactly when inserting it leaves the rank."""
        sb = SpanBasis(2)
        sb.insert_flat(flat(Matrix.unit(2, 1, 1)))
        sb.insert_flat(flat(Matrix.unit(2, 2, 2)))
        assert not sb.insert_flat(flat(Fraction(1, 3) * Matrix.identity(2)))
        assert sb.rank == 2
        assert sb.insert_flat(flat(Matrix.unit(2, 1, 2)))
        assert sb.rank == 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SpanBasis(2).insert_flat(flat(Matrix.identity(3)))

    @pytest.mark.parametrize("bad", [
        lambda sb: sb.insert_flat({4: 0}),
        lambda sb: sb.insert_flat({3: 1, 9: 2}),
        lambda sb: sb.insert_flat({0: 1, 4: 1}),
        lambda sb: sb.insert_flat({4: 1}),
        lambda sb: sb.insert_flat({-1: 1}),
    ])
    def test_wrong_size_rejected(self, bad):
        """Refused before any row changes, a zero entry out of range too."""
        sb = SpanBasis(2)
        sb.insert_flat({0: 1})
        with pytest.raises(ValueError, match="index out of range for n=2"):
            bad(sb)
        assert [m.rows for m in sb.matrices()] == [((1, 0), (0, 0))]

    def test_matrices_roundtrip(self):
        sb = SpanBasis(2)
        m = Matrix([[1, 2], [3, 4]])
        sb.insert_flat(flat(m))
        (back,) = sb.matrices()
        # primitive rescaling only: same line through the origin
        assert back == m


class TestPolynomial:
    def test_normalization(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1
        assert Polynomial([0, 0]).is_zero()

    def test_evaluation(self):
        p = Polynomial([-2, 0, Fraction(1, 2)])  # x^2/2 - 2
        assert p(2) == 0
        assert p(Fraction(1, 3)) == Fraction(1, 18) - 2

    def test_call_matches_fraction_horner(self):
        # p(x) in one integer sum and one Fraction: the value that Fraction
        # Horner steps give, at integers, 0, negative points and rationals
        rng = random.Random(17)
        points = [0, 1, -1, 2, Fraction(-7, 3), Fraction(1, 1024), Fraction(10**30, -7)]
        points += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(40)]
        polys = [Polynomial([]), Polynomial([0]), Polynomial([5]), Polynomial([Fraction(-2, 3)]),
                 Polynomial([0, 0, 1]), t_inequality(12)]
        polys += r_inequalities(5, (Fraction(3, 2), -4, 7, Fraction(-1, 5)))
        for degree in range(1, 15):
            polys.append(Polynomial(
                [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(degree + 1)]))
        for p in polys:
            for x in points:
                got = p(x)
                assert type(got) is Fraction, (p, x)
                assert got == fraction_horner(p.coefficients, x), (p, x)

    def test_cleared(self):
        p = Polynomial([Fraction(-1, 3), Fraction(1, 6)])
        assert p.cleared().coefficients == (Fraction(-2), Fraction(1))
        assert p.integer_coefficients() == (-2, 1)


class TestRootIsolation:
    def test_linear(self):
        br = isolate_largest_positive_root([Polynomial([-2, 1])])
        assert br.lo <= 2 <= br.hi
        assert br.hi - br.lo <= DEFAULT_WIDTH

    def test_quadratic(self):
        # largest positive root of T^2/2 - 2T - 2 is 2 + 2*sqrt(2)
        p = Polynomial([-2, -2, Fraction(1, 2)])
        br = isolate_largest_positive_root([p])
        assert p(br.lo) <= 0 < p(br.hi)
        assert abs(float(br.lo) - 4.82842712474619) < 1e-9

    def test_cubic(self):
        p = Polynomial([-12, -12, -6, 1])
        br = isolate_largest_positive_root([p])
        # frozen from an independent float bisection of the same cubic
        assert abs(float(br.lo) - 7.748544817625866) < 1e-9
        assert 7.7 < float(br.lo) and float(br.hi) < 7.8

    def test_sign_contract_and_positivity_above(self):
        for coeffs in ([-2, 1], [-12, -12, -6, 1], [-2, -14, -84, 224]):
            p = Polynomial(coeffs)
            br = isolate_largest_positive_root([p])
            assert p(br.lo) <= 0
            assert p(br.hi) > 0
            assert p(br.hi + 1) > 0

    def test_no_positive_root(self):
        assert isolate_largest_positive_root([Polynomial([1, 0, 1])]) is None
        assert isolate_largest_positive_root([Polynomial([0, 2, 3])]) is None

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            isolate_largest_positive_root([Polynomial([])])

    @pytest.mark.parametrize("w", [0, -1])
    def test_width_must_be_positive(self, w):
        with pytest.raises(ValueError):
            isolate_largest_positive_root([Polynomial([-2, 1])], width=Fraction(w))

    def test_requested_width(self):
        w = Fraction(1, 1000)
        br = isolate_largest_positive_root([Polynomial([-2, 1])], width=w)
        assert br.hi - br.lo <= w

    def test_width_below_minimum_rejected(self):
        p = Polynomial([-2, 1])
        br = isolate_largest_positive_root([p], width=MIN_WIDTH)
        assert br.lo <= 2 <= br.hi
        with pytest.raises(ValueError, match="at least 2\\^-256"):
            isolate_largest_positive_root([p], width=MIN_WIDTH / 2)

    def test_more_than_one_sign_change_rejected(self):
        # (x-1)(x-100)(x-100001/1000): a coarse dyadic grid over [0, 2^e]
        # steps over the dip between the two largest roots
        p = Polynomial([-10000100, 10200101, -201001, 1000])
        assert p(Fraction(1000005, 10000)) < 0
        with pytest.raises(ValueError, match="sign changes"):
            isolate_largest_positive_root([p])


def fujiwara_exponent(p):
    """The least e with 2^(e-1) > |c_i / c_d|^(1/(d-i)) read off bit lengths,
    for every nonzero c_i of the cleared p: Fujiwara's 2^e above every root."""
    ints = p.integer_coefficients()
    d, top = len(ints) - 1, ints[-1].bit_length()
    return 1 + max(
        math.ceil(Fraction(c.bit_length() - top + 1, d - i))
        for i, c in enumerate(ints[:-1]) if c
    )


def fraction_bisection(p, width):
    """A ``Fraction`` reference for the integer kernel: bisection of
    [0, 2^e], every midpoint evaluated by ``Polynomial.__call__``."""
    lo, hi = Fraction(0), Fraction(2) ** fujiwara_exponent(p)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if p(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def fraction_horner(coefficients, x):
    """p(x) with every Horner step in ``Fraction``."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def sign_changes(coefficients):
    signs = [c > 0 for c in coefficients if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@functools.cache
def isolate_one(p, width):
    """One polynomial's own bisection, as every polynomial of a bound was
    bisected before one bisection served them all: None without a sign
    change, else [0, 2^e] for p's own Fujiwara exponent e, halved while wider
    than width.  The sign at a midpoint a/b is that of the integer sum
    sum c_i a^i b^(d-i) over the cleared coefficients c."""
    if sign_changes(p.coefficients) == 0:
        return None
    ints = p.integer_coefficients()
    lo, hi = Fraction(0), Fraction(2) ** fujiwara_exponent(p)
    while hi - lo > width:
        mid = (lo + hi) / 2
        value, scale = 0, 1
        for c in reversed(ints):
            value, scale = value * mid.numerator + c * scale, scale * mid.denominator
        if value <= 0:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi)


def per_polynomial_bracket(polys, width):
    """Each polynomial bisected alone, then the bracket with the largest hi."""
    brackets = [isolate_one(p, width) for p in polys]
    return max(filter(None, brackets), key=lambda br: br.hi, default=None)


def random_b_vectors(rng, n, count):
    """Nonzero b-vectors of length n - 1, integer and fractional."""
    for _ in range(count):
        yield [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3, 4]))
            for _ in range(n - 1)
        ]


class TestIntegerBisectionMatchesFractionBisection:
    """The integer kernel takes the same decision at every midpoint as the
    ``Fraction`` loop over [0, 2^e], so the brackets are equal, not merely
    both valid.
    Every polynomial here has exactly one Descartes sign change; widths are
    2^-log_width."""

    LOG_WIDTHS = [1, 40, 160, 256]

    def check(self, p, log_width):
        width = Fraction(1, 2**log_width)
        br = isolate_largest_positive_root([p], width)
        assert (br.lo, br.hi) == fraction_bisection(p, width)

    @pytest.mark.parametrize("log_width", LOG_WIDTHS)
    def test_t_inequalities(self, log_width):
        for n in range(2, 41):
            self.check(t_inequality(n), log_width)

    @pytest.mark.parametrize("log_width", LOG_WIDTHS)
    def test_r_inequalities_of_seeded_b_vectors(self, log_width):
        rng = random.Random(9)
        for n in range(3, 13):
            for b in random_b_vectors(rng, n, 2):
                for p in r_inequalities(n, b):
                    self.check(p, log_width)

    @pytest.mark.parametrize("log_width", LOG_WIDTHS)
    def test_fractional_coefficients(self, log_width):
        rng = random.Random(11)
        for degree in range(1, 13):
            low = [Fraction(-rng.randint(0, 50), rng.randint(1, 30)) for _ in range(degree)]
            low[0] = Fraction(-rng.randint(1, 50), rng.randint(1, 30))
            lead = Fraction(rng.randint(1, 50), rng.randint(1, 30))
            self.check(Polynomial(low + [lead]), log_width)


class TestJointBisectionMatchesPerPolynomialBisection:
    """One bisection for all of a bound's polynomials gives the bracket that
    bisecting each alone and keeping the largest hi gives: equal, not merely
    both valid.  At widths 1, 3 and 1000 some polynomials have 2^e <= width,
    so their own bracket is [0, 2^e] with no halving at all."""

    WIDTHS = [Fraction(1, 2), Fraction(1, 2**40), Fraction(1, 2**160), Fraction(1, 2**256),
              Fraction(1), Fraction(3), Fraction(1000)]
    WIDTH_IDS = ["2^-1", "2^-40", "2^-160", "2^-256", "1", "3", "1000"]
    # no sign change: each drops out
    POSITIVE = [Polynomial([1, 0, 1]), Polynomial([0, 2, 3]), Polynomial([7])]
    # roots far below 1: 2^e < 1
    SMALL = [Polynomial([-1, 10**6]), Polynomial([-3, 0, 7 * 10**12])]

    def check(self, polys, width):
        got = isolate_largest_positive_root(polys, width)
        want = per_polynomial_bracket(polys, width)
        assert got == want, (polys, width)
        return got

    @pytest.fixture(params=WIDTHS, ids=WIDTH_IDS)
    def width(self, request):
        return request.param

    def test_t_inequalities(self, width):
        for n in range(2, 41):
            assert self.check([t_inequality(n)], width) is not None

    def test_doubling_r_inequalities(self, width):
        for n in range(3, 21):
            self.check(r_inequalities(n, doubling_bvector(n)), width)
        self.check(self.SMALL + r_inequalities(20, doubling_bvector(20)), width)

    def test_g2_r_inequalities(self, width):
        self.check(r_inequalities(7, G2_LOWER_B), width)
        self.check([t_inequality(7)] + r_inequalities(7, G2_LOWER_B), width)

    def test_random_b_vectors_and_mixes(self, width):
        rng = random.Random(23)
        for i in range(50):
            n = rng.randint(3, 12)
            if i % 2:
                b = [rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(n - 1)]
            else:
                (b,) = random_b_vectors(rng, n, 1)
            polys = r_inequalities(n, b)
            self.check(polys, width)
            self.check(self.POSITIVE[:1] + polys + self.POSITIVE[1:], width)
            self.check(polys[::-1] + [t_inequality(n)] + self.SMALL, width)

    def test_small_roots_and_no_sign_change(self, width):
        assert self.check(self.SMALL, width) is not None
        assert self.check(self.POSITIVE[1:] + self.SMALL[::-1], width) is not None
        assert self.check(self.POSITIVE, width) is None
        assert self.check([], width) is None


class TestDyadicBrackets:
    """Bisection of [0, 2^e] keeps both endpoints on a dyadic grid and below
    Fujiwara's bound, where p is already positive."""

    @pytest.mark.parametrize("log_width", [40, 256])
    def test_dyadic_endpoints_below_the_root_bound(self, log_width):
        width = Fraction(1, 2**log_width)
        polys = [t_inequality(n) for n in range(2, 41)]
        polys += [p for n in range(3, 21) for p in r_inequalities(n, doubling_bvector(n))]
        polys += r_inequalities(7, G2_LOWER_B)
        polys += [Polynomial([-1, 10**6]), Polynomial([-3, 0, 7 * 10**12])]  # e < 0
        for p in polys:
            br = isolate_largest_positive_root([p], width)
            top = Fraction(2) ** fujiwara_exponent(p)
            for x in br:
                assert x.denominator & (x.denominator - 1) == 0, (p, x)
            assert br.hi - br.lo <= width
            assert br.hi <= top
            assert p(top) > 0
            assert p(br.lo) <= 0 < p(br.hi)

    def test_t_inequality_40_takes_48_sign_evaluations(self, monkeypatch):
        calls = []
        original = exact._scaled_value
        monkeypatch.setattr(exact, "_scaled_value", lambda *a: calls.append(a) or original(*a))
        isolate_largest_positive_root([t_inequality(40)])
        assert len(calls) == 48

    def test_g2_r0_takes_50_sign_evaluations(self, monkeypatch):
        # 265 when each of the six polynomials was bisected alone
        calls = []
        original = exact._scaled_value
        monkeypatch.setattr(exact, "_scaled_value", lambda *a: calls.append(a) or original(*a))
        isolate_largest_positive_root(r_inequalities(7, G2_LOWER_B))
        assert len(calls) == 50
