import math
import random
from fractions import Fraction

import pytest

from liegen import pingpong
from liegen.closure import predicted_type
from liegen.exact import DEFAULT_WIDTH, Polynomial
from liegen.generators import (
    FAMILY_CORNER,
    FAMILY_G2,
    FAMILY_LOWER,
    G2_LOWER_B,
    build_pair,
    doubling_bvector,
    shift_pair,
)
from liegen.groups import thin_pair
from liegen.pingpong import (
    CONCLUSION_DENSE_ONLY,
    CONCLUSION_FREE_DENSE,
    CONCLUSION_INSUFFICIENT,
    S0,
    PingPongBound,
    _bound_from_polys,
    certify_free_dense,
    compute_r0,
    compute_t0,
    freeness_warning,
    r_inequalities,
    second_bound,
    t_inequality,
)

from paper_oracles import X1, X2, in_region, pingpong_spotcheck


def fraction_r_inequalities(b):
    """The r-polynomials with every step in ``Fraction``: the table of
    c_{d,j}, each |c_{d,j}| times 1/d!, and the integers that ``Polynomial``
    clears the sums to, as ``Fraction`` coefficients."""
    n = len(b) + 1
    c = [[], [Fraction(1)]]
    for x in b:
        c.append([Fraction(1)] + [Fraction(x) * y for y in c[-1]])
    inv = [Fraction(1, math.factorial(d)) for d in range(n)]
    lhs = [-abs(x) * f for x, f in zip(c[n], inv)]
    lhs[n - 1] = -lhs[n - 1]
    polys = [Polynomial([x - abs(y) * f for x, y, f in zip(lhs, c[j], inv)] + lhs[j:])
             for j in range(1, n)]
    return [Polynomial([Fraction(x) for x in p.integer_coefficients()]) for p in polys]


def assert_same_polys(got, want):
    assert [[str(x) for x in p.coefficients] for p in got] == \
        [[str(x) for x in p.coefficients] for p in want]
    assert [p.integer_coefficients() for p in got] == [p.integer_coefficients() for p in want]


class TestInequalityPolynomials:
    def test_t_n2(self):
        assert t_inequality(2) == Polynomial([-2, 1])

    def test_t_n3(self):
        assert t_inequality(3) == Polynomial([-2, -2, Fraction(1, 2)])

    def test_t_n4_cleared(self):
        assert t_inequality(4).integer_coefficients() == (-12, -12, -6, 1)

    def test_t_n7_cleared(self):
        assert t_inequality(7).integer_coefficients() == (
            -1440, -1440, -720, -240, -60, -12, 1,
        )

    def test_r_n4_doubling(self):
        polys = r_inequalities((8, 12, 14))
        assert [p.integer_coefficients() for p in polys] == [
            (-2, -14, -84, 224),
            (-2, -22, -84, 224),
            (-2, -26, -132, 224),
        ]

    def test_r_n2_degenerate(self):
        (p,) = r_inequalities((3,))
        # |r| b1 - 1 > 1, i.e. 3R - 2 > 0
        assert p == Polynomial([-2, 3])

    @pytest.mark.parametrize("kind", ["small_int", "small_rational", "long_rational"])
    def test_r_matches_fraction_construction(self, kind):
        rng = random.Random(f"r-{kind}")
        draw = {
            "small_int": lambda: rng.randint(1, 30),
            "small_rational": lambda: Fraction(rng.randint(1, 60), rng.randint(1, 12)),
            "long_rational": lambda: Fraction(rng.randint(1, 10**30), rng.randint(1, 10**20)),
        }[kind]
        for n in range(2, 15):
            for _ in range(6):
                b = [rng.choice((-1, 1)) * draw() for _ in range(n - 1)]
                assert_same_polys(r_inequalities(b), fraction_r_inequalities(b))

    def test_r_matches_fraction_construction_doubling_and_g2(self):
        for n in range(3, 41):
            b = doubling_bvector(n)
            assert_same_polys(r_inequalities(b), fraction_r_inequalities(b))
        assert_same_polys(r_inequalities(G2_LOWER_B), fraction_r_inequalities(G2_LOWER_B))

    def test_r_validation(self):
        with pytest.raises(ValueError):
            r_inequalities((1, 0, 1))
        # an empty b is n = 1, which has no r-polynomial: r0 would have no root
        for call in (r_inequalities, compute_r0):
            with pytest.raises(ValueError, match="n must be at least 2"):
                call([])

    def test_every_inequality_has_one_sign_change(self):
        """Every coefficient below the leading one is negative, so each
        polynomial has one Descartes sign change and one positive root: root
        isolation always returns a bracket, and every bound carries one."""
        def one_change(p):
            signs = [c > 0 for c in p.integer_coefficients() if c]
            return signs[-1] and sum(a != b for a, b in zip(signs, signs[1:])) == 1

        assert all(one_change(t_inequality(n)) for n in range(2, 61))
        bs = [doubling_bvector(n) for n in range(3, 21)] + [G2_LOWER_B]
        rng = random.Random("one sign change")
        for k in range(50):
            draw = (lambda: rng.randint(1, 40)) if k % 2 else (
                lambda: Fraction(rng.randint(1, 40), rng.randint(1, 12)))
            bs.append([rng.choice((-1, 1)) * draw() for _ in range(rng.randint(2, 9))])
        for b in bs:
            assert all(one_change(p) for p in r_inequalities(b)), b


class TestBounds:
    def test_t0_n2(self):
        bound = compute_t0(2)
        assert bound.bracket.lo <= 2 <= bound.bracket.hi
        assert 2 < bound.safe_value < Fraction(21, 10)

    def test_t0_n4(self):
        bound = compute_t0(4)
        assert 7.7 < float(bound.bracket.lo) and float(bound.bracket.hi) < 7.8

    def test_t0_n7(self):
        bound = compute_t0(7)
        assert 16.5 < float(bound.bracket.lo) and float(bound.bracket.hi) < 16.7
        assert bound.safe_value <= 17

    def test_r0_n4(self):
        bound = compute_r0(doubling_bvector(4))
        assert 0.7 < float(bound.bracket.lo) and float(bound.bracket.hi) < 0.8
        assert bound.safe_value <= 1

    def test_r0_g2(self):
        bound = compute_r0(G2_LOWER_B)
        assert len(bound.polys) == 6
        assert 16.3 < float(bound.bracket.lo) and float(bound.bracket.hi) < 16.5
        assert bound.safe_value <= 17

    def test_s0(self):
        assert S0 == 2

    @pytest.mark.parametrize("n", range(2, 11))
    def test_safe_value_contract(self, n):
        bound = compute_t0(n)
        p = bound.polys[0]
        assert p(bound.safe_value) > 0
        assert p(bound.safe_value + 1) > 0
        assert p(bound.bracket.lo) <= 0
        assert bound.bracket.hi <= bound.safe_value

    def test_second_bound_per_family(self):
        assert second_bound(FAMILY_CORNER, 5) is None
        b = doubling_bvector(4)
        assert second_bound(FAMILY_LOWER, 4, b) == compute_r0(b)
        assert second_bound(FAMILY_G2, 7) == compute_r0(G2_LOWER_B)
        with pytest.raises(ValueError):
            second_bound(FAMILY_LOWER, 4)
        with pytest.raises(ValueError):
            second_bound("double_corner", 5)

    def test_false_certificate_refused(self):
        # (x-1)(x-100)(x-100001/1000) is positive at 1025/1024 and at
        # 1025/1024 + 1 but negative near 100.0005
        p = Polynomial([-10000100, 10200101, -201001, 1000])
        with pytest.raises(ValueError):
            _bound_from_polys("t_bound", [p], DEFAULT_WIDTH)
        with pytest.raises(AssertionError):
            PingPongBound("t_bound", (p,), None, Fraction(1025, 1024))

    # 10 - x^2 is positive at 1/2 and 3/2 but has a negative leading
    # coefficient; x^2 - 4x - 4 is negative at 1/2; the zero polynomial
    @pytest.mark.parametrize("coeffs", [[10, 0, -1], [-4, -4, 1], []])
    def test_witness_refused(self, coeffs):
        with pytest.raises(AssertionError):
            PingPongBound("t_bound", (Polynomial(coeffs),), None, Fraction(1, 2))

    def test_safe_value_dyadic(self):
        for n in (2, 5, 7):
            assert compute_t0(n).safe_value.denominator <= 1024


class TestRegions:
    def test_membership(self):
        assert in_region((5, 1, 1), X1)
        assert in_region((1, 1, 5), X2)
        assert not in_region((1, 1, 5), X1)

    def test_strictness(self):
        assert not in_region((2, 2, 1), X1)

    def test_exact_fractions(self):
        assert in_region((Fraction(-7, 2), 3, 1), X1)


class TestSpotcheck:
    def test_a_direction(self):
        assert pingpong_spotcheck(3, "a", 5, samples=100, seed=1) == []

    def test_b_direction(self):
        assert pingpong_spotcheck(2, "b", 3, samples=100, seed=2) == []

    def test_c_direction(self):
        assert pingpong_spotcheck(4, "c", 2, b=(8, 12, 14), samples=100, seed=3) == []

    def test_refuses_below_bound(self):
        with pytest.raises(ValueError):
            pingpong_spotcheck(2, "b", 2)
        with pytest.raises(ValueError):
            pingpong_spotcheck(3, "a", 3)

    def test_deterministic(self):
        a = pingpong_spotcheck(2, "b", 3, samples=20, seed=9)
        b = pingpong_spotcheck(2, "b", 3, samples=20, seed=9)
        assert a == b


class TestCertify:
    def test_corner_n4_certified(self):
        cert = certify_free_dense(4, FAMILY_CORNER, t=8, second=3)
        assert cert.conclusion == CONCLUSION_FREE_DENSE
        assert cert.type_label.name == "C2"

    def test_corner_below_bounds(self):
        cert = certify_free_dense(4, FAMILY_CORNER, t=1, second=1)
        assert cert.conclusion == CONCLUSION_DENSE_ONLY

    def test_zero_parameter_insufficient(self):
        cert = certify_free_dense(4, FAMILY_CORNER, t=8, second=0)
        assert cert.conclusion == CONCLUSION_INSUFFICIENT

    def test_corner_n5_above_safe(self):
        safe = compute_t0(5).safe_value
        cert = certify_free_dense(5, FAMILY_CORNER, t=safe + 1, second=3)
        assert cert.conclusion == CONCLUSION_FREE_DENSE
        assert cert.type_label.name == "A4"

    def test_lower_n4(self):
        cert = certify_free_dense(4, FAMILY_LOWER, t=9, second=2, b=doubling_bvector(4))
        assert cert.conclusion == CONCLUSION_FREE_DENSE
        assert cert.target.name == "A3"

    def test_g2(self):
        cert = certify_free_dense(7, FAMILY_G2, t=18, second=18)
        assert cert.conclusion == CONCLUSION_FREE_DENSE
        assert cert.closure.dim == 14
        below = certify_free_dense(7, FAMILY_G2, t=18, second=16)
        assert below.conclusion == CONCLUSION_DENSE_ONLY

    def test_monotone_in_parameters(self):
        order = {
            CONCLUSION_INSUFFICIENT: 0,
            CONCLUSION_DENSE_ONLY: 1,
            CONCLUSION_FREE_DENSE: 2,
        }
        last = -1
        for t, s in [(0, 0), (1, 1), (8, 1), (8, 3), (20, 9)]:
            cert = certify_free_dense(4, FAMILY_CORNER, t=t, second=s)
            rank = order[cert.conclusion]
            assert rank >= last
            last = rank

    @pytest.mark.parametrize("n", range(3, 7))
    def test_thin_makes_certify_freeness_test(self, n):
        """A thin pair is certified exactly when certify, at the same t and s,
        concludes free and dense: the corner pair is always dense at t, s != 0."""
        for q in (-3, -2, -1, 1, 2, 3):
            t = math.factorial(n - 1) * q
            for s in (-3, -2, -1, 0, 1, 2, 3, 5):
                cert = certify_free_dense(n, FAMILY_CORNER, t=t, second=s)
                assert thin_pair(n, q, s).certified == (
                    cert.conclusion == CONCLUSION_FREE_DENSE), (q, s)

    @pytest.mark.parametrize("family,n,b", [
        *[(FAMILY_CORNER, n, None) for n in range(3, 9)],
        *[(FAMILY_LOWER, n, doubling_bvector(n)) for n in range(3, 7)],
        (FAMILY_G2, 7, None),
        (FAMILY_LOWER, 4, (13, 11, 13)),
    ])
    def test_density_is_the_named_type_being_the_target(self, family, n, b):
        """A certificate says more than ``insufficient`` exactly when the type
        that ``classify`` names is the family's target and t and x are nonzero;
        the lower pair at b = (13, 11, 13) closes to C2, not to its target A3."""
        for t, x in ((0, 3), (3, 0), (1, 1), (10**4, 10**4)):
            cert = certify_free_dense(n, family, t=t, second=x, b=b)
            named = cert.type_label == cert.target
            assert (cert.conclusion != CONCLUSION_INSUFFICIENT) == (named and t != 0 and x != 0)
        assert named != (b == (13, 11, 13))
        if not named:
            assert cert.type_label.name == "C2" and cert.target.name == "A3"

    def test_freeness_warning_names_the_first_test_that_fails(self):
        t_bound, r_bound = compute_t0(4), compute_r0(doubling_bvector(4))
        t0, r0 = t_bound.safe_value, r_bound.safe_value
        assert freeness_warning(t0, t_bound, 0, r_bound) == (
            f"|t| = {t0} does not exceed the certified bound {t0}")
        assert freeness_warning(-t0 - 1, t_bound, -r0, r_bound) == (
            f"|r| = {r0} does not exceed the certified bound {r0}")
        assert freeness_warning(t0 + 1, t_bound, r0 + 1, r_bound) is None
        assert freeness_warning(t0 + 1, t_bound, -2) == "|s| = 2 does not exceed s0 = 2"
        assert freeness_warning(t0 + 1, t_bound, Fraction(-201, 100)) is None

    def test_validation(self):
        with pytest.raises(TypeError):
            certify_free_dense(4, FAMILY_CORNER, t=8)
        with pytest.raises(ValueError):
            certify_free_dense(6, FAMILY_G2, t=18, second=18)
        with pytest.raises(ValueError):
            certify_free_dense(4, "double_corner", t=8, second=3)
        with pytest.raises(ValueError, match="takes no b-vector"):
            certify_free_dense(4, FAMILY_CORNER, t=9, second=3, b=[1, 2, 3])

    @pytest.mark.parametrize("family,n,b", [(FAMILY_G2, 7, [1, 2]), (FAMILY_CORNER, 4, [0])])
    def test_second_bound_refuses_a_b_vector_the_family_does_not_read(self, family, n, b):
        with pytest.raises(ValueError, match="takes no b-vector"):
            second_bound(family, n, b)

    @pytest.mark.parametrize("call", [
        lambda: certify_free_dense(8, FAMILY_G2, t=20, second=20),
        lambda: second_bound(FAMILY_G2, 8),
    ], ids=["certify_free_dense", "second_bound"])
    def test_g2_at_another_size_names_the_size_rule(self, call):
        """No b-vector was given, so the message is about n, not b."""
        with pytest.raises(ValueError, match="the g2 family lives in dimension 7"):
            call()

    @pytest.mark.parametrize("call, family", [
        (lambda: build_pair(FAMILY_CORNER, None), "corner"),
        (lambda: shift_pair(None), "corner"),
        (lambda: predicted_type(FAMILY_CORNER, None), "corner"),
        (lambda: certify_free_dense(None, FAMILY_CORNER, 8, second=3), "corner"),
        (lambda: second_bound(FAMILY_LOWER, None, [1, 2]), "lower"),
    ], ids=["build_pair", "shift_pair", "predicted_type", "certify_free_dense", "second_bound"])
    def test_omitted_n_names_the_family(self, call, family):
        """Only a family of one size may omit n; every other refuses None with
        the family's name, not a TypeError from comparing None."""
        with pytest.raises(ValueError, match=f"^the {family} family requires n$"):
            call()

    @pytest.mark.parametrize("params", [{}, {"s": 3}, {"s": 3, "r": 3}])
    def test_parameter_names_are_checked_before_any_bound(self, monkeypatch, params):
        def no_bound(*args, **kwargs):
            raise AssertionError("r0 computed for a call that is refused")

        monkeypatch.setattr(pingpong, "compute_r0", no_bound)
        with pytest.raises(TypeError):
            certify_free_dense(40, FAMILY_LOWER, t=1, b=doubling_bvector(40), **params)
