import random
from fractions import Fraction

import pytest

from liegen.exact import Matrix, bracket
from liegen.generators import (
    FAMILY_CORNER,
    FAMILY_DOUBLE_CORNER,
    FAMILY_G2,
    FAMILY_LOWER,
    G2_LOWER_B,
    build_pair,
    bvector,
    doubling_bvector,
    g2_pair,
    lower_coefficients,
    lower_pair,
    prop2_criterion,
    shift_pair,
    shift_matrix,
    type_a_cartan,
)

from paper_oracles import (
    G2_CARTAN,
    diagram_automorphism,
    g2_pieces,
    g2_relation_failures,
    power,
    prop1_criterion,
)
from test_exact import rand_matrix


class TestShiftPair:
    def test_corner_n3(self):
        p = shift_pair(3, FAMILY_CORNER)
        assert p.first == Matrix.unit(3, 1, 2) + Matrix.unit(3, 2, 3)
        assert p.second == Matrix.unit(3, 3, 1)

    def test_double_corner_n4(self):
        p = shift_pair(4, FAMILY_DOUBLE_CORNER)
        assert p.second == Matrix.unit(4, 3, 1) + Matrix.unit(4, 4, 2)

    def test_too_small(self):
        with pytest.raises(ValueError):
            shift_pair(2, FAMILY_CORNER)
        with pytest.raises(ValueError):
            shift_pair(3, FAMILY_DOUBLE_CORNER)

    def test_family_without_a_shift_pair_refused(self):
        with pytest.raises(ValueError, match="unknown shift family 'lower_bidiagonal'"):
            shift_pair(4, FAMILY_LOWER)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_members_nilpotent(self, n):
        for family in (FAMILY_CORNER, FAMILY_DOUBLE_CORNER):
            if family == FAMILY_DOUBLE_CORNER and n < 4:
                continue
            p = shift_pair(n, family)
            assert power(p.first, n).is_zero()
            assert power(p.second, n).is_zero()


class TestLowerPair:
    def test_explicit(self):
        p = lower_pair((8, 12, 14))
        expected = Matrix.from_units(4, [(2, 1, 8), (3, 2, 12), (4, 3, 14)])
        assert p.second == expected
        assert p.first == shift_matrix(4)

    def test_trivial(self):
        p = lower_pair((1, 1))
        assert p.second == Matrix.unit(3, 2, 1) + Matrix.unit(3, 3, 2)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            lower_pair((1, 0, 1))


class TestLowerCoefficients:
    def test_ints_stay_ints(self):
        # the type it is given: ints give only ints, equal to the Fraction table
        rng = random.Random(23)
        for n in range(2, 12):
            b = [rng.choice((-1, 1)) * rng.randint(1, 30) for _ in range(n - 1)]
            c = lower_coefficients(b)
            assert all(type(x) is int for row in c for x in row)
            assert c == lower_coefficients([Fraction(x) for x in b])


class TestBVector:
    def test_exact_values(self):
        b = bvector([8, Fraction(-1, 2), 14], 4)
        assert b == (8, Fraction(-1, 2), 14)
        assert all(isinstance(x, Fraction) for x in b)

    @pytest.mark.parametrize("b,message", [
        (None, "length"),
        ((1, 2), "length"),
        ((1, 2, 3, 4), "length"),
        ((1, 0, 3), "nonzero"),
    ])
    def test_rejects(self, b, message):
        with pytest.raises(ValueError, match=message):
            bvector(b, 4)


class TestBuildPair:
    def test_each_family(self):
        assert build_pair(FAMILY_CORNER, 5) == shift_pair(5, FAMILY_CORNER)
        assert build_pair(FAMILY_DOUBLE_CORNER, 5) == shift_pair(5, FAMILY_DOUBLE_CORNER)
        assert build_pair(FAMILY_LOWER, 4, (8, 12, 14)) == lower_pair((8, 12, 14))
        assert build_pair(FAMILY_G2, 7) == g2_pair()

    @pytest.mark.parametrize("family,n,b", [
        (FAMILY_G2, 5, None),
        (FAMILY_LOWER, 4, None),
        (FAMILY_LOWER, 4, (1, 2)),
        ("unknown", 4, None),
        # a b-vector that the family does not read
        (FAMILY_CORNER, 4, (1, 2, 3)),
        (FAMILY_DOUBLE_CORNER, 4, (1, 2, 3)),
        (FAMILY_G2, 7, G2_LOWER_B),
    ])
    def test_rejects(self, family, n, b):
        with pytest.raises(ValueError):
            build_pair(family, n, b)


class TestDoublingBVector:
    def test_n4(self):
        assert doubling_bvector(4) == (8, 12, 14)

    def test_n3_and_n5(self):
        # direct evaluation of b_i = sum_{j<=i} 2^{n-j}
        assert doubling_bvector(3) == (4, 6)
        assert doubling_bvector(5) == (16, 24, 28, 30)


class TestG2:
    def test_pair_matches_shift(self):
        p = g2_pair()
        assert p.first == shift_matrix(7)
        assert p.second[4, 3] == 2
        assert power(p.first, 7).is_zero() and power(p.second, 7).is_zero()

    def test_pair_is_the_lower_pair_at_g2_lower_b(self):
        p, lower = g2_pair(), lower_pair(G2_LOWER_B)
        assert p.first == lower.first == shift_matrix(7)
        assert p.second == lower.second
        assert p.family == "g2_7x7" and p.b is None

    def test_canonical_relations(self):
        assert g2_relation_failures() == []
        x1, x2, y1, y2 = g2_pieces()
        h1, h2 = bracket(x1, y1), bracket(x2, y2)
        assert bracket(x1, y2).is_zero() and bracket(x2, y1).is_zero()
        assert bracket(h1, x2) == -1 * x2  # C(2,1) = -1
        assert bracket(h1, h2).is_zero()


class TestDiagramAutomorphism:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_fixes_shift(self, n):
        x = shift_matrix(n)
        assert diagram_automorphism(x) == x

    @pytest.mark.parametrize("n", range(3, 9))
    def test_corner_sign(self, n):
        y = Matrix.unit(n, n, 1)
        image = diagram_automorphism(y)
        assert image == ((-1) ** n) * y
        assert (image == y) == (n % 2 == 0)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_double_corner_fixed_iff_odd(self, n):
        y = Matrix.unit(n, n - 1, 1) + Matrix.unit(n, n, 2)
        assert (diagram_automorphism(y) == y) == (n % 2 == 1)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_involution_and_bracket_preserving(self, n):
        rng = random.Random(100 + n)
        for _ in range(100):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            assert diagram_automorphism(diagram_automorphism(a)) == a
            assert diagram_automorphism(bracket(a, b)) == bracket(
                diagram_automorphism(a), diagram_automorphism(b)
            )


class TestCriteria:
    def test_prop2_g2(self):
        res = prop2_criterion(G2_CARTAN, (-1, 1))
        assert res.holds and res.values == (-5, 3)

    def test_prop2_a3(self):
        res = prop2_criterion(type_a_cartan(3), (8, 12, 14))
        assert res.holds and res.values == (4, 2, 16)

    def test_prop2_zero_value_fails(self):
        # A_2 Cartan maps (1, 2) to (0, 3): a zero coordinate collides with itself
        res = prop2_criterion(type_a_cartan(2), (1, 2))
        assert not res.holds and res.values[0] == 0

    @pytest.mark.parametrize("n", range(3, 11))
    def test_prop2_doubling(self, n):
        assert prop2_criterion(type_a_cartan(n - 1), doubling_bvector(n)).holds

    def test_prop2_validation(self):
        with pytest.raises(ValueError):
            prop2_criterion(type_a_cartan(3), (1, 2))
        with pytest.raises(ValueError):
            prop2_criterion(type_a_cartan(2), (1, 0))
        with pytest.raises(ValueError, match="Cartan matrix must be square"):
            prop2_criterion([[2, -1]], [1, 2])

    def test_prop1(self):
        h = Matrix([[3, 0, 0], [0, 1, 0], [0, 0, -4]])
        res = prop1_criterion(h)
        assert res.holds and res.values == (2, 5)

    def test_prop1_collision(self):
        h = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, -1]])
        assert not prop1_criterion(h).holds

    def test_prop1_n2(self):
        assert prop1_criterion(Matrix([[1, 0], [0, -1]])).holds

    def test_prop1_validation(self):
        with pytest.raises(ValueError):
            prop1_criterion(Matrix([[0, 1], [0, 0]]))
        with pytest.raises(ValueError):
            prop1_criterion(Matrix([[1, 0], [0, 0]]))
