import math
import random
import re
from fractions import Fraction

import pytest

from liegen.closure import (
    classify,
    predicted_type,
    subalgebra_closure,
)
from liegen.exact import Matrix, SpanBasis, bracket
from liegen.generators import (
    FAMILY_CORNER,
    FAMILY_DOUBLE_CORNER,
    FAMILY_G2,
    FAMILY_LOWER,
    build_pair,
    doubling_bvector,
    g2_pair,
    lower_pair,
    lookup_family,
    shift_pair,
)

from paper_oracles import (
    c_shift,
    closed_form_bracket,
    diagram_automorphism,
    flat,
    iterated_bracket,
)


class TestCShift:
    def test_boundaries(self):
        assert c_shift(3, 0) == 1
        assert c_shift(3, 4) == -1
        assert c_shift(3, -1) == 0
        assert c_shift(3, 5) == 0

    def test_pascal_recurrence(self):
        for s in range(13):
            for i in range(-1, s + 3):
                assert c_shift(s, i) + c_shift(s, i - 1) == c_shift(s + 1, i)

    def test_negative_s(self):
        with pytest.raises(ValueError):
            c_shift(-1, 0)


class TestIteratedBracket:
    def test_s0_is_y(self):
        p = shift_pair(3)
        assert iterated_bracket(p.first, p.second, 0) == p.second

    def test_n3_s2(self):
        p = shift_pair(3)
        # oracle: two explicit brackets
        expected = bracket(p.first, bracket(p.first, p.second))
        assert expected == Matrix.from_units(3, [(1, 1, 1), (2, 2, -2), (3, 3, 1)])
        assert iterated_bracket(p.first, p.second, 2) == expected

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_ad_nilpotent(self, n):
        p = shift_pair(n)
        assert iterated_bracket(p.first, p.second, 2 * n - 1).is_zero()


class TestClosedFormBracket:
    def test_corner_small(self):
        assert closed_form_bracket(3, 1, FAMILY_CORNER) == Matrix.from_units(
            3, [(2, 1, 1), (3, 2, -1)]
        )

    def test_double_corner_h0(self):
        assert closed_form_bracket(4, 2, FAMILY_DOUBLE_CORNER) == Matrix.from_units(
            4, [(1, 1, 1), (2, 2, -1), (3, 3, -1), (4, 4, 1)]
        )

    @pytest.mark.parametrize("n", range(3, 11))
    def test_vanishes_at_2n_minus_1_corner(self, n):
        assert closed_form_bracket(n, 2 * n - 1, FAMILY_CORNER).is_zero()

    @pytest.mark.parametrize("variant, n", [(FAMILY_CORNER, n) for n in range(3, 11)]
                             + [(FAMILY_DOUBLE_CORNER, n) for n in range(4, 11)])
    def test_matches_iterated(self, n, variant):
        p = shift_pair(n, variant)
        for s in range(0, 2 * n + 1):
            assert closed_form_bracket(n, s, variant) == iterated_bracket(
                p.first, p.second, s
            ), (n, s, variant)

    def test_s_out_of_range(self):
        with pytest.raises(ValueError):
            closed_form_bracket(4, 9, FAMILY_CORNER)


class TestClosure:
    def test_sl2(self):
        res = subalgebra_closure([Matrix.unit(2, 1, 2), Matrix.unit(2, 2, 1)])
        assert res.dim == 3

    def test_corner_n3(self):
        p = shift_pair(3)
        assert subalgebra_closure([p.first, p.second]).dim == 8

    def test_corner_n4(self):
        p = shift_pair(4)
        assert subalgebra_closure([p.first, p.second]).dim == 10

    def test_closed_under_bracket(self):
        p = shift_pair(4)
        res = subalgebra_closure([p.first, p.second])
        mats = res.basis.matrices()
        ref = ReferenceSpan(p.n)
        assert all(ref.insert(m) for m in mats)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert not ref.insert(bracket(mats[i], mats[j]))

    def test_deterministic(self):
        p = shift_pair(5)
        a = subalgebra_closure([p.first, p.second])
        b = subalgebra_closure([p.first, p.second])
        assert a.basis.matrices() == b.basis.matrices()
        assert a.rounds == b.rounds

    def test_empty_seed(self):
        with pytest.raises(ValueError):
            subalgebra_closure([])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            subalgebra_closure([Matrix.identity(2), Matrix.identity(3)])

    @pytest.mark.parametrize("n", range(3, 7))
    def test_doubling_lower_generates_sl(self, n):
        p = lower_pair(doubling_bvector(n))
        assert subalgebra_closure([p.first, p.second]).dim == n * n - 1

    @pytest.mark.parametrize("n", range(3, 7))
    def test_lowest_root_generation(self, n):
        seed = [Matrix.unit(n, i, i + 1) for i in range(1, n)]
        seed.append(Matrix.unit(n, n, 1))
        assert subalgebra_closure(seed).dim == n * n - 1

    def test_g2_pair_dim(self):
        p = g2_pair()
        assert subalgebra_closure([p.first, p.second]).dim == 14

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_fixed_subalgebra_dims(self, n):
        sb = SpanBasis(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                e = Matrix.unit(n, i, j)
                sym = e + diagram_automorphism(e)
                sb.insert_flat(flat(sym))
        m = n // 2
        assert sb.rank == m * (2 * m + 1)


# The type lookup and the families' target dimensions as written before the
# type table, kept here as an oracle for it: each dimension by its formula.
def formula_type(n, dim):
    if dim == n * n:
        return ("full_matrix_algebra", None, dim)
    if dim == 0:
        return ("unrecognized", None, dim)
    if dim == n * n - 1:
        return ("A", n - 1, dim)
    if n == 7 and dim == 14:
        return ("G2", 2, dim)
    if n % 2 == 0:
        m = n // 2
        if dim == m * (2 * m + 1):
            return ("C", m, dim)
    else:
        m = (n - 1) // 2
        if dim == m * (2 * m + 1):
            return ("B", m, dim)
    return ("unrecognized", None, dim)


TARGET_DIMS = {
    FAMILY_CORNER: lambda n: n * (n + 1) // 2 if n % 2 == 0 else n * n - 1,
    FAMILY_DOUBLE_CORNER: lambda n: n * n - 1 if n % 2 == 0 else 14 if n == 7 else n * (n - 1) // 2,
    FAMILY_LOWER: lambda n: n * n - 1,
    FAMILY_G2: lambda n: 14,
}


class TestClassify:
    def test_lookup(self):
        assert classify(5, 24).name == "A4"
        assert classify(6, 21).name == "C3"
        assert classify(7, 14).name == "G2"
        assert classify(7, 21).name == "B3"
        assert classify(2, 3).name == "A1"  # A before C1, which has the same dimension
        assert classify(3, 9).family == "full_matrix_algebra"
        assert classify(5, 17).family == "unrecognized"
        assert classify(1, 0).family == "unrecognized"

    def test_predicted(self):
        assert predicted_type(FAMILY_CORNER, 8).name == "C4"
        assert predicted_type(FAMILY_CORNER, 9).name == "A8"
        assert predicted_type(FAMILY_DOUBLE_CORNER, 9).name == "B4"
        assert predicted_type(FAMILY_DOUBLE_CORNER, 7).name == "G2"
        assert predicted_type(FAMILY_DOUBLE_CORNER, 6).name == "A5"
        assert predicted_type(FAMILY_G2, 7).name == "G2"
        assert predicted_type(FAMILY_G2, None).name == "G2"  # G2 fixes its own n
        assert predicted_type(FAMILY_LOWER, 5).name == "A4"
        with pytest.raises(ValueError):
            predicted_type(FAMILY_CORNER, 2)
        with pytest.raises(ValueError):
            predicted_type(FAMILY_G2, 8)

    def test_lookup_matches_the_dimension_formulas(self):
        for n in range(1, 41):
            for dim in range(n * n + 1):
                assert classify(n, dim) == formula_type(n, dim), (n, dim)

    @pytest.mark.parametrize("family", sorted(TARGET_DIMS))
    def test_predicted_matches_the_target_dimensions(self, family):
        """The family's target type against the lookup of its target dimension,
        or the same ValueError where the pair does not exist."""
        for n in ([None] if family == FAMILY_G2 else []) + list(range(1, 41)):
            try:
                size = lookup_family(family).check(n)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    predicted_type(family, n)
                continue
            assert predicted_type(family, n) == formula_type(size, TARGET_DIMS[family](size))

    @pytest.mark.parametrize(
        "family,ns",
        [
            (FAMILY_CORNER, range(3, 17)),
            (FAMILY_DOUBLE_CORNER, range(4, 17)),
            (FAMILY_LOWER, range(3, 8)),  # the doubling b-vector
            (FAMILY_G2, [7]),
        ],
    )
    def test_classify_matches_prediction(self, family, ns):
        """The family table's target dimension against the closure itself."""
        for n in ns:
            b = doubling_bvector(n) if family == FAMILY_LOWER else None
            p = build_pair(family, n, b)
            res = subalgebra_closure([p.first, p.second])
            assert classify(n, res.dim) == predicted_type(family, n)


# ---------------------------------------------------------------- reference closure
#
# A test-local oracle that shares no code with SpanBasis or the sparse integer
# bracket: the full pairwise sweep (every pair of the spanning set rebracketed
# in every round) on dense Fraction matrices, with its own Fraction row
# reduction.  Its echelon rows are scaled to primitive integer rows with a
# positive pivot, which is the canonical form SpanBasis promises.  The round
# count has its own oracle, the filtration by bracket length in
# ``reference_rounds``.


class ReferenceSpan:
    """Reduced row echelon basis over Fraction, each pivot equal to 1."""

    def __init__(self, n):
        self.n = n
        self.rows = {}  # pivot -> dense row of length n^2

    def insert_vector(self, v):
        v = [Fraction(x) for x in v]
        for p, row in self.rows.items():
            if v[p]:
                c = v[p]
                v = [a - c * b if b else a for a, b in zip(v, row)]
        piv = next((k for k, x in enumerate(v) if x), None)
        if piv is None:
            return False
        v = [x / v[piv] for x in v]
        for p, row in self.rows.items():
            if row[piv]:
                c = row[piv]
                self.rows[p] = [a - c * b if b else a for a, b in zip(row, v)]
        self.rows[piv] = v
        return True

    def insert(self, m):
        return self.insert_vector(m.flatten())

    def matrices(self):
        n = self.n
        out = []
        for p in sorted(self.rows):
            row = self.rows[p]
            den = math.lcm(*(x.denominator for x in row))
            ints = [int(x * den) for x in row]
            g = math.gcd(*ints)
            out.append(Matrix([[x // g for x in ints[i * n : (i + 1) * n]]
                               for i in range(n)]))
        return out


def reference_closure(seed):
    """Basis of the full pairwise sweep, repeated until a round adds nothing.

    Brackets are memoized by pair (the spanning list only grows), which
    saves arithmetic but inserts every pair's bracket again in every round.
    """
    n = seed[0].n
    basis = ReferenceSpan(n)
    spanning = [m for m in seed if basis.insert(m)]
    brackets = {}
    while len(basis.rows) < n * n:
        snapshot = list(spanning)
        added = False
        for i in range(len(snapshot)):
            for j in range(i + 1, len(snapshot)):
                if (i, j) not in brackets:
                    brackets[i, j] = bracket(snapshot[i], snapshot[j])
                c = brackets[i, j]
                if basis.insert(c):
                    spanning.append(c)
                    added = True
        if not added:
            break
    return basis


def flat_bracket(a, b, n):
    """ab - ba of two n x n matrices given as flat row-major lists."""
    out = [0] * (n * n)
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for ik, u in enumerate(x):
            if u:
                i, k = divmod(ik, n)
                for j, w in enumerate(y[k * n : (k + 1) * n]):
                    if w:
                        out[i * n + j] += sign * u * w
    return out


def reference_rounds(seed):
    """Rounds of the filtration F_0 = span(seed), F_r = F_{r-1} + sum over
    seeds s of [s, F_{r-1}], each round bracketing the full basis of F_{r-1}.

    It stops as ``subalgebra_closure`` does: at gl(n), or after a round that
    adds nothing, which is counted.
    """
    n = seed[0].n
    gens = [m.flatten() for m in seed]
    span = ReferenceSpan(n)
    for g in gens:
        span.insert_vector(g)
    rounds = 0
    while len(span.rows) < n * n:
        rounds += 1
        grown = False
        for v in list(span.rows.values()):
            for g in gens:
                grown |= span.insert_vector(flat_bracket(g, v, n))
        if not grown:
            break
    return rounds


def assert_matches_reference(seed):
    res = subalgebra_closure(seed)
    ref = reference_closure(seed)
    assert res.dim == len(ref.rows)
    assert res.basis.matrices() == ref.matrices()
    assert res.rounds == reference_rounds(seed)


def random_rational_matrix(rng, n):
    return Matrix(
        [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.5 else 0
             for _ in range(n)]
            for _ in range(n)
        ]
    )


class TestClosureMatchesReference:
    @pytest.mark.parametrize(
        "family,n",
        [(FAMILY_CORNER, n) for n in range(3, 8)]
        + [(FAMILY_DOUBLE_CORNER, n) for n in range(4, 8)],
    )
    def test_shift_pairs(self, family, n):
        p = shift_pair(n, family)
        assert_matches_reference([p.first, p.second])

    def test_g2(self):
        p = g2_pair()
        assert_matches_reference([p.first, p.second])

    @pytest.mark.parametrize("n", range(3, 7))
    def test_doubling_lower(self, n):
        p = lower_pair(doubling_bvector(n))
        assert_matches_reference([p.first, p.second])

    @pytest.mark.parametrize("k", range(10))
    def test_random_lower(self, k):
        rng = random.Random(100 + k)
        n = rng.randint(3, 5)
        b = tuple(rng.choice([x for x in range(-30, 31) if x]) for _ in range(n - 1))
        p = lower_pair(b)
        assert_matches_reference([p.first, p.second])

    @pytest.mark.parametrize("k", range(10))
    def test_random_rational_seeds(self, k):
        """Not homogeneous under the principal grading; some third seed
        matrices lie in the span of the first two."""
        rng = random.Random(200 + k)
        n = 3 + k % 2
        seed = [random_rational_matrix(rng, n) for _ in range(2)]
        if k % 3 == 1:
            seed.append(random_rational_matrix(rng, n))
        elif k % 3 == 2:
            seed.append(Fraction(rng.randint(1, 5), 2) * seed[0] - seed[1])
        assert_matches_reference(seed)


class TestSpanBasisMatchesReference:
    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("form", ["dense", "sparse"])
    def test_random_insert_sequences(self, k, form):
        rng = random.Random(300 + k)
        n = 2 + k % 3
        size = n * n
        basis, ref = SpanBasis(n), ReferenceSpan(n)
        seen = []
        for _ in range(3 * size):
            if seen and rng.random() < 0.3:  # an integer combination of earlier rows
                ws = rng.sample(seen, min(2, len(seen)))
                cs = [rng.randint(-3, 3) for _ in ws]
                v = [sum(c * w[i] for c, w in zip(cs, ws)) for i in range(size)]
            else:
                v = [rng.randint(-20, 20) if rng.random() < 0.3 else 0 for _ in range(size)]
            seen.append(v)
            # a dense row lists every index, its zeros included
            arg = {i: x for i, x in enumerate(v) if x or form == "dense"}
            assert basis.insert_flat(arg) == ref.insert_vector(v)
            assert basis.rank == len(ref.rows)
            assert basis.matrices() == ref.matrices()
        # membership: a matrix of the span leaves both ranks as they are
        mats = ref.matrices()
        inside = mats[0] - Fraction(3, 2) * mats[-1]
        assert not basis.insert_flat(flat(inside)) and not ref.insert(inside)
        probe = random_rational_matrix(rng, n)
        assert basis.insert_flat(flat(probe)) == ref.insert(probe)
        assert basis.matrices() == ref.matrices()
