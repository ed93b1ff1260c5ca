import random
from fractions import Fraction

import pytest

from liegen import groups
from liegen.exact import Matrix
from liegen.generators import FAMILY_DOUBLE_CORNER, shift_matrix, shift_pair, lower_pair
from liegen.groups import exp_corner, exp_lower, exp_upper, freeness_scan, thin_pair

from paper_oracles import (
    check_form,
    det,
    diagram_automorphism,
    exp_nilpotent,
    form_conjugate,
    form_matrix,
    power,
    transpose,
    word_eval,
)


def rand_rational(rng, span=10):
    num = rng.randint(-span, span)
    return Fraction(num if num else 1, rng.randint(1, 5))


class TestExponentials:
    def test_upper_2x2(self):
        assert exp_upper(3, 2) == Matrix([[1, 3], [0, 1]])

    def test_upper_row1_n4(self):
        t = Fraction(5, 3)
        g = exp_upper(t, 4)
        assert [g[1, j] for j in range(1, 5)] == [1, t, t**2 / 2, t**3 / 6]

    def test_upper_identity_at_zero(self):
        assert exp_upper(0, 5) == Matrix.identity(5)

    def test_corner(self):
        assert exp_corner(3, 2) == Matrix([[1, 0], [3, 1]])
        assert exp_corner(0, 4) == Matrix.identity(4)

    def test_corner_one_parameter(self):
        s, s2 = Fraction(5, 7), Fraction(-3)
        assert (
            exp_corner(s, 3) * exp_corner(s2, 3)
            == exp_corner(s + s2, 3)
        )

    def test_lower_paper_b(self):
        r = Fraction(2, 5)
        g = exp_lower(r, (8, 12, 14))
        assert [g[4, j] for j in range(1, 5)] == [224 * r**3, 84 * r**2, 14 * r, 1]
        assert g[3, 1] == 48 * r**2

    def test_lower_one_parameter(self):
        rng = random.Random(11)
        b = (8, 12, 14)
        for _ in range(5):
            r, r2 = rand_rational(rng), rand_rational(rng)
            assert (
                exp_lower(r, b) * exp_lower(r2, b)
                == exp_lower(r + r2, b)
            )

    @pytest.mark.parametrize("build", [
        lambda: exp_upper(3, 2),
        lambda: exp_upper(Fraction(5, 3), 4),
        lambda: exp_upper(Fraction(-7, 2), 5),
        lambda: exp_lower(2, (8, 12, 14)),
        lambda: exp_lower(Fraction(2, 5), (Fraction(1, 2), 3)),
        lambda: exp_lower(Fraction(-3, 4), (Fraction(-2, 3), Fraction(5, 2), 1)),
    ], ids=["upper-int-n2", "upper-fraction", "upper-negative", "lower-int",
            "lower-rational-b", "lower-negative"])
    def test_unchecked_rows_match_the_checked_constructor(self, build):
        """exp_upper and exp_lower build through Matrix._of, which skips the
        entry check: their rows must be Fractions that the constructor keeps."""
        m = build()
        assert all(type(x) is Fraction for x in m.flatten())
        assert m == Matrix(m.rows) and hash(m) == hash(Matrix(m.rows))

    def test_lower_rejects_zero_b(self):
        with pytest.raises(ValueError):
            exp_lower(1, (1, 0))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_nilpotent_series_agrees(self, n):
        rng = random.Random(n)
        t = rand_rational(rng)
        assert exp_nilpotent(shift_matrix(n), t) == exp_upper(t, n)
        assert (
            exp_nilpotent(Matrix.unit(n, n, 1), t) == exp_corner(t, n)
        )
        if n >= 3:
            p = lower_pair(tuple(range(1, n)))
            assert exp_nilpotent(p.second, t) == exp_lower(t, p.b)

    def test_nilpotent_rejects_invertible(self):
        with pytest.raises(ValueError):
            exp_nilpotent(Matrix.identity(2), 1)

    def test_determinant_one(self):
        rng = random.Random(5)
        for _ in range(5):
            t = rand_rational(rng)
            assert det(exp_upper(t, 4)) == 1
            assert det(exp_corner(t, 4)) == 1
            assert det(exp_lower(t, (8, 12, 14))) == 1

    def test_power_law(self):
        t = Fraction(7, 4)
        powered = lambda m: exp_upper(m * t, 3)
        for m in range(1, 6):
            assert powered(m) == power(exp_upper(t, 3), m)
            assert powered(-m) * powered(m) == Matrix.identity(3)


class TestWord:
    """Words are tuples of syllables (symbol, exponent), multiplied out by the oracle."""

    def test_empty_word_is_identity(self):
        gen_a = lambda m: exp_upper(m * 3, 2)
        gen_b = lambda m: exp_corner(m * 3, 2)
        assert word_eval((), gen_a, gen_b) == Matrix.identity(2)

    def test_commutator_nontrivial(self):
        gen_a = lambda m: exp_upper(m * 3, 2)
        gen_b = lambda m: exp_corner(m * 3, 2)
        w = (("A", 1), ("B", 1), ("A", -1), ("B", -1))
        assert word_eval(w, gen_a, gen_b) != Matrix.identity(2)

    def test_generic_power_matches_parameter_scaling(self):
        g = exp_upper(Fraction(3, 2), 3)
        for m in (-3, -1, 0, 2, 4):
            scaled = exp_upper(Fraction(3, 2) * m, 3)
            if m >= 0:
                assert power(g, m) == scaled
            else:  # g^{-m} exp((3/2) m x) = I: the scaled matrix inverts g^{-m}
                assert power(g, -m) * scaled == Matrix.identity(3)


class TestFreenessScan:
    def test_single_syllable_never_identity(self):
        rep = freeness_scan(2, t=3, second=3, max_syllables=1, max_exponent=3)
        assert rep.words_checked == 12
        assert rep.clean

    def test_small_clean(self):
        rep = freeness_scan(2, t=Fraction(5, 2), second=Fraction(5, 2),
                            max_syllables=4, max_exponent=2)
        assert rep.clean

    def test_collision_detected(self):
        # B A^-1 B A B^-1 A evaluates to the identity at t = s = 1
        rep = freeness_scan(2, t=1, second=1, max_syllables=6, max_exponent=1)
        assert not rep.clean
        gen_a = lambda m: exp_upper(m, 2)
        gen_b = lambda m: exp_corner(m, 2)
        for w in rep.collisions:
            assert word_eval(w, gen_a, gen_b) == Matrix.identity(2)

    # t s = 1 and t s = 2 at n = 2: scans with 36 and 12 collisions, whose
    # syllable tuples must be words the scan built reduced
    COLLIDING = [dict(t=1, second=1), dict(t=1, second=2)]

    @pytest.mark.parametrize("params", COLLIDING, ids=["ts1", "ts2"])
    def test_collisions_have_no_zero_exponent(self, params):
        rep = freeness_scan(2, **params, max_syllables=6, max_exponent=2)
        assert rep.collisions
        assert all(0 < abs(e) <= 2 for w in rep.collisions for _, e in w)

    @pytest.mark.parametrize("params", COLLIDING, ids=["ts1", "ts2"])
    def test_collisions_are_reduced(self, params):
        rep = freeness_scan(2, **params, max_syllables=6, max_exponent=2)
        assert rep.collisions
        for w in rep.collisions:
            assert type(w) is tuple and 1 <= len(w) <= 6
            assert all(a[0] != b[0] for a, b in zip(w, w[1:]))

    @pytest.mark.parametrize("params", COLLIDING, ids=["ts1", "ts2"])
    def test_collisions_use_only_known_symbols(self, params):
        rep = freeness_scan(2, **params, max_syllables=6, max_exponent=2)
        assert rep.collisions
        assert {g for w in rep.collisions for g, _ in w} == {"A", "B"}

    def test_lower_variant(self):
        rep = freeness_scan(4, t=8, second=2, b=(8, 12, 14),
                            max_syllables=3, max_exponent=1)
        assert rep.clean

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            freeness_scan(2, t=1, second=1, max_syllables=0, max_exponent=1)

    @pytest.mark.parametrize("t, s, lam, max_exp, hits", [
        (1, 1, Fraction(1, 2), 2, 304),
        (1, 1, Fraction(5, 3), 2, 304),
        (1, 3, Fraction(1, 3), 1, 4),
        (1, 3, 2, 1, 4),
        (1, 3, Fraction(3, 2), 1, 4),
    ])
    def test_torus_conjugation_leaves_the_scan_unchanged(self, t, s, lam, max_exp, hits):
        """D = diag(1/lam, 1/lam^2) takes a(t) to a(lam t) and b(s) to b(s/lam)
        at n = 2, so both pairs have the same identity words; the products
        differ and have denominators 2, 3, 5 and 9."""
        rep = freeness_scan(2, t, s, max_syllables=8, max_exponent=max_exp)
        conj = freeness_scan(2, lam * t, Fraction(s) / lam, max_syllables=8, max_exponent=max_exp)
        assert len(rep.collisions) == hits
        assert conj.collisions == rep.collisions

    def test_work_cap_counts_the_half_words(self, monkeypatch):
        """L = 4 and L = 3 at E = 2 need 2 (4 + 16) = 40 half-words, L = 5 needs 168."""
        monkeypatch.setattr(groups, "MAX_HALF_WORDS", 40)
        for syll in (3, 4):
            assert freeness_scan(2, t=1, second=1, max_syllables=syll, max_exponent=2).clean
        with pytest.raises(ValueError, match="work cap of 40 half-words"):
            freeness_scan(2, t=1, second=1, max_syllables=5, max_exponent=2)

    def test_huge_scans_are_refused_at_once(self):
        with pytest.raises(ValueError, match="work cap"):
            freeness_scan(2, t=1, second=1, max_syllables=10**6, max_exponent=10**6)

    @pytest.mark.parametrize("b", [(1,), (1, 2, 3)], ids=["b1", "b2"])
    def test_lower_scan_without_a_fitting_b_vector_raises(self, b):
        """A ValueError, not an assertion that ``python -O`` would strip."""
        with pytest.raises(ValueError, match="b-vector"):
            freeness_scan(3, 5, 3, b, max_syllables=4, max_exponent=2)


def depth_first_scan(n, t, second, b=None, max_syllables=4, max_exponent=2):
    """Word count and identity hits of a scan that multiplies out every
    reduced word, depth first: the reference for ``freeness_scan``."""
    gen_a = lambda m: exp_upper(m * t, n)
    if b is None:
        gen_b = lambda m: exp_corner(m * second, n)
    else:
        gen_b = lambda m: exp_lower(m * second, b)
    exponents = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]
    mats = {(g, e): gen(e) for g, gen in (("A", gen_a), ("B", gen_b)) for e in exponents}
    identity = Matrix.identity(n)
    hits = []
    checked = 0

    def descend(prod, gen, remaining, prefix):
        nonlocal checked
        for e in exponents:
            checked += 1
            here = prod * mats[(gen, e)]
            syls = prefix + [(gen, e)]
            if here == identity:
                hits.append(tuple(syls))
            if remaining > 1:
                descend(here, "B" if gen == "A" else "A", remaining - 1, syls)

    for start in ("A", "B"):
        descend(identity, start, max_syllables, [])
    return checked, hits


SMALL = [Fraction(p, q) for p in (1, 2, 3) for q in (1, 2)]


def random_scan_case(rng):
    """n, and the keyword arguments of a scan: a third are lower scans with a
    rational b-vector, and a third of the n = 2 cases are corner scans with
    t s in {+-1, +-2}, where short reduced words hit the identity.  At n = 4
    the words have at most 4 syllables, so that the reference stays fast."""
    def small():
        return rng.choice(SMALL) * rng.choice((1, -1))

    n = rng.choice((2, 3, 4))
    kwargs = {"t": small(), "max_syllables": rng.randint(1, 6 if n < 4 else 4),
              "max_exponent": rng.randint(1, 2)}
    kind = rng.random()
    if kind < 1 / 3:
        kwargs["second"] = small()
        kwargs["b"] = tuple(small() for _ in range(n - 1))
    elif n == 2 and kind < 2 / 3:
        kwargs["second"] = rng.choice((1, -1, 2, -2)) / kwargs["t"]
    else:
        kwargs["second"] = small()
    return n, kwargs


class TestScanAgainstDepthFirst:
    @pytest.mark.parametrize("seed", range(48))
    def test_same_collisions_in_the_same_order(self, seed):
        n, kwargs = random_scan_case(random.Random(seed))
        checked, hits = depth_first_scan(n, **kwargs)
        rep = freeness_scan(n, **kwargs)
        assert rep.words_checked == checked
        assert rep.collisions == hits

    def test_cases_include_many_collisions(self):
        """The comparison above sees several scans with many hits, so it pins
        the join condition and the order, not only clean scans."""
        counts = []
        for seed in range(48):
            n, kwargs = random_scan_case(random.Random(seed))
            counts.append(len(freeness_scan(n, **kwargs).collisions))
        assert sum(counts) >= 50 and sum(c > 1 for c in counts) >= 2

    def test_cases_cover_every_size_and_generator(self):
        """Corner scans and lower scans with a non-integer b-vector at each of
        n = 2, 3 and 4, so the comparison above sees every syllable shape."""
        seen = set()
        for seed in range(48):
            n, kwargs = random_scan_case(random.Random(seed))
            if "b" not in kwargs:
                seen.add((n, "s"))
            elif any(x.denominator > 1 for x in kwargs["b"]):
                seen.add((n, "r"))
        assert seen == {(n, g) for n in (2, 3, 4) for g in "rs"}

    @pytest.mark.parametrize("n, kwargs", [
        (2, dict(t=0, second=1)),
        (3, dict(t=Fraction(1, 2), second=0)),
        (3, dict(t=0, second=Fraction(-2, 3), b=(1, Fraction(1, 2)))),
        (4, dict(t=Fraction(3, 2), second=0, b=(1, -2, 3))),
    ], ids=["t0-corner", "s0", "t0-lower", "r0"])
    def test_zero_parameters(self, n, kwargs):
        """The draws above are never 0.  At 0 a generator's syllables are the
        identity: g - I has no nonzero column, every product keeps P's
        entries, and every word of that generator alone is a collision."""
        checked, hits = depth_first_scan(n, **kwargs, max_syllables=5)
        rep = freeness_scan(n, **kwargs, max_syllables=5, max_exponent=2)
        assert rep.words_checked == checked
        assert rep.collisions == hits
        zero = "A" if kwargs["t"] == 0 else "B"
        assert {((zero, e),) for e in (-2, -1, 1, 2)} <= set(hits)

    def test_lower_scan_at_n_5_with_an_integer_b_vector(self):
        """The draws above stop at n = 4 and the wider scans take a rational
        b-vector; c(r) of the doubling vector has integer entries at r = 1."""
        kwargs = dict(t=Fraction(1, 2), second=1, b=(16, 24, 28, 30), max_syllables=4,
                      max_exponent=2)
        checked, hits = depth_first_scan(5, **kwargs)
        rep = freeness_scan(5, **kwargs)
        assert rep.words_checked == checked
        assert rep.collisions == hits


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("param", ["s", "r"])
def test_wider_scans_match_depth_first(n, param):
    """Corner and lower scans with rational parameters and a rational b-vector
    against dense products: at n = 2, 3 and 4 the benchmark's cells with
    exponents up to 3 (words of up to 4 syllables, 3 at n = 4), and at n = 5
    and 6, past the sizes the seeds above draw, up to 3 syllables with
    exponents up to 2.  The n = 2 corner scan takes t s = 1, where words of 6
    syllables hit the identity, so it runs to 6 syllables."""
    kwargs = {"t": Fraction(3, 2), "max_syllables": 4 if n < 4 else 3,
              "max_exponent": 3 if n < 5 else 2}
    collides = n == 2 and param == "s"
    if collides:
        kwargs.update(second=Fraction(2, 3), max_syllables=6)
    elif param == "s":
        kwargs["second"] = Fraction(-1, 2)
    else:
        kwargs["second"] = Fraction(1, 2)
        kwargs["b"] = tuple(SMALL[k % len(SMALL)] * (-1) ** k for k in range(1, n))
    checked, hits = depth_first_scan(n, **kwargs)
    rep = freeness_scan(n, **kwargs)
    assert rep.words_checked == checked
    assert rep.collisions == hits
    assert bool(hits) == collides


class TestThinPair:
    def test_integrality(self):
        tp = thin_pair(3, 2, 3)
        assert tp.t == 4
        assert tp.first == Matrix([[1, 4, 8], [0, 1, 4], [0, 0, 1]])
        assert all(x.denominator == 1 for x in tp.first.flatten())

    def test_n4_q2(self):
        tp = thin_pair(4, 2, 3)
        assert tp.t == 12 and tp.first[1, 4] == 288
        assert tp.certified

    def test_warning_below_bound(self):
        # t = 6 < certified threshold near 7.75; t is tested before s
        for s in (3, 0):
            tp = thin_pair(4, 1, s)
            assert not tp.certified
            assert tp.warning == "|t| = 6 does not exceed the certified bound 7935/1024"

    def test_small_s_warns(self):
        tp = thin_pair(4, 2, 1)
        assert not tp.certified and tp.warning == "|s| = 1 does not exceed s0 = 2"

    def test_validation(self):
        with pytest.raises(ValueError):
            thin_pair(2, 1, 3)
        with pytest.raises(ValueError):
            thin_pair(4, 0, 3)

    @pytest.mark.parametrize("q, s, message", [
        (Fraction(1, 3), 1, "q must be an integer, not 1/3"),
        (Fraction(-5, 2), 3, "q must be an integer, not -5/2"),
        (1, Fraction(1, 2), "s must be an integer, not 1/2"),
    ], ids=["q-third", "q-negative", "s-half"])
    def test_a_fraction_is_refused_before_any_work(self, monkeypatch, q, s, message):
        """A ValueError, not the integrality assert, which ``python -O`` strips."""
        def no_work(*args):
            raise AssertionError("work before the input was checked")

        for name in ("exp_upper", "exp_corner", "compute_t0"):
            monkeypatch.setattr(groups, name, no_work)
        with pytest.raises(ValueError, match=f"^{message}$"):
            thin_pair(3, q, s)

    def test_an_integral_fraction_is_an_integer(self):
        assert thin_pair(3, Fraction(2), Fraction(3)) == thin_pair(3, 2, 3)


class TestFormPreservation:
    def test_n2_symplectic(self):
        j = form_matrix(2)
        assert j in (Matrix([[0, -1], [1, 0]]), Matrix([[0, 1], [-1, 0]]))
        assert check_form(exp_upper(Fraction(9, 2), 2), j)

    def test_antisymmetry_parity(self):
        for n in range(2, 8):
            j = form_matrix(n)
            assert transpose(j) == ((-1) ** (n + 1)) * j
            assert (j * j) in (Matrix.identity(n), -1 * Matrix.identity(n))

    def test_even_generators_preserve(self):
        rng = random.Random(17)
        j = form_matrix(4)
        for _ in range(10):
            t = rand_rational(rng)
            assert check_form(exp_upper(t, 4), j)
            assert check_form(exp_corner(t, 4), j)

    def test_odd_double_corner_preserves(self):
        j = form_matrix(5)
        y = shift_pair(5, FAMILY_DOUBLE_CORNER).second
        assert check_form(exp_upper(Fraction(2, 3), 5), j)
        assert check_form(exp_nilpotent(y, Fraction(7, 5)), j)

    def test_random_words_preserve(self):
        rng = random.Random(23)
        j = form_matrix(4)
        gen_a = lambda m: exp_upper(m * Fraction(5, 3), 4)
        gen_b = lambda m: exp_corner(m * Fraction(-7, 2), 4)
        for _ in range(10):
            length = rng.randint(1, 5)
            gen = rng.choice("AB")
            syls = []
            for _ in range(length):
                syls.append((gen, rng.choice([-2, -1, 1, 2])))
                gen = "B" if gen == "A" else "A"
            g = word_eval(syls, gen_a, gen_b)
            assert check_form(g, j)

    def test_form_needs_n_at_least_2(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            form_matrix(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_form_realizes_the_diagram_automorphism(self, n):
        j = form_matrix(n)
        for u in (Matrix.unit(n, a, b) for a in range(1, n + 1) for b in range(1, n + 1)):
            assert diagram_automorphism(u) == form_conjugate(u, j), u
