"""Exact exponentials of the nilpotent generators, freeness scans, thin pairs.

a(t) = exp(t x) for the shift x, b(s) = exp(s e_{n,1}), c(r) = exp(r z)
for lower bidiagonal z; all are triangular with polynomial entries, so
exponentiation is a finite exact sum.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .exact import Matrix, Scalar, _rat
from .generators import FAMILIES, FAMILY_CORNER, bvector, lower_coefficients
from .pingpong import compute_t0, freeness_warning


def exp_upper(t: Scalar, n: int) -> Matrix:
    """a(t) = exp(t x): unipotent upper triangular, entry (i,j) = t^{j-i}/(j-i)!."""
    if n < 2:
        raise ValueError("n must be at least 2")
    t = _rat(t)
    terms = [Fraction(1)]  # t^d/d!, each from the one before
    for d in range(1, n):
        terms.append(terms[-1] * t / d)
    return Matrix._of(tuple([(Fraction(0),) * i + tuple(terms[:n - i]) for i in range(n)]))


def exp_corner(s: Scalar, n: int) -> Matrix:
    """b(s) = exp(s e_{n,1}) = identity plus s in the lower-left corner."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return Matrix.from_units(n, [(i, i, 1) for i in range(1, n + 1)] + [(n, 1, s)])


def exp_lower(r: Scalar, b: Sequence[Scalar]) -> Matrix:
    """c(r) = exp(r z) for z = sum b_i e_{i+1,i}: entry (j, j-d) = c_{d,j} r^d/d!."""
    n, r = len(b) + 1, _rat(r)
    c = lower_coefficients(bvector(b, n))
    scale = [r**d / math.factorial(d) for d in range(n)]
    return Matrix._of(tuple([tuple([x * f for x, f in zip(c[j], scale)][::-1])
                             + (Fraction(0),) * (n - j) for j in range(1, n + 1)]))


class ScanReport(namedtuple("ScanReport", "n max_syllables max_exponent collisions parameters")):
    """Result of an exhaustive identity scan over reduced words; each collision
    is a tuple of syllables (generator symbol "A" or "B", nonzero exponent)."""

    __slots__ = ()

    @property
    def words_checked(self) -> int:  # reduced words of 1 to L syllables: 2 sum (2E)^k
        return sum(2 * (2 * self.max_exponent) ** k for k in range(1, self.max_syllables + 1))

    @property
    def clean(self) -> bool:
        return not self.collisions


# Most reduced words of up to ceil(L/2) syllables that one scan may multiply
# out and hold in memory, and most identity words it may collect; a larger
# scan is refused as bad input.
MAX_HALF_WORDS = 50_000


def freeness_scan(
    n: int,
    t: Scalar,
    second: Scalar,
    b: Sequence[Scalar] | None = None,
    *,
    max_syllables: int,
    max_exponent: int,
) -> ScanReport:
    """Find every reduced word up to the given size that equals the identity.

    The A generator is a(t); the B generator is c(r), r = ``second``, with
    the b-vector b, or b(s), s = ``second``, without one.  An empty collision
    list is freeness evidence (a necessary condition only); any collision
    disproves freeness at these parameters.

    Meet in the middle (Schroeppel & Shamir 1981): split a word of l
    syllables as w = u v with ceil(l/2) syllables in u.  Then w = 1 exactly
    when prod(u) = prod(v)^-1, and prod(v)^-1 is the product of the mirror
    of v (reversed, exponents negated), itself a reduced word of floor(l/2)
    syllables.  So one table per length h of the exact products of the
    reduced words of h syllables, for h up to ceil(L/2), serves both halves,
    and no matrix is inverted.
    The collisions come in depth-first order (A before B, exponents
    ascending, a word before its extensions), and ``words_checked`` counts
    every reduced word of 1 to L syllables, in closed form.
    """
    if max_syllables < 1 or max_exponent < 1:
        raise ValueError("max_syllables and max_exponent must be positive")
    half = (max_syllables + 1) // 2
    half_words = 0
    for k in range(1, half + 1):
        half_words += 2 * (2 * max_exponent) ** k
        if half_words > MAX_HALF_WORDS:
            raise ValueError(
                f"a scan of {max_syllables} syllables with exponents up to "
                f"{max_exponent} exceeds the work cap of {MAX_HALF_WORDS} half-words"
            )
    params: dict = {"t": _rat(t)}
    if b is None:
        params["s"] = _rat(second)
    else:
        params["r"], params["b"] = _rat(second), bvector(b, n)

    exponents = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]
    syllable_mats = {("A", e): exp_upper(e * params["t"], n) for e in exponents} | {
        ("B", e): exp_corner(e * params["s"], n) if b is None
        else exp_lower(e * params["r"], params["b"]) for e in exponents
    }
    # each syllable g as the nonempty columns j of g - I, with the (row, value)
    # pairs of their nonzero entries, so that P g = P + P (g - I): g is
    # unipotent, so g - I is g off the diagonal; b(s) - I has one nonzero entry
    syllable_cols = {syl: [(j, pairs) for j, col in enumerate(zip(*m.rows))
                           if (pairs := [(i, x) for i, x in enumerate(col) if i != j and x])]
                     for syl, m in syllable_mats.items()}

    # levels[h]: product -> the reduced words of h syllables with that product;
    # level h extends each entry of level h - 1 by each syllable, with one
    # product for all of the entry's words that end in the other generator;
    # each row is P's row with only the syllable's columns recomputed, from P's
    # nonzero entries alone: all Fractions, so Matrix._of takes them unchecked
    levels: list[dict[Matrix, list[tuple]]] = [{Matrix.identity(n): [()]}]
    for h in range(1, half + 1):
        level: dict[Matrix, list[tuple]] = {}
        for prod, words in levels[h - 1].items():
            for syl, cols in syllable_cols.items():
                longer = [w + (syl,) for w in words if not w or w[-1][0] != syl[0]]
                if longer:
                    rows = [list(row) for row in prod.rows]
                    for new, row in zip(rows, prod.rows):
                        for j, col in cols:
                            new[j] = sum([row[i] * x for i, x in col if row[i]], row[j])
                    level.setdefault(Matrix._of(tuple(map(tuple, rows))), []).extend(longer)
        levels.append(level)

    hits = []
    for h in range(1, half + 1):
        # each head u of h syllables, then the mirror of a tail of h - 1 or h
        # syllables with the same product; the generator changes at the join
        for prod, heads in levels[h].items():
            for k in (h - 1, h):
                if h + k > max_syllables:
                    continue
                for tail in levels[k].get(prod, ()):
                    mirror = tuple((g, -e) for g, e in reversed(tail))
                    hits += [u + mirror for u in heads if not tail or u[-1][0] != tail[-1][0]]
                    if len(hits) > MAX_HALF_WORDS:
                        raise ValueError(
                            f"more than {MAX_HALF_WORDS} identity words exceed the work cap"
                        )

    return ScanReport(n=n, max_syllables=max_syllables, max_exponent=max_exponent,
                      collisions=sorted(hits), parameters=params)


class ThinPair(namedtuple("ThinPair", "first second warning")):
    """Integer generator pair a(t), t = (n-1)! q, and b(s), certified when it has
    no warning; t and s are read off the entries (1, 2) and (n, 1)."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.first.n

    @property
    def t(self) -> int:
        return int(self.first.rows[0][1])

    @property
    def s(self) -> int:
        return int(self.second.rows[-1][0])

    @property
    def certified(self) -> bool:
        return self.warning is None


def thin_pair(n: int, q: int, s: int) -> ThinPair:
    """Integer pair a((n-1)! q), b(s) in SL(n, Z), for integers q != 0 and s.

    Certified (free, hence thin by the congruence subgroup property) when
    t and s pass ``freeness_warning``, the ping-pong test that
    ``certify_free_dense`` makes; otherwise emitted with its warning.  n is a
    size of the corner pair, whose exponentials these are.
    """
    n = FAMILIES[FAMILY_CORNER].check(n)
    for name, x in (("q", q), ("s", s)):
        if _rat(x).denominator != 1:
            raise ValueError(f"{name} must be an integer, not {x}")
    if q == 0:
        raise ValueError("q must be nonzero")
    t = math.factorial(n - 1) * q
    pair = ThinPair(first=exp_upper(t, n), second=exp_corner(s, n),
                    warning=freeness_warning(t, compute_t0(n), s))
    assert all(x.denominator == 1 for x in pair.first.flatten())
    return pair
