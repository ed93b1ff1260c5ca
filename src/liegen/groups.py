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
from .generators import bvector, lower_coefficients
from .pingpong import compute_t0, s0


def exp_upper(t: Scalar, n: int) -> Matrix:
    """a(t) = exp(t x): unipotent upper triangular, entry (i,j) = t^{j-i}/(j-i)!."""
    if n < 2:
        raise ValueError("n must be at least 2")
    t = _rat(t)
    rows = [
        [
            t ** (j - i) / math.factorial(j - i) if j >= i else Fraction(0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return Matrix(rows)


def exp_corner(s: Scalar, n: int) -> Matrix:
    """b(s) = exp(s e_{n,1}) = identity plus s in the lower-left corner."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return Matrix.identity(n) + Matrix.unit(n, n, 1, _rat(s))


def exp_lower(r: Scalar, b: Sequence[Scalar]) -> Matrix:
    """c(r) = exp(r z) for z = sum b_i e_{i+1,i}: entry (j, j-d) = c_{d,j} r^d/d!."""
    n, r = len(b) + 1, _rat(r)
    c = lower_coefficients(bvector(b, n))
    scale = [r**d / math.factorial(d) for d in range(n)]
    return Matrix([[x * f for x, f in zip(c[j], scale)][::-1] + [0] * (n - j)
                   for j in range(1, n + 1)])


class Word(namedtuple("Word", "syllables")):
    """Reduced alternating word in two generator symbols "A" and "B"."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: both check

    def __new__(cls, syllables: tuple[tuple[str, int], ...]) -> Word:
        prev = None
        for gen, exp in syllables:
            if gen not in ("A", "B"):
                raise ValueError(f"unknown generator symbol {gen!r}")
            if exp == 0:
                raise ValueError("zero exponent in word")
            if gen == prev:
                raise ValueError("word is not reduced: repeated generator")
            prev = gen
        return super().__new__(cls, syllables)


class ScanReport(namedtuple("ScanReport", "n max_syllables max_exponent words_checked "
                                          "collisions parameters")):
    """Result of an exhaustive identity scan over reduced words."""

    __slots__ = ()

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
    s: Scalar | None = None,
    r: Scalar | None = None,
    b: Sequence[Scalar] | None = None,
    max_syllables: int = 4,
    max_exponent: int = 2,
) -> ScanReport:
    """Find every reduced word up to the given size that equals the identity.

    The A generator is a(t); the B generator is b(s) when s is given, or
    c(r) with the supplied b-vector when r is given.  An empty collision
    list is freeness evidence (a necessary condition only); any collision
    disproves freeness at these parameters.

    Meet in the middle (Schroeppel & Shamir 1981): split a word of l
    syllables as w = u v with ceil(l/2) syllables in u.  Then w = 1 exactly
    when prod(u) = prod(v)^-1, and prod(v)^-1 is the product of the mirror
    of v (reversed, exponents negated), itself a reduced word of floor(l/2)
    syllables.  So one table of the exact products of all reduced words of
    up to ceil(L/2) syllables serves both halves, and no matrix is inverted.
    The collisions come in depth-first order (A before B, exponents
    ascending, a word before its extensions), and ``words_checked`` counts
    every reduced word of 1 to L syllables, in closed form.
    """
    if max_syllables < 1 or max_exponent < 1:
        raise ValueError("max_syllables and max_exponent must be positive")
    if (s is None) == (r is None):
        raise ValueError("give exactly one of s (corner) or r (lower)")
    if s is not None and b is not None:
        raise ValueError("a scan with s takes no b-vector")
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
    if s is not None:
        params["s"] = _rat(s)
    else:
        params["r"], params["b"] = _rat(r), bvector(b, n)

    exponents = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]
    syllable_mats = {("A", e): exp_upper(e * params["t"], n) for e in exponents} | {
        ("B", e): exp_corner(e * params["s"], n) if s is not None
        else exp_lower(e * params["r"], params["b"]) for e in exponents
    }

    # (length, product) -> the reduced words of that length with that product
    table: dict[tuple[int, Matrix], list[tuple]] = {(0, Matrix.identity(n)): [()]}
    level: list[tuple[tuple, Matrix]] = [((), Matrix.identity(n))]
    for h in range(1, half + 1):
        longer = []
        for word, prod in level:
            for syl, m in syllable_mats.items():
                if not word or syl[0] != word[-1][0]:
                    w, p = word + (syl,), prod * m
                    longer.append((w, p))
                    table.setdefault((h, p), []).append(w)
        level = longer

    hits = []
    for (h, prod), heads in table.items():
        # each head u of h syllables, then the mirror of a tail of h - 1 or h
        # syllables with the same product; the generator changes at the join
        for k in (h - 1, h):
            if h == 0 or h + k > max_syllables:
                continue
            for tail in table.get((k, prod), ()):
                mirror = tuple((g, -e) for g, e in reversed(tail))
                hits += [u + mirror for u in heads if not tail or u[-1][0] != tail[-1][0]]
                if len(hits) > MAX_HALF_WORDS:
                    raise ValueError(
                        f"more than {MAX_HALF_WORDS} identity words exceed the work cap"
                    )

    return ScanReport(
        n=n,
        max_syllables=max_syllables,
        max_exponent=max_exponent,
        words_checked=sum(2 * (2 * max_exponent) ** k for k in range(1, max_syllables + 1)),
        collisions=[Word(w) for w in sorted(hits)],
        parameters=params,
    )


class ThinPair(namedtuple("ThinPair", "n t s first second certified warning")):
    """Integer generator pair a((n-1)! q), b(s), with a certification flag."""

    __slots__ = ()


def thin_pair(n: int, q: int, s: int) -> ThinPair:
    """Integer pair a((n-1)! q), b(s) in SL(n, Z).

    Certified (free, hence thin by the congruence subgroup property) when
    |t| clears the ping-pong bound and |s| > 2; otherwise emitted with a
    warning flag.
    """
    if n <= 2:
        raise ValueError("thin pairs require n > 2")
    if q == 0:
        raise ValueError("q must be nonzero")
    t = math.factorial(n - 1) * q
    a = exp_upper(t, n)
    bmat = exp_corner(s, n)
    assert all(x.denominator == 1 for x in a.flatten())
    t_safe = compute_t0(n).safe_value
    warning = None
    if abs(t) <= t_safe:
        warning = f"|t| = {abs(t)} does not exceed the certified bound {t_safe}"
    elif abs(s) <= s0():
        warning = f"|s| = {abs(s)} does not exceed s0 = {s0()}"
    return ThinPair(
        n=n, t=t, s=s, first=a, second=bmat,
        certified=warning is None, warning=warning,
    )


def form_matrix(n: int) -> Matrix:
    """J = sum_i (-1)^i e_{i, n+1-i}: alternating for n even, symmetric for n odd.

    -J z^T J^-1 is the diagram automorphism e_{i,j} -> (-1)^{i-j+1} e_{n-j+1,n-i+1}.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return Matrix.from_units(n, [(i, n + 1 - i, (-1) ** i) for i in range(1, n + 1)])
