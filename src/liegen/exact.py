"""Exact rational linear algebra: dense matrices, linear spans, real-root isolation.

Everything here is exact.  Scalars are ``fractions.Fraction``; no floating
point enters any computation, so every sign test and every equality test is
a certificate rather than an approximation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

Scalar = int | Fraction

#: Default width of certified root brackets.
DEFAULT_WIDTH = Fraction(1, 2**40)
#: Finest width accepted: each joint halving costs one sign test of each live polynomial.
MIN_WIDTH = Fraction(1, 2**256)


def _rat(x: Scalar) -> Fraction:
    if isinstance(x, float):  # a float is a binary approximation, never exact input
        raise TypeError(f"exact arithmetic refuses the float {x!r}; give an int or a Fraction")
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Dense square matrix over exact rationals.

    Entry access is 1-based, ``M[i, j]``, matching the e_{i,j} convention
    for matrix units.  Instances are immutable.
    """

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rs = tuple(tuple(map(_rat, row)) for row in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("matrix must be square and nonempty")
        self.n = n
        self.rows = rs
        self._hash: int | None = None

    @classmethod
    def _of(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "Matrix":
        """Wrap square rows of Fractions without a check: only for rows the library
        computed by Fraction arithmetic on checked input, which are Fractions already."""
        m = object.__new__(cls)
        m.n, m.rows, m._hash = len(rows), rows, None
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, i: int, j: int, value: Scalar = 1) -> "Matrix":
        """The matrix unit e_{i,j} (1-based), optionally scaled."""
        return cls.from_units(n, [(i, j, value)])

    @classmethod
    def from_units(cls, n: int, terms: Iterable[tuple[int, int, Scalar]]) -> "Matrix":
        """Sum of scaled matrix units given as (i, j, coefficient), 1-based."""
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i, j, c in terms:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"unit index ({i},{j}) out of range for n={n}")
            rows[i - 1][j - 1] += _rat(c)
        return cls(rows)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix._of(tuple(
            [tuple([a + b for a, b in zip(ra, rb)]) for ra, rb in zip(self.rows, other.rows)]
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix._of(tuple(
            [tuple([a - b for a, b in zip(ra, rb)]) for ra, rb in zip(self.rows, other.rows)]
        ))

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple([tuple([-a for a in row]) for row in self.rows]))

    def __mul__(self, other: Matrix | Scalar) -> "Matrix":
        if isinstance(other, Matrix):
            self._check_dim(other)
            cols = tuple(zip(*other.rows))
            return Matrix._of(tuple(
                [tuple([sum([a * b for a, b in zip(row, col)]) for col in cols])
                 for row in self.rows]
            ))
        return Matrix([[a * other for a in row] for row in self.rows])

    def __rmul__(self, other: Scalar) -> "Matrix":
        return Matrix([[other * a for a in row] for row in self.rows])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self) -> int:
        # a Fraction is kept in lowest terms, so equal entries have equal integer
        # pairs, and hashing those takes no modular inverse per entry
        if self._hash is None:
            self._hash = hash(tuple([(x.numerator, x.denominator)
                                     for row in self.rows for x in row]))
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({[[str(x) for x in row] for row in self.rows]})"

    def _check_dim(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):  # its rows would go in unchecked
            raise TypeError(f"expected a Matrix, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.rows)

    def flatten(self) -> tuple[Fraction, ...]:
        """Row-major flattening to a vector of length n^2."""
        return tuple(x for row in self.rows for x in row)


def bracket(a: Matrix, b: Matrix) -> Matrix:
    """Lie bracket [a, b] = ab - ba, exactly."""
    return a * b - b * a


def _primitive(v: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*v.values())
    return v if g <= 1 else {k: x // g for k, x in v.items()}


def _int_flatten(m: Matrix) -> dict[int, int]:
    """Nonzero entries by row-major index, denominators cleared, content removed."""
    flat = m.flatten()
    den = math.lcm(*(x.denominator for x in flat))
    return _primitive({k: int(x * den) for k, x in enumerate(flat) if x})


def _eliminate(v: dict[int, int], row: dict[int, int], p: int) -> dict[int, int]:
    """A positive multiple of v minus a multiple of row, zero at p (row[p] > 0)."""
    g = math.gcd(row[p], v[p])
    a, b = row[p] // g, v[p] // g
    out = {k: x * a for k, x in v.items()}
    for k, x in row.items():
        out[k] = out.get(k, 0) - x * b
    return {k: x for k, x in out.items() if x}


class SpanBasis:
    """Row-reduced basis of a subspace of n-by-n matrices.

    Matrices come in through ``insert_flat`` as integer vectors of length n^2,
    flattened row-major and sparse, ``{index: int}`` of their nonzero entries,
    and go out as ``rank`` and ``matrices()``.  Rows are kept as primitive
    integer vectors in reduced row-echelon form with positive pivots, keyed
    by pivot, which makes the basis canonical for a given subspace and keeps
    all arithmetic in fast machine/bignum integers.
    """

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, dict[int, int]] = {}  # by pivot

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: dict[int, int]) -> dict[int, int]:
        # every row is zero at the other pivots, so clearing one pivot of v
        # creates no entry at another
        for p in [k for k in v if k in self._rows]:
            v = _eliminate(v, self._rows[p], p)
        return v

    def insert_flat(self, v: dict[int, int]) -> bool:
        """Insert a sparse row ``{row-major index: int}``; True iff the rank grew."""
        if any(not 0 <= k < self.n * self.n for k in v):
            raise ValueError(f"index out of range for n={self.n}")
        v = self._reduce({k: x for k, x in v.items() if x})
        if not v:
            return False
        piv = min(v)
        v = _primitive({k: -x for k, x in v.items()} if v[piv] < 0 else v)
        # keep reduced echelon form: clear the new pivot column in every row
        for p, row in self._rows.items():
            if piv in row:
                self._rows[p] = _primitive(_eliminate(row, v, piv))
        self._rows[piv] = v
        return True

    def matrices(self) -> list[Matrix]:
        """The basis rows in pivot order, unflattened back to matrices."""
        n = self.n
        return [
            Matrix([[row.get(i * n + j, 0) for j in range(n)] for i in range(n)])
            for row in map(self._rows.get, sorted(self._rows))
        ]


class Polynomial:
    """Univariate polynomial with exact rational coefficients, ascending degree;
    an ``int`` coefficient stays an ``int``, equal to and hashing like its Fraction."""

    __slots__ = ("coefficients", "_den", "_ints")  # _den * p has integer coefficients _ints

    def __init__(self, coefficients: Iterable[Scalar]):
        cs = [c if type(c) is int else _rat(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coefficients = tuple(cs)
        self._den = den = math.lcm(*(c.denominator for c in cs))
        self._ints = tuple(c.numerator * (den // c.denominator) for c in cs)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x: Scalar) -> Fraction:
        # p(a/b) = sum_i _ints[i] a^i b^(d-i) / (_den b^d): one Fraction at the end
        x = _rat(x)
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self._ints):
            acc, scale = acc * a + c * scale, scale * b
        return Fraction(acc * b, self._den * scale)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial) and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coefficients]})"

    def integer_coefficients(self) -> tuple[int, ...]:
        return self._ints


class RootBracket(namedtuple("RootBracket", "lo hi")):
    """Certified bracket [lo, hi] around a root: p(lo) <= 0 < p(hi)."""

    __slots__ = ()


def _descartes_sign_changes(coeffs: Sequence[int]) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _scaled_value(ints: Sequence[int], num: int, shift: int) -> int:
    """2^(shift*d) * p(num / 2^shift) for p with integer coefficients ``ints``
    (ascending, degree d) and shift >= 0, or p(num * 2^-shift) for shift < 0:
    one integer Horner sum with the sign of p at that point."""
    if shift < 0:
        num, shift = num << -shift, 0
    acc, scale = ints[-1], 0
    for c in reversed(ints[:-1]):
        scale += shift
        acc = acc * num + (c << scale)
    return acc


def bracket_width(width: Scalar) -> Fraction:
    """width as an exact root bracket width; ValueError unless it is positive and
    at least MIN_WIDTH."""
    width = _rat(width)
    if width <= 0:
        raise ValueError("root bracket width must be positive")
    if width < MIN_WIDTH:
        raise ValueError("root bracket width must be at least 2^-256")
    return width


def isolate_largest_positive_root(
    polys: Iterable[Polynomial], width: Fraction = DEFAULT_WIDTH
) -> RootBracket | None:
    """Bracket the largest positive real root of the polynomials to the requested width.

    Each needs a positive leading coefficient and at most one Descartes sign
    change, as every inequality polynomial here has: one change means one
    positive root with p <= 0 below it and p > 0 above it, and none certifies
    p > 0 on (0, oo), so that p drops out (None when all do).  Fujiwara's bound
    (1916) gives a power of two 2^e above every root, and one bisection of
    [0, 2^e] into dyadic brackets [j, j+1] * 2^(e-k) (Collins & Akritas, 1976)
    serves them all: a midpoint lies below the largest root when some live p is
    <= 0 there, and then each live p > 0 there drops out.  So p(lo) <= 0 < p(hi)
    for the p of the largest root, in the bracket that p alone would give.  Once
    one p is live, ``_refine`` takes its bracket to the final level in far fewer
    steps.  Each sign is one integer sum with shifts over the cleared coefficients.
    """
    width = bracket_width(width)
    live = []
    for p in polys:
        if p.is_zero():
            raise ValueError("zero polynomial has no root bracket")
        ints = p.integer_coefficients()
        if ints[-1] < 0:
            raise ValueError("leading coefficient must be positive")
        changes = _descartes_sign_changes(ints)
        if changes > 1:
            raise ValueError(f"{changes} Descartes sign changes: the root is not isolated")
        if changes:
            live.append(ints)
    if not live:
        return None
    # 2^e bounds every root, as |c_i / c_d| < 2^(bitlen c_i - bitlen c_d + 1)
    e = 1 + max(-((ints[-1].bit_length() - c.bit_length() - 1) // (len(ints) - 1 - i))
                for ints in live for i, c in enumerate(ints[:-1]) if c)

    # level k splits [0, 2^e] into brackets [j, j+1] * 2^(e-k); the midpoint of
    # bracket j is (2j+1) * 2^(e-k-1).  Stop at the first level with 2^(e-k) <= width.
    num, den = width.numerator, width.denominator
    f = num.bit_length() - den.bit_length()  # floor(log2 width) is f or f - 1
    last = max(0, e - f + (num << max(0, -f) < den << max(0, f)))
    j = k = 0
    while k < last and len(live) > 1:
        j, k = 2 * j, k + 1
        below = [ints for ints in live if _scaled_value(ints, j + 1, k - e) <= 0]
        if below:
            j, live = j + 1, below
    if k < last:
        j, k = _refine(live[0], j, k, e, last)
    step = Fraction(2) ** (e - k)
    return RootBracket(lo=j * step, hi=(j + 1) * step)


def _refine(ints: Sequence[int], j: int, k: int, e: int, last: int) -> tuple[int, int]:
    """p's bracket [j, j+1] * 2^(e-k), p(lo) <= 0 < p(hi), refined to level
    ``last`` on the same grid by quadratic interval refinement (Abbott, 2012):
    split it into the 2^s brackets of level k + s, test the grid point nearest
    the secant's root and its neighbour on the root's side, and double s on
    success, halve it on failure.  At s = 1 that is one bisection step, which
    always succeeds.  p has one positive root, so only one level-``last``
    bracket has p(lo) <= 0 < p(hi): the one bisection gives."""
    d = len(ints) - 1
    lo, hi = _scaled_value(ints, j, k - e), _scaled_value(ints, j + 1, k - e)
    s = 1
    while k < last:
        s = min(s, last - k)
        n, level = 1 << s, k + s
        # values at a level are 2^(d * max(0, level - e)) * p: the ends carry over by a shift
        shift = d * (max(0, level - e) - max(0, k - e))
        low, high, base = lo << shift, hi << shift, j << s
        # the inner grid point nearest the secant's root, -low / (high - low) of the way up
        m = min(max((2 * n * -low + high - low) // (2 * (high - low)), 1), n - 1)
        v = _scaled_value(ints, base + m, level - e)
        if v <= 0:  # the root is at or above m: test m + 1
            a, va, vb = m, v, high if m + 1 == n else _scaled_value(ints, base + m + 1, level - e)
        else:  # the root is below m: test m - 1
            a, va, vb = m - 1, low if m == 1 else _scaled_value(ints, base + m - 1, level - e), v
        if va <= 0 < vb:
            j, k, lo, hi, s = base + a, level, va, vb, 2 * s
        else:
            s //= 2
    return j, k
