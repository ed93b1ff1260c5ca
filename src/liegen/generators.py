"""Explicit nilpotent generator pairs of simple matrix Lie algebras.

Builds the shift matrix x = sum e_{i,i+1} together with the various
"second" generators (corner e_{n,1}, double corner e_{n-1,1}+e_{n,2},
lower bidiagonal sum b_i e_{i+1,i}, and the 7x7 G2 pair), plus the
distinctness criterion of Proposition 2 that certifies generation.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .exact import Matrix, Scalar, _rat

FAMILY_CORNER = "corner"
FAMILY_DOUBLE_CORNER = "double_corner"
FAMILY_LOWER = "lower_bidiagonal"
FAMILY_G2 = "g2_7x7"

#: b-vector of the G2 second generator z, read off its subdiagonal.
G2_LOWER_B = tuple(Fraction(x) for x in (1, -1, 2, 2, -1, 1))


class Family(namedtuple("Family", "name alias min_n second target shift_units fixed_b",
                        defaults=(None, None))):
    """Every per-family fact; FAMILIES holds one record per family.  The second
    generator is a shift pair's corner (``shift_units``) or lower bidiagonal,
    with ``fixed_b`` (whose length fixes n) or else the caller's b-vector.

    - ``alias``: the CLI's --family value;
    - ``min_n``: the smallest n the pair exists for;
    - ``second``: "s" (bound S0 = 2), "r" (bound r0), None (no certified bound);
    - ``target(n)``: the type of the algebra the pair generates, "A", "B", "C" or "G2";
    - ``shift_units(n)``: the (i, j, c) units of y, or None.
    """

    __slots__ = ()

    @property
    def takes_b(self) -> bool:
        """Whether the pair is built from the caller's b-vector."""
        return self.shift_units is None and self.fixed_b is None

    def size(self, n: int | None) -> int:
        """n, which a family of one size lets the caller omit but not change, and
        every other family requires."""
        fixed = self.fixed_b and len(self.fixed_b) + 1
        if fixed and n not in (None, fixed):
            raise ValueError(f"the {self.alias} family lives in dimension {fixed}")
        if not fixed and n is None:
            raise ValueError(f"the {self.alias} family requires n")
        return fixed or n

    def check(self, n: int | None) -> int:
        """The size of the family's pair at n; ValueError where it does not exist."""
        n = self.size(n)
        if n < self.min_n:
            raise ValueError(f"the {self.alias} pair requires n >= {self.min_n}")
        return n

    def read_b(self, b: Sequence[Scalar] | None, n: int) -> tuple[Fraction, ...] | None:
        """The b-vector of the pair of size n: the caller's b, checked, G2's ``fixed_b``
        or None; ValueError for a b-vector that the family does not read."""
        if self.takes_b:
            return bvector(b, n)
        if b is not None:
            raise ValueError(f"the {self.alias} family takes no b-vector")
        return self.fixed_b


FAMILIES = {f.name: f for f in (
    Family(FAMILY_CORNER, "corner", 3, "s",
           lambda n: "C" if n % 2 == 0 else "A",
           shift_units=lambda n: [(n, 1, 1)]),
    Family(FAMILY_DOUBLE_CORNER, "double_corner", 4, None,
           lambda n: "A" if n % 2 == 0 else "G2" if n == 7 else "B",
           shift_units=lambda n: [(n - 1, 1, 1), (n, 2, 1)]),
    Family(FAMILY_LOWER, "lower", 3, "r", lambda n: "A"),
    Family(FAMILY_G2, "g2", 7, "r", lambda n: "G2", fixed_b=G2_LOWER_B),
)}


def lookup_family(name: str) -> Family:
    """The record of a family name, or ValueError."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name]


class GeneratorPair(namedtuple("GeneratorPair", "first second family")):
    """A pair of nilpotent n x n matrices generating a Lie algebra; each has
    m^k = 0 for some k <= n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: both check

    def __new__(cls, first: Matrix, second: Matrix, family: str) -> GeneratorPair:
        n = first.n
        if second.n != n:
            raise ValueError("generator dimension mismatch")
        for m in (first, second):
            power, k = m, 1  # m^k = 0 for some k <= n: stop at the first zero power
            while not power.is_zero():
                if k == n:
                    raise ValueError("generator is not nilpotent")
                power, k = power * m, k + 1
        return super().__new__(cls, first, second, family)

    @property
    def n(self) -> int:
        return self.first.n

    @property
    def b(self) -> tuple[Fraction, ...] | None:
        """The lower family's b-vector, read off the subdiagonal of ``second``; else None."""
        return (tuple(row[i] for i, row in enumerate(self.second.rows[1:]))
                if self.family == FAMILY_LOWER else None)


def bvector(b: Sequence[Scalar] | None, n: int) -> tuple[Fraction, ...]:
    """b as exact values, when it is a b-vector of size n: n - 1 entries, all nonzero."""
    if b is None or len(b) != n - 1:
        raise ValueError("b-vector length must be n - 1")
    bs = tuple(_rat(x) for x in b)
    if not all(bs):
        raise ValueError("all b_i must be nonzero")
    return bs


def shift_matrix(n: int) -> Matrix:
    """The upper shift x = e_{1,2} + e_{2,3} + ... + e_{n-1,n}."""
    return Matrix.from_units(n, [(i, i + 1, 1) for i in range(1, n)])


def lower_bidiagonal(b: Sequence[Fraction]) -> Matrix:
    """z = sum b_i e_{i+1,i}, of size len(b) + 1."""
    n = len(b) + 1
    return Matrix.from_units(n, [(i + 1, i, b[i - 1]) for i in range(1, n)])


def lower_coefficients(b: Sequence[Scalar]) -> list[list[Scalar]]:
    """c with c[j][d] = c_{d,j} = b_{j-1} b_{j-2} ... b_{j-d} (1 for d = 0), the
    (j, j - d) entry of z^d for z = lower_bidiagonal(b), for 0 <= d < j <= n; c[0]
    is empty.  Row j is 1, then b_{j-1} times row j - 1: O(n^2) products in all,
    in the type of the b_i (ints stay ints)."""
    c = [[], [1]]
    for x in b:
        c.append([1] + [x * y for y in c[-1]])
    return c


def shift_pair(n: int, family: str = FAMILY_CORNER) -> GeneratorPair:
    """Shift x with corner y = e_{n,1}, or double corner y = e_{n-1,1} + e_{n,2}."""
    fam = lookup_family(family)
    if fam.shift_units is None:
        raise ValueError(f"unknown shift family {family!r}")
    n = fam.check(n)
    y = Matrix.from_units(n, fam.shift_units(n))
    return GeneratorPair(first=shift_matrix(n), second=y, family=family)


def lower_pair(b: Sequence[Scalar]) -> GeneratorPair:
    """Shift x with lower bidiagonal z = sum b_i e_{i+1,i}; all b_i nonzero."""
    bs = bvector(b, len(b) + 1)
    n = FAMILIES[FAMILY_LOWER].check(len(b) + 1)
    return GeneratorPair(first=shift_matrix(n), second=lower_bidiagonal(bs), family=FAMILY_LOWER)


def doubling_bvector(n: int) -> tuple[Fraction, ...]:
    """The b-vector with entries b_i = 2^{n-1} + ... + 2^{n-i}; n=4 gives (8, 12, 14)."""
    if n < 3:
        raise ValueError("doubling b-vector requires n >= 3")
    return tuple(Fraction(2**n - 2 ** (n - i)) for i in range(1, n))


def g2_pair() -> GeneratorPair:
    """The G2 pair: the shift x and the lower bidiagonal z of G2_LOWER_B."""
    z = lower_bidiagonal(G2_LOWER_B)
    return GeneratorPair(first=shift_matrix(z.n), second=z, family=FAMILY_G2)


def build_pair(family: str, n: int, b: Sequence[Scalar] | None = None) -> GeneratorPair:
    """The n x n generator pair of a family; the lower family is built from b."""
    fam = lookup_family(family)
    b = fam.read_b(b, fam.check(n))
    if fam.shift_units is not None:
        return shift_pair(n, family)
    return lower_pair(b) if fam.takes_b else g2_pair()


class CriterionResult(namedtuple("CriterionResult", "values")):
    """The values a distinctness criterion inspects; it holds when the values
    and their negatives are pairwise distinct (in particular none is zero)."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return len({*self.values, *(-x for x in self.values)}) == 2 * len(self.values)


def prop2_criterion(cartan: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> CriterionResult:
    """Generation criterion for x = sum x_i, y = sum b_i y_i: the values v = C b,
    from the rows of the Cartan matrix C."""
    ell = len(cartan)
    if any(len(r) != ell for r in cartan):
        raise ValueError("Cartan matrix must be square")
    bs = bvector(b, ell + 1)
    v = tuple(sum(_rat(c) * x for c, x in zip(row, bs)) for row in cartan)
    return CriterionResult(values=v)


def type_a_cartan(ell: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of type A_l."""
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(ell))
        for i in range(ell)
    )
