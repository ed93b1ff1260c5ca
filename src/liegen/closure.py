"""Lie subalgebra closure and dimension-based type classification."""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Sequence

from .exact import Matrix, SpanBasis, _int_flatten
from .generators import lookup_family


class ClosureResult(namedtuple("ClosureResult", "basis rounds")):
    """Bracket-closed span basis with its sweep count."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.basis.rank


def _by_row(v: dict[int, int], n: int) -> dict[int, list[tuple[int, int]]]:
    """Nonzero entries grouped by row, {i: [(j, a_ij)]}, 0-based."""
    rows = defaultdict(list)
    for k, x in v.items():
        i, j = divmod(k, n)
        rows[i].append((j, x))
    return rows


def _sparse_bracket(a: dict, b: dict, n: int) -> dict[int, int]:
    """[a, b] = ab - ba of two matrices grouped by row, as {row-major index: int}."""
    out: dict[int, int] = defaultdict(int)
    for left, right, sign in ((a, b, 1), (b, a, -1)):
        for i, row in left.items():
            for j, x in row:
                for k, y in right.get(j, ()):
                    out[i * n + k] += sign * x * y
    return {k: x for k, x in out.items() if x}


def subalgebra_closure(seed: Sequence[Matrix]) -> ClosureResult:
    """Smallest Lie subalgebra of gl(n) containing the seed matrices.

    Round k brackets each seed s with each element v that round k-1 added.
    The right-normed brackets [s1, [s2, ..., sk]] span the subalgebra the
    seeds generate, and ad(s) is linear, so a bracket [s, v] that does not
    grow the span needs no further bracketing.  ``rounds`` counts the last
    round, which adds nothing, unless the span is gl(n); a zero seed gives 1.
    The basis is canonical, so the result does not depend on bracket order.
    """
    if not seed:
        raise ValueError("seed must be nonempty")
    n = seed[0].n
    if any(m.n != n for m in seed):
        raise ValueError("seed matrices must share a dimension")
    basis = SpanBasis(n)
    gens: list[dict] = []  # spanning seeds, grouped by row
    for m in seed:
        v = _int_flatten(m)
        if basis.insert_flat(v):
            gens.append(_by_row(v, n))
    new = gens
    rounds = 0
    while basis.rank < n * n:
        rounds += 1
        found = []
        for v in new:
            for s in gens:
                c = _sparse_bracket(s, v, n)
                if c and basis.insert_flat(c):
                    found.append(_by_row(c, n))
        if not found:
            break
        new = found
    return ClosureResult(basis=basis, rounds=rounds)


class TypeLabel(namedtuple("TypeLabel", "family rank dim")):
    """Recognized simple type (or full matrix algebra / unrecognized): ``family``
    is "A", "B", "C", "G2", "full_matrix_algebra" or "unrecognized"."""

    __slots__ = ()

    @property
    def name(self) -> str:
        if self.family in ("A", "B", "C"):
            return f"{self.family}{self.rank}"
        return self.family


def simple_types(n: int) -> list[TypeLabel]:
    """The simple types a subalgebra of gl(n) is named as, in lookup order:
    A_{n-1}, then C_m for n = 2m or B_m for n = 2m + 1, both of dimension
    m(2m + 1), then G2 at n = 7."""
    m = n // 2
    types = [TypeLabel("A", n - 1, n * n - 1),
             TypeLabel("C" if n % 2 == 0 else "B", m, m * (2 * m + 1))]
    return types + [TypeLabel("G2", 2, 14)] if n == 7 else types


def classify(n: int, dim: int) -> TypeLabel:
    """Type lookup by (matrix size, closure dimension): the first simple type
    of that dimension, so A before C at n = 2."""
    if dim == n * n:
        return TypeLabel(family="full_matrix_algebra", rank=None, dim=dim)
    # dim > 0: the zero algebra, which is not simple, would read as A0
    named = [t for t in simple_types(n) if t.dim == dim > 0]
    return named[0] if named else TypeLabel(family="unrecognized", rank=None, dim=dim)


def predicted_type(family: str, n: int) -> TypeLabel:
    """The type the family's pair generates (a lower pair: when b passes
    Proposition 2): the family's target type in the table of gl(n)'s types."""
    fam = lookup_family(family)
    n = fam.check(n)
    return next(t for t in simple_types(n) if t.family == fam.target(n))
