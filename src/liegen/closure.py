"""Lie subalgebra closure and dimension-based type classification."""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Sequence

from .exact import Matrix, SpanBasis, _int_flatten
from .generators import lookup_family


class ClosureResult(namedtuple("ClosureResult", "basis dim rounds")):
    """Bracket-closed span basis with its dimension and sweep count."""

    __slots__ = ()


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
    return ClosureResult(basis=basis, dim=basis.rank, rounds=rounds)


class TypeLabel(namedtuple("TypeLabel", "family rank dim")):
    """Recognized simple type (or full matrix algebra / unrecognized): ``family``
    is "A", "B", "C", "G2", "full_matrix_algebra" or "unrecognized"."""

    __slots__ = ()

    @property
    def name(self) -> str:
        if self.family in ("A", "B", "C"):
            return f"{self.family}{self.rank}"
        return self.family


def classify(n: int, result: ClosureResult) -> TypeLabel:
    """Type lookup by (matrix size, closure dimension).

    B and C share the dimension m(2m+1); n's parity disambiguates.  The
    G2 case is pinned to (n, dim) = (7, 14).
    """
    return _type_of(n, result.dim)


def _type_of(n: int, dim: int) -> TypeLabel:
    if dim == n * n:
        return TypeLabel(family="full_matrix_algebra", rank=None, dim=dim)
    if dim == 0:  # the zero algebra, which is not simple, would read as A0
        return TypeLabel(family="unrecognized", rank=None, dim=dim)
    if dim == n * n - 1:
        return TypeLabel(family="A", rank=n - 1, dim=dim)
    if n == 7 and dim == 14:
        return TypeLabel(family="G2", rank=2, dim=dim)
    if n % 2 == 0:
        m = n // 2
        if dim == m * (2 * m + 1):
            return TypeLabel(family="C", rank=m, dim=dim)
    else:
        m = (n - 1) // 2
        if dim == m * (2 * m + 1):
            return TypeLabel(family="B", rank=m, dim=dim)
    return TypeLabel(family="unrecognized", rank=None, dim=dim)


def predicted_type(family: str, n: int) -> TypeLabel:
    """The type the family's pair generates (a lower pair: when b passes
    Proposition 2), as classify's lookup at the family's target dimension."""
    fam = lookup_family(family)
    n = fam.check(n)
    return _type_of(n, fam.target_dim(n))
