"""The paper's lemmas as exact test oracles; imported by the tests, not collected.

Each oracle checks a claim of the paper against the library by a route
that the library does not take: the closed form of [x^s, y], the G2
canonical relations, Proposition 1, the ping-pong region inclusions, the
generic exponential series, word products and form preservation.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

from liegen.exact import Matrix, Scalar, bracket
from liegen.generators import (
    FAMILY_CORNER,
    FAMILY_DOUBLE_CORNER,
    CriterionResult,
    g2_pair,
)
from liegen.groups import exp_corner, exp_lower, exp_upper
from liegen.pingpong import S0, compute_r0, compute_t0


# ---------------------------------------------------------------- [x^s, y]


def c_shift(s: int, i: int) -> int:
    """C(s, i) = binom(s, i) - binom(s, i-1); zero outside -1 < i < s+2."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if i < 0 or i > s + 1:
        return 0
    return math.comb(s, i) - (math.comb(s, i - 1) if i >= 1 else 0)


def iterated_bracket(x: Matrix, y: Matrix, s: int) -> Matrix:
    """The s-fold left bracket [x, [x, ... [x, y]]]; s = 0 gives y."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    for _ in range(s):
        y = bracket(x, y)
    return y


def closed_form_bracket(n: int, s: int, variant: str) -> Matrix:
    """Closed form of [x^s, y] for the shift x and the corner / double corner y."""
    if not 0 <= s <= 2 * n:
        raise ValueError("s out of range")
    if variant == FAMILY_CORNER:
        terms = [(n - s + i, i + 1, (-1) ** i * math.comb(s, i))
                 for i in range(max(0, s - n + 1), min(s, n - 1) + 1)]
    elif variant == FAMILY_DOUBLE_CORNER:
        terms = [(n - s + i - 1, i + 1, (-1) ** i * c_shift(s, i))
                 for i in range(max(0, s - n + 2), min(s + 1, n - 1) + 1)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return Matrix.from_units(n, terms)


# ---------------------------------------------------------------- G2 and sl(n) criteria

#: Cartan matrix of type G2 in the ordering of g2_pieces.
G2_CARTAN = ((2, -3), (-1, 2))


def g2_pieces() -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """The four 7x7 root-vector matrices (x1, x2, y1, y2) of the G2 realization."""
    x1 = Matrix.from_units(7, [(2, 3, 1), (5, 6, 1)])
    y1 = Matrix.from_units(7, [(3, 2, 1), (6, 5, 1)])
    x2 = Matrix.from_units(7, [(1, 2, 1), (3, 4, 1), (4, 5, 1), (6, 7, 1)])
    y2 = Matrix.from_units(7, [(2, 1, 1), (4, 3, 2), (5, 4, 2), (7, 6, 1)])
    return x1, x2, y1, y2


def g2_relation_failures() -> list[str]:
    """Every canonical relation of (x_i, y_i, h_i = [x_i, y_i]) with G2_CARTAN
    that fails, and whether g2_pair is (x1 + x2, -y1 + y2); empty if all hold."""
    x1, x2, y1, y2 = g2_pieces()
    xs, ys = (x1, x2), (y1, y2)
    hs = (bracket(x1, y1), bracket(x2, y2))
    zero = Matrix([[0] * 7] * 7)
    bad = []
    for i in range(2):
        for j in range(2):
            c = G2_CARTAN[j][i]
            if bracket(hs[i], hs[j]) != zero:
                bad.append(f"[h{i+1},h{j+1}] != 0")
            if bracket(hs[i], xs[j]) != c * xs[j]:
                bad.append(f"[h{i+1},x{j+1}] != C({j+1},{i+1}) x{j+1}")
            if bracket(hs[i], ys[j]) != -c * ys[j]:
                bad.append(f"[h{i+1},y{j+1}] != -C({j+1},{i+1}) y{j+1}")
            if bracket(xs[i], ys[j]) != (hs[i] if i == j else zero):
                bad.append(f"[x{i+1},y{j+1}] wrong")
    pair = g2_pair()
    if pair.first != x1 + x2 or pair.second != -y1 + y2:
        bad.append("g2_pair is not (x1 + x2, -y1 + y2)")
    return bad


def prop1_criterion(h: Matrix) -> CriterionResult:
    """Proposition 1 for sl(n): the root values h_ii - h_{i+1,i+1} of a diagonal
    traceless h, which hold when the 2(n-1) values +-v are pairwise distinct."""
    n = h.n
    if any(h[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j):
        raise ValueError("h must be diagonal")
    if sum(h[i, i] for i in range(1, n + 1)) != 0:
        raise ValueError("h must be traceless")
    return CriterionResult(values=tuple(h[i, i] - h[i + 1, i + 1] for i in range(1, n)))


# ---------------------------------------------------------------- forms


def diagram_automorphism(a: Matrix) -> Matrix:
    """The order-2 automorphism e_{i,j} -> (-1)^{i-j+1} e_{n-j+1,n-i+1}."""
    n = a.n
    return Matrix.from_units(n, [
        (n + 1 - j, n + 1 - i, (-1 if (i - j) % 2 == 0 else 1) * a[i, j])
        for i in range(1, n + 1) for j in range(1, n + 1) if a[i, j]
    ])


def transpose(m: Matrix) -> Matrix:
    """m^T."""
    return Matrix(list(zip(*m.rows)))


def form_matrix(n: int) -> Matrix:
    """J = sum_i (-1)^i e_{i, n+1-i}: alternating for n even, symmetric for n odd.

    -J z^T J^-1 is the diagram automorphism e_{i,j} -> (-1)^{i-j+1} e_{n-j+1,n-i+1}.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return Matrix.from_units(n, [(i, n + 1 - i, (-1) ** i) for i in range(1, n + 1)])


def form_conjugate(z: Matrix, j: Matrix) -> Matrix:
    """-J z^T J^-1 for a form matrix J with J^2 = sigma I, so J^-1 = sigma J."""
    sigma = (j * j)[1, 1]
    return -(j * transpose(z) * (sigma * j))


def check_form(g: Matrix, j: Matrix) -> bool:
    """Whether g preserves the bilinear form of J: g^T J g = J."""
    return transpose(g) * j * g == j


# ---------------------------------------------------------------- spans


def flat(m: Matrix) -> dict[int, int]:
    """m as the sparse integer row that ``SpanBasis.insert_flat`` takes: its
    nonzero entries by row-major index, times the lcm of their denominators."""
    entries = m.flatten()
    den = math.lcm(*(x.denominator for x in entries))
    return {k: int(x * den) for k, x in enumerate(entries) if x}


# ---------------------------------------------------------------- group elements


def exp_nilpotent(m: Matrix, t: Scalar) -> Matrix:
    """exp(t m) by the exponential series, whose terms past m^{n-1} vanish for
    nilpotent m; ValueError when m^n != 0."""
    total = mk = Matrix.identity(m.n)
    for k in range(1, m.n):
        mk = mk * m
        total = total + (Fraction(t) ** k / math.factorial(k)) * mk
    if not (mk * m).is_zero():
        raise ValueError("matrix is not nilpotent")
    return total


def word_eval(
    word: Sequence[tuple[str, int]], gen_a: Callable[[int], Matrix],
    gen_b: Callable[[int], Matrix],
) -> Matrix:
    """Product of the word's syllables (symbol, exponent), left to right;
    gen_a(0) is the identity."""
    maps = {"A": gen_a, "B": gen_b}
    return math.prod((maps[g](e) for g, e in word), start=gen_a(0))


def power(m: Matrix, k: int) -> Matrix:
    """m^k for k >= 0, as a product of k factors."""
    return math.prod([m] * k, start=Matrix.identity(m.n))


def apply(m: Matrix, v: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """m times the column vector v."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m.rows)


def det(m: Matrix) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    a = [list(row) for row in m.rows]
    out = Fraction(1)
    for col in range(m.n):
        piv = next((r for r in range(col, m.n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, m.n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


# ---------------------------------------------------------------- ping-pong

X1, X2 = 0, -1  # the index whose coordinate dominates in each region
M_VALUES = (-3, -2, -1, 1, 2, 3)


def in_region(v: Sequence[Scalar], top: int) -> bool:
    """Whether |v[top]| strictly exceeds every other |v_i|: X1 for top = 0,
    X2 for top = -1."""
    top %= len(v)
    return all(abs(v[top]) > abs(x) for i, x in enumerate(v) if i != top)


def pingpong_spotcheck(
    n: int,
    kind: str,
    parameter: Scalar,
    b: Optional[Sequence[Scalar]] = None,
    samples: int = 200,
    seed: int = 0,
) -> list[tuple]:
    """The violations (v, m, g^m v) of the inclusion that generator ``kind``
    ("a", "b" or "c") at ``parameter`` must satisfy, over ``samples`` random
    integer vectors v of the source region and m in M_VALUES; [] when none.

    Refuses parameters at or below the certified bound, where the inclusion
    carries no guarantee.
    """
    parameter = Fraction(parameter)
    if kind == "a":
        bound, source, target = compute_t0(n).safe_value, X2, X1
        powered = lambda m: exp_upper(m * parameter, n)
    elif kind == "b":
        bound, source, target = S0, X1, X2
        powered = lambda m: exp_corner(m * parameter, n)
    elif kind == "c":
        bound, source, target = compute_r0(b).safe_value, X1, X2
        powered = lambda m: exp_lower(m * parameter, b)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    if abs(parameter) <= bound:
        raise ValueError(f"parameter {parameter} does not exceed the certified bound {bound}")
    rng = random.Random(seed)
    mats = {m: powered(m) for m in M_VALUES}
    violations = []
    for _ in range(samples):
        v = None
        while v is None or not in_region(v, source):
            v = [rng.randint(-100, 100) for _ in range(n)]
        for m, g in mats.items():
            image = apply(g, v)
            if not in_region(image, target):
                violations.append((tuple(v), m, image))
    return violations
