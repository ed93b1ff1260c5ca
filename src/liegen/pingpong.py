"""Ping-pong inequality polynomials, certified parameter bounds, certificates.

The dominance regions X1 (first coordinate strictly largest in absolute
value) and X2 (last coordinate strictly largest) support a ping-pong
argument: a(t)^m maps X2 into X1 once |t| clears a polynomial bound t0,
b(s)^m maps X1 into X2 for |s| > 2, and c(r)^m maps X1 into X2 once |r|
clears the bound r0 from a family of n-1 polynomials.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .exact import (
    DEFAULT_WIDTH,
    Polynomial,
    RootBracket,
    Scalar,
    _descartes_sign_changes,
    _rat,
    isolate_largest_positive_root,
)
from .closure import TypeLabel, classify, predicted_type, subalgebra_closure
from .generators import build_pair, bvector, lookup_family, lower_coefficients

#: Threshold for b(s)^m X1 in X2.
S0 = Fraction(2)


def t_inequality(n: int) -> Polynomial:
    """p(T) = T^{n-1}/(n-1)! - 2 sum_{i=1}^{n-1} T^{i-1}/(i-1)!.

    Positivity of p(|t|) is the condition for a(t)^m X2 in X1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    coeffs = [Fraction(-2, math.factorial(i - 1)) for i in range(1, n)]
    coeffs.append(Fraction(1, math.factorial(n - 1)))
    return Polynomial(coeffs)


def r_inequalities(b: Sequence[Scalar]) -> list[Polynomial]:
    """The n-1 polynomials, n = len(b) + 1, whose joint positivity at |r| gives
    c(r)^m X1 in X2.  For each 1 <= j <= n-1 the polynomial is

        R^{n-1}/(n-1)! |c_{n-1,n}| - sum_{i=2}^n R^{n-i}/(n-i)! |c_{n-i,n}|
            - sum_{i=1}^j |c_{j-i,j}| R^{j-i}/(j-i)!

    stored with denominators cleared (integer coefficients, matching the
    displayed paper forms: no further division by the content).  The |c_{d,j}|
    are products of the |b_i|, in ints where those are integers; each
    coefficient x/d! is put in lowest terms by one divmod by d!, with a gcd
    only where d! leaves a remainder, and the lcm of a polynomial's reduced
    denominators scales it to integers.
    """
    n = len(b) + 1
    if n < 2:
        raise ValueError("n must be at least 2")
    c = lower_coefficients([abs(x.numerator) if x.denominator == 1 else abs(x)
                            for x in bvector(b, n)])
    fact = [math.factorial(d) for d in range(n)]

    def over(x: Scalar, f: int) -> tuple[int, int]:
        # x/f in lowest terms, as (numerator, denominator)
        q, r = divmod(x.numerator, f)
        if not r:
            return q, x.denominator
        g = math.gcd(r, f)
        return x.numerator // g, x.denominator * (f // g)

    lhs = [over(-x, f) for x, f in zip(c[n], fact)]
    lhs[n - 1] = over(c[n][n - 1], fact[n - 1])
    polys = []
    for j in range(1, n):
        cs = [over(-x - y, f) for x, y, f in zip(c[n], c[j], fact)] + lhs[j:]
        den = math.lcm(*(q for _, q in cs))
        polys.append(Polynomial([p * (den // q) for p, q in cs]))
    return polys


class PingPongBound(namedtuple("PingPongBound", "kind polys bracket safe_value")):
    """Certified bound of ``kind`` "t_bound" or "r_bound": every polynomial is
    positive at safe_value and beyond."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: both check

    def __new__(cls, kind: str, polys: tuple[Polynomial, ...], bracket: RootBracket,
                safe_value: Fraction) -> PingPongBound:
        # witness of p > 0 on [safe_value, oo): lead > 0, <= 1 sign change, p(safe) > 0
        for p in polys:
            ints = p.integer_coefficients()
            if p(safe_value) <= 0 or ints[-1] < 0 or _descartes_sign_changes(ints) > 1:
                raise AssertionError("safe_value lacks a positivity witness")
        if bracket.hi > safe_value:
            raise AssertionError("bracket exceeds safe_value")
        return super().__new__(cls, kind, polys, bracket, safe_value)


def _bound_from_polys(kind: str, polys: Sequence[Polynomial], width: Fraction) -> PingPongBound:
    # every coefficient but the leading one is negative, so each p has one positive
    # root, all below top.hi: the least multiple of 1/1024 at or above top.hi is safe
    top = isolate_largest_positive_root(polys, width)
    safe = Fraction(math.ceil(top.hi * 1024), 1024)
    return PingPongBound(kind=kind, polys=tuple(polys), bracket=top, safe_value=safe)


def compute_t0(n: int, width: Fraction = DEFAULT_WIDTH) -> PingPongBound:
    """Certified threshold for Lemma-a style inclusion a(t)^m X2 in X1."""
    return _bound_from_polys("t_bound", [t_inequality(n)], width)


def compute_r0(b: Sequence[Scalar], width: Fraction = DEFAULT_WIDTH) -> PingPongBound:
    """Certified threshold for the c(r)^m X1 in X2 inclusion, n = len(b) + 1."""
    return _bound_from_polys("r_bound", r_inequalities(b), width)


def second_bound(
    family: str, n: int, b: Sequence[Scalar] | None = None, width: Fraction = DEFAULT_WIDTH
) -> PingPongBound | None:
    """Bound on the second generator's parameter: r0 of the lower bidiagonal
    second generator (b fixed for G2), None where the threshold is S0 = 2."""
    fam = lookup_family(family)
    if fam.second is None:
        raise ValueError(f"family {family!r} has no certified ping-pong bounds")
    n = fam.size(n)
    b = fam.read_b(b, n)
    return None if fam.second == "s" else compute_r0(b, width)


def freeness_warning(t: Scalar, t_bound: PingPongBound, x: Scalar,
                     bound: PingPongBound | None = None) -> str | None:
    """Ping-pong test (Tits 1972) of t and x, which is r with ``bound`` (r0) and s
    without (S0): None when |t| > t0 and |x| > x0; else a warning on the first that fails."""
    name, x0, what = ("s", S0, "s0 =") if bound is None else (
        "r", bound.safe_value, "the certified bound")
    if abs(t) <= t_bound.safe_value:
        return f"|t| = {abs(t)} does not exceed the certified bound {t_bound.safe_value}"
    if abs(x) <= x0:
        return f"|{name}| = {abs(x)} does not exceed {what} {x0}"
    return None


CONCLUSION_FREE_DENSE = "free_dense_certified"
CONCLUSION_DENSE_ONLY = "dense_only"
CONCLUSION_INSUFFICIENT = "insufficient"


class Certificate(namedtuple("Certificate", "pair t second closure t_bound second_bound")):
    """Density (Lie algebra closure) and freeness (ping-pong) certificate of ``pair``
    at t and ``second`` (s or r); ``second_bound`` is None when the threshold is S0 = 2."""

    __slots__ = ()

    @property
    def type_label(self) -> TypeLabel:
        return classify(self.pair.n, self.closure.dim)

    @property
    def target(self) -> TypeLabel:
        return predicted_type(self.pair.family, self.pair.n)

    @property
    def parameters(self) -> dict:
        params = {"t": self.t, lookup_family(self.pair.family).second: self.second}
        return params if self.pair.b is None else params | {"b": self.pair.b}

    @property
    def conclusion(self) -> str:
        """Density: the closure has the target type, and t and ``second`` are nonzero;
        freeness: they pass ``freeness_warning``.  Without density, insufficient."""
        if self.type_label != self.target or not (self.t and self.second):
            return CONCLUSION_INSUFFICIENT
        if freeness_warning(self.t, self.t_bound, self.second, self.second_bound) is None:
            return CONCLUSION_FREE_DENSE
        return CONCLUSION_DENSE_ONLY


def certify_free_dense(
    n: int,
    family: str,
    t: Scalar,
    second: Scalar,
    b: Sequence[Scalar] | None = None,
    width: Fraction = DEFAULT_WIDTH,
) -> Certificate:
    """Certify that <exp(t x), exp(s y)> (or c(r)) is free and Zariski dense;
    ``second`` is the value of s or r, the parameter that ``Family.second`` names.
    ``insufficient`` is a valid conclusion, never an error.
    """
    t, second = _rat(t), _rat(second)
    n = lookup_family(family).check(n)
    bound = second_bound(family, n, b, width)
    pair = build_pair(family, n, b)
    return Certificate(pair=pair, t=t, second=second,
                       closure=subalgebra_closure([pair.first, pair.second]),
                       t_bound=compute_t0(n, width), second_bound=bound)
