"""Output oracles for ``liegen`` invocations, independent of the library.

``check(argv, code, stdout)`` returns the list of problems found in one
invocation's exit code and JSON output; an empty list means the output is
correct.  Every check is exact (``Fraction`` arithmetic) and recomputes what
it needs from the argv and the mathematics, never from ``liegen``:

- classify: the closure dimension and type name equal the known type of the
  pair (A_{n-1} of dimension n^2 - 1 for lower pairs that pass Proposition 2);
- scan: ``words_checked`` equals 2 * sum_{k=1..L} (2E)^k, every reported
  collision is a reduced word that evaluates to the identity, and the exit
  code is 1 exactly when there are collisions;
- bounds, certify: the emitted polynomials are the ping-pong polynomials,
  p(lo) <= 0 < p(hi), hi - lo <= width, p(safe) > 0, and p(x + safe) has no
  coefficient sign change (so p > 0 on [safe, oo)); a certificate's
  conclusion follows from its closure dimension and safe values;
- exp, thin: the matrices equal the closed-form exponentials, and a thin
  pair is certified exactly when |t| clears the t polynomial's root and
  |s| > 2.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional, Sequence

DEFAULT_WIDTH = Fraction(1, 2**40)
G2_B = tuple(Fraction(x) for x in (1, -1, 2, 2, -1, 1))
FAMILY_NAMES = {
    "corner": "corner",
    "double_corner": "double_corner",
    "lower": "lower_bidiagonal",
    "g2": "g2_7x7",
}

Poly = list[Fraction]  # ascending coefficients
Mat = list[list[Fraction]]


def options(argv: Sequence[str]) -> dict[str, str]:
    """``--opt=value`` arguments as a dict (the workloads write no other form)."""
    return dict(a[2:].split("=", 1) for a in argv[1:])


# ---------------------------------------------------------------- mathematics


def expected_type(family: str, n: int) -> tuple[str, int]:
    """(type name, dimension) of the Lie algebra a named pair generates."""
    a = (f"A{n - 1}", n * n - 1)
    half = n // 2
    bc = half * (2 * half + 1)
    if family == "corner":
        return (f"C{half}", bc) if n % 2 == 0 else a
    if family == "double_corner":
        if n % 2 == 0:
            return a
        return ("G2", 14) if n == 7 else (f"B{half}", bc)
    if family == "g2":
        return ("G2", 14)
    if family == "lower":
        return a
    raise ValueError(f"unknown family {family!r}")


def doubling(n: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(sum(2 ** (n - j) for j in range(1, i + 1))) for i in range(1, n)
    )


def parse_b(spec: str, n: int) -> tuple[Fraction, ...]:
    return doubling(n) if spec == "doubling" else tuple(Fraction(x) for x in spec.split(","))


def peval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def taylor_shift(p: Poly, c: Fraction) -> Poly:
    """Coefficients of p(x + c), by repeated synthetic division."""
    q = list(p)
    for i in range(len(q)):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += c * q[j + 1]
    return q


def sign_changes(p: Poly) -> int:
    signs = [c > 0 for c in p if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def t_poly(n: int) -> Poly:
    """T^{n-1}/(n-1)! - 2 sum_{i=1}^{n-1} T^{i-1}/(i-1)!."""
    return [Fraction(-2, math.factorial(i)) for i in range(n - 1)] + [
        Fraction(1, math.factorial(n - 1))
    ]


def lower_c(b: Sequence[Fraction], j: int, d: int) -> Fraction:
    """c_{d,j} = b_{j-1} b_{j-2} ... b_{j-d} (1-based b)."""
    return math.prod((b[j - k - 1] for k in range(1, d + 1)), start=Fraction(1))


def r_polys(n: int, b: Sequence[Fraction]) -> list[Poly]:
    """The n - 1 r-polynomials, before clearing denominators."""
    out = []
    for j in range(1, n):
        p = [Fraction(0)] * n
        p[n - 1] = abs(lower_c(b, n, n - 1)) / math.factorial(n - 1)
        for i in range(2, n + 1):
            p[n - i] -= abs(lower_c(b, n, n - i)) / math.factorial(n - i)
        for i in range(1, j + 1):
            p[j - i] -= abs(lower_c(b, j, j - i)) / math.factorial(j - i)
        out.append(p)
    return out


def proportional(p: Poly, q: Poly) -> bool:
    """p = k q for some k > 0 (trailing zeros ignored)."""
    p, q = _trim(p), _trim(q)
    if len(p) != len(q) or not p:
        return False
    k = p[-1] / q[-1]
    return k > 0 and all(a == k * b for a, b in zip(p, q))


def _trim(p: Poly) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def exp_upper(t: Fraction, n: int) -> Mat:
    return [
        [t ** (j - i) / math.factorial(j - i) if j >= i else Fraction(0) for j in range(n)]
        for i in range(n)
    ]


def exp_corner(s: Fraction, n: int) -> Mat:
    m = identity(n)
    m[n - 1][0] = s
    return m


def exp_lower(r: Fraction, b: Sequence[Fraction]) -> Mat:
    n = len(b) + 1
    m = identity(n)
    for j in range(2, n + 1):
        for i in range(1, j):
            d = j - i
            m[j - 1][i - 1] = lower_c(b, j, d) * r**d / math.factorial(d)
    return m


def shift(n: int) -> Mat:
    return [[Fraction(int(j == i + 1)) for j in range(n)] for i in range(n)]


def second_generator(family: str, n: int, b: Optional[Sequence[Fraction]]) -> Mat:
    m = [[Fraction(0)] * n for _ in range(n)]
    if family == "corner":
        m[n - 1][0] = Fraction(1)
    else:
        for i, x in enumerate(b if family == "lower" else G2_B):
            m[i + 1][i] = x
    return m


def matrix_entries(doc: dict) -> Mat:
    return [[Fraction(x) for x in row] for row in doc["entries"]]


# ---------------------------------------------------------------- checks


class Problems(list):
    def need(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def check_classify(opts: dict, code: int, doc: dict, out: Problems) -> None:
    family = opts["family"]
    n = 7 if family == "g2" else int(opts["n"])
    name, dim = expected_type(family, n)
    out.need(code == 0, f"exit code {code}, expected 0")
    out.need(doc["dim"] == dim, f"dim {doc['dim']}, expected {dim}")
    out.need(doc["type"]["name"] == name, f"type {doc['type']['name']}, expected {name}")
    out.need(doc["family"] == FAMILY_NAMES[family], f"family {doc['family']}")
    out.need(doc["n"] == n, f"n {doc['n']}, expected {n}")


def check_scan(opts: dict, code: int, doc: dict, out: Problems) -> None:
    n, syll, e = int(opts["n"]), int(opts["max-syll"]), int(opts["max-exp"])
    words = 2 * sum((2 * e) ** k for k in range(1, syll + 1))
    out.need(doc["words_checked"] == words, f"words_checked {doc['words_checked']}, expected {words}")
    out.need(
        (doc["n"], doc["max_syllables"], doc["max_exponent"]) == (n, syll, e),
        "scan echo differs from the argv",
    )
    t = Fraction(opts["t"])
    if "s" in opts:
        s = Fraction(opts["s"])
        gen_b = lambda k: exp_corner(k * s, n)
    else:
        r, b = Fraction(opts["r"]), parse_b(opts["b"], n)
        gen_b = lambda k: exp_lower(k * r, b)
    gens = {"A": lambda k: exp_upper(k * t, n), "B": gen_b}
    one = identity(n)
    seen = set()
    for word in doc["collisions"]:
        key = tuple((g, k) for g, k in word)
        reduced = (
            0 < len(word) <= syll
            and all(g in gens and k != 0 and abs(k) <= e for g, k in word)
            and all(a[0] != b[0] for a, b in zip(word, word[1:]))
        )
        out.need(reduced and key not in seen, f"collision {word} is not a new reduced word")
        seen.add(key)
        if not reduced:
            continue
        prod = one
        for g, k in word:
            prod = matmul(prod, gens[g](k))
        out.need(prod == one, f"collision {word} is not the identity")
    expected_code = 1 if doc["collisions"] else 0
    out.need(code == expected_code, f"exit code {code}, expected {expected_code}")


def check_bound(bound: dict, polys: list[Poly], kind: str, width: Fraction, out: Problems) -> Fraction:
    """Check one emitted ping-pong bound against the independent polynomials."""
    out.need(bound["kind"] == kind, f"bound kind {bound['kind']}, expected {kind}")
    emitted = bound["polynomials"]
    out.need(len(emitted) == len(polys), f"{kind}: {len(emitted)} polynomials, expected {len(polys)}")
    for doc, p in zip(emitted, polys):
        for field in ("coefficients", "integer_coefficients"):
            out.need(
                proportional([Fraction(c) for c in doc[field]], p),
                f"{kind}: {field} are not the ping-pong polynomial",
            )
    safe = Fraction(bound["safe_value"])
    br = bound["bracket"]
    if br is None:
        out.need(False, f"{kind}: no root bracket")
    else:
        lo, hi = Fraction(br["lo"]), Fraction(br["hi"])
        out.need(0 < hi - lo <= width, f"{kind}: bracket width {hi - lo} exceeds {width}")
        out.need(
            any(peval(p, lo) <= 0 < peval(p, hi) for p in polys),
            f"{kind}: [{lo}, {hi}] brackets no sign change",
        )
        out.need(hi <= safe, f"{kind}: safe value {safe} below bracket top {hi}")
    for p in polys:
        out.need(peval(p, safe) > 0, f"{kind}: p(safe) <= 0 at safe = {safe}")
        out.need(
            sign_changes(taylor_shift(p, safe)) == 0,
            f"{kind}: p(x + {safe}) has a sign change: no positivity witness",
        )
    return safe


def check_bounds(opts: dict, code: int, doc: dict, out: Problems) -> None:
    family = opts["family"]
    n = 7 if family == "g2" else int(opts["n"])
    width = Fraction(opts["width"]) if "width" in opts else DEFAULT_WIDTH
    out.need(code == 0, f"exit code {code}, expected 0")
    out.need(Fraction(doc["width"]) == width, f"width {doc['width']}, expected {width}")
    out.need((doc["family"], doc["n"]) == (FAMILY_NAMES[family], n), "bounds echo differs")
    check_bound(doc["t"], [t_poly(n)], "t_bound", width, out)
    if family == "corner":
        out.need(doc["s0"] == "2", f"s0 {doc['s0']}, expected 2")
        return
    b = G2_B if family == "g2" else parse_b(opts.get("b", "doubling"), n)
    check_bound(doc["r"], r_polys(n, b), "r_bound", width, out)


def check_certify(opts: dict, code: int, doc: dict, out: Problems) -> None:
    family = opts["family"]
    n = 7 if family == "g2" else int(opts["n"])
    width = Fraction(opts["width"]) if "width" in opts else DEFAULT_WIDTH
    b = parse_b(opts["b"], n) if family == "lower" else None
    name, dim = expected_type(family, n)
    closure = doc["closure"]
    out.need(closure["dim"] == dim, f"closure dim {closure['dim']}, expected {dim}")
    out.need(closure["type"] == name, f"closure type {closure['type']}, expected {name}")
    out.need(
        (closure["target_dim"], closure["target_type"]) == (dim, name),
        f"target {closure['target_type']}/{closure['target_dim']}, expected {name}/{dim}",
    )
    gens = doc["generators"]
    out.need(matrix_entries(gens["first"]) == shift(n), "first generator is not the shift")
    out.need(
        matrix_entries(gens["second"]) == second_generator(family, n, b),
        "second generator differs",
    )
    out.need(Fraction(doc["input"]["width"]) == width, "width echo differs")

    t = Fraction(opts["t"])
    t_safe = check_bound(doc["bounds"]["t"], [t_poly(n)], "t_bound", width, out)
    if family == "corner":
        second, threshold = Fraction(opts["s"]), Fraction(2)
        out.need(doc["bounds"].get("s0") == "2", "s0 missing or not 2")
    else:
        second = Fraction(opts["r"])
        threshold = check_bound(
            doc["bounds"]["r"], r_polys(n, G2_B if b is None else b), "r_bound", width, out
        )
    dense = closure["dim"] == dim and t != 0 and second != 0
    free = abs(t) > t_safe and abs(second) > threshold
    conclusion = (
        "free_dense_certified" if dense and free else "dense_only" if dense else "insufficient"
    )
    out.need(doc["conclusion"] == conclusion, f"conclusion {doc['conclusion']}, expected {conclusion}")
    expected_code = 0 if conclusion == "free_dense_certified" else 1
    out.need(code == expected_code, f"exit code {code}, expected {expected_code}")


def check_exp(opts: dict, code: int, doc: dict, out: Problems) -> None:
    kind, n = opts["kind"], int(opts["n"])
    if kind == "upper":
        m = exp_upper(Fraction(opts["t"]), n)
    elif kind == "corner":
        m = exp_corner(Fraction(opts["s"]), n)
    else:
        m = exp_lower(Fraction(opts["r"]), parse_b(opts.get("b", "doubling"), n))
    out.need(code == 0, f"exit code {code}, expected 0")
    out.need(matrix_entries(doc["matrix"]) == m, f"exp {kind} matrix differs")


def check_thin(opts: dict, code: int, doc: dict, out: Problems) -> None:
    n, q, s = int(opts["n"]), int(opts["q"]), int(opts["s"])
    t = math.factorial(n - 1) * q
    out.need((doc["t"], doc["s"]) == (t, s), f"t, s = {doc['t']}, {doc['s']}; expected {t}, {s}")
    out.need(matrix_entries(doc["first"]) == exp_upper(Fraction(t), n), "first matrix differs")
    out.need(matrix_entries(doc["second"]) == exp_corner(Fraction(s), n), "second matrix differs")
    # The t polynomial has one positive root (one coefficient sign change),
    # and the certified bound lies above it by less than 1/256.  So a
    # certified |t| must clear the root, and an uncertified one (with
    # |s| > 2) must lie below root + 1/256.
    p = t_poly(n)
    if doc["certified"]:
        out.need(peval(p, Fraction(abs(t))) > 0 and abs(s) > 2, "certified below the thresholds")
    else:
        out.need(
            abs(s) <= 2 or peval(p, abs(t) - Fraction(1, 256)) <= 0,
            "not certified although |t| and |s| clear the thresholds",
        )
    out.need((doc["warning"] is None) == doc["certified"], "warning does not match certified")
    expected_code = 0 if doc["certified"] else 1
    out.need(code == expected_code, f"exit code {code}, expected {expected_code}")


CHECKS = {
    "classify": check_classify,
    "scan": check_scan,
    "bounds": check_bounds,
    "certify": check_certify,
    "exp": check_exp,
    "thin": check_thin,
}


def check(argv: Sequence[str], code: int, stdout: str) -> list[str]:
    """Problems with one invocation's exit code and output; [] when correct."""
    out = Problems()
    if code not in (0, 1):
        out.append(f"exit code {code} outside {{0, 1}}")
        return out
    try:
        doc = json.loads(stdout)
        CHECKS[argv[0]](options(argv), code, doc, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out.append(f"malformed output: {type(exc).__name__}: {exc}")
    return out
