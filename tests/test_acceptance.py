"""Acceptance suite.

One test per criterion; each prints a single "ACCEPTANCE k: PASS|FAIL" line.

The stated n=3 ping-pong threshold 1+sqrt(3) is an erratum.  It is the root
of T^2/2 - T - 1, the n=3 inequality with the factor 2 dropped.  The
inequality itself, p_3(T) = T^2/2 - 2T - 2 (``t_inequality(3)``, the same
formula that gives the asserted n=2, 4 and 7 values), is negative at
1+sqrt(3) (value -2-sqrt(3)); its positive root is 2+2*sqrt(2) = 4.8284...
Criteria 3, 5 and 9 therefore assert 2+2*sqrt(2) and the certified bound
4945/1024 above it, and keep exact checks of why 1+sqrt(3) fails: p_3 < 0
there, and at t = 3 > 1+sqrt(3) an X2 vector leaves X1 under a(t).
"""

import json
import math
import random
import time
from fractions import Fraction

from liegen.cli import main as cli_main
from liegen.closure import classify, subalgebra_closure
from liegen.exact import Matrix
from liegen.generators import (
    FAMILY_CORNER,
    FAMILY_DOUBLE_CORNER,
    doubling_bvector,
    g2_pair,
    lower_bidiagonal,
    prop2_criterion,
    shift_matrix,
    shift_pair,
    type_a_cartan,
)
from liegen.groups import (
    exp_corner,
    exp_lower,
    exp_upper,
    freeness_scan,
    thin_pair,
)
from liegen.pingpong import compute_r0, compute_t0, r_inequalities, t_inequality

from paper_oracles import (
    G2_CARTAN,
    X1,
    X2,
    apply,
    check_form,
    closed_form_bracket,
    det,
    exp_nilpotent,
    form_matrix,
    g2_relation_failures,
    in_region,
    iterated_bracket,
    pingpong_spotcheck,
    word_eval,
)


def finish(number, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number}: {status}")
    assert not failures, f"criterion {number}: {failures}"


def closure_name(pair):
    res = subalgebra_closure([pair.first, pair.second])
    return classify(pair.n, res.dim).name, res.dim


def test_acceptance_01_closure_type_table():
    failures = []
    start = time.monotonic()
    expect_corner = {3: "A2", 5: "A4", 7: "A6", 9: "A8",
                     4: "C2", 6: "C3", 8: "C4", 10: "C5"}
    for n, want in expect_corner.items():
        got, _ = closure_name(shift_pair(n, FAMILY_CORNER))
        if got != want:
            failures.append(f"corner n={n}: {got} != {want}")
    expect_double = {4: "A3", 6: "A5", 8: "A7", 5: "B2", 9: "B4", 11: "B5", 7: "G2"}
    for n, want in expect_double.items():
        got, dim = closure_name(shift_pair(n, FAMILY_DOUBLE_CORNER))
        if got != want:
            failures.append(f"double_corner n={n}: {got} != {want}")
        if n == 7 and dim != 14:
            failures.append(f"double_corner n=7 dim {dim} != 14")
    _, g2dim = closure_name(g2_pair())
    if g2dim != 14:
        failures.append(f"g2 pair dim {g2dim} != 14")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    finish(1, failures)


def test_acceptance_02_closed_form_bracket_oracle():
    failures = []
    for family in (FAMILY_CORNER, FAMILY_DOUBLE_CORNER):
        lo = 3 if family == FAMILY_CORNER else 4
        for n in range(lo, 11):
            p = shift_pair(n, family)
            for s in range(0, 2 * n + 1):
                if closed_form_bracket(n, s, family) != iterated_bracket(p.first, p.second, s):
                    failures.append((family, n, s))
    finish(2, failures)


def test_acceptance_03_bounds_reproduced():
    failures = []
    br = compute_t0(2).bracket
    if not br.lo <= 2 <= br.hi:
        failures.append("t0(2) bracket misses 2")
    # n=3: the bracket must hold 2+2*sqrt(2), the positive root of
    # p_3(T) = T^2/2 - 2T - 2, checked exactly as lo >= 2 and
    # (lo-2)^2 <= 8 <= (hi-2)^2.  The stated 1+sqrt(3) is an erratum: p_3 is
    # convex and negative at both ends of [2.73, 2.74], an interval holding
    # 1+sqrt(3) (since 1.73^2 <= 3 <= 1.74^2), so p_3 < 0 at 1+sqrt(3).
    b3 = compute_t0(3).bracket
    if not (b3.lo >= 2 and (b3.lo - 2) ** 2 <= 8 <= (b3.hi - 2) ** 2):
        failures.append(f"t0(3) bracket [{b3.lo}, {b3.hi}] misses 2+2*sqrt(2)")
    p3 = t_inequality(3)
    lo3, hi3 = Fraction(273, 100), Fraction(274, 100)
    if not ((lo3 - 1) ** 2 <= 3 <= (hi3 - 1) ** 2):
        failures.append("[2.73, 2.74] does not hold 1+sqrt(3)")
    if p3.integer_coefficients() != (-4, -4, 1):
        failures.append(f"p_3 is not T^2/2 - 2T - 2: {p3.integer_coefficients()}")
    if not (p3(lo3) < 0 and p3(hi3) < 0):
        failures.append("p_3 is not negative at 1+sqrt(3)")
    b4 = compute_t0(4).bracket
    if not (b4.lo < Fraction(78, 10) and b4.hi > Fraction(77, 10)):
        failures.append("t0(4) bracket misses (7.7, 7.8)")
    b7 = compute_t0(7).bracket
    if not (b7.lo < Fraction(167, 10) and b7.hi > Fraction(165, 10)):
        failures.append("t0(7) bracket misses (16.5, 16.7)")
    r4 = compute_r0((8, 12, 14))
    if not (Fraction(7, 10) < r4.bracket.lo and r4.bracket.hi < Fraction(8, 10)):
        failures.append("r0(4) bracket outside (0.7, 0.8)")
    if r4.safe_value > 1:
        failures.append("r0(4) safe_value > 1")
    want_r = [(-2, -14, -84, 224), (-2, -22, -84, 224), (-2, -26, -132, 224)]
    got_r = [p.integer_coefficients() for p in r_inequalities((8, 12, 14))]
    if got_r != want_r:
        failures.append(f"r polynomials {got_r} != {want_r}")
    finish(3, failures)


def test_acceptance_04_g2_polynomial_identity():
    failures = []
    got = t_inequality(7).integer_coefficients()
    if got != (-1440, -1440, -720, -240, -60, -12, 1):
        failures.append(got)
    finish(4, failures)


def test_acceptance_05_pingpong_guarantees():
    failures = []
    # n=3: the certified bound is 4945/1024, just above 2+2*sqrt(2) = 4.83,
    # so the spot-check runs at t=5 and refuses t=3.  The refusal is right:
    # at t=3 > 1+sqrt(3) (as (3-1)^2 > 3) and m=1 the X2 vector
    # (-99, -99, 100) maps to (54, 201, 100), outside X1, so the stated
    # 1+sqrt(3) cannot serve as a ping-pong threshold on these regions.
    bad = pingpong_spotcheck(3, "a", 5, samples=200, seed=0)
    if bad:
        failures.append(f"(n=3, t=5): {len(bad)} violations")
    try:
        pingpong_spotcheck(3, "a", 3, samples=200, seed=0)
        failures.append("(n=3, t=3) not refused")
    except ValueError:
        pass
    v = (-99, -99, 100)
    image = apply(exp_upper(3, 3), v)
    if not (in_region(v, X2) and not in_region(image, X1)
            and image == (54, 201, 100) and (3 - 1) ** 2 > 3):
        failures.append(f"(n=3, t=3) counterexample: {v} -> {image}")
    bad = pingpong_spotcheck(2, "b", 3, samples=200, seed=0)
    if bad:
        failures.append(f"(n=2, s=3): {len(bad)} violations")
    bad = pingpong_spotcheck(4, "c", 2, b=(8, 12, 14), samples=200, seed=0)
    if bad:
        failures.append(f"(n=4, r=2): {len(bad)} violations")
    finish(5, failures)


def test_acceptance_06_freeness_scans():
    failures = []
    start = time.monotonic()
    rep = freeness_scan(2, t=3, second=3, max_syllables=6, max_exponent=3)
    if not rep.clean:
        failures.append(f"(t=s=3) {len(rep.collisions)} collisions")
    if time.monotonic() - start >= 120:
        failures.append("t=s=3 scan over 2 minutes")
    start = time.monotonic()
    rep = freeness_scan(2, t=1, second=1, max_syllables=6, max_exponent=1)
    if len(rep.collisions) < 1:
        failures.append("(t=s=1) no collision found")
    if len(rep.collisions) != 12:  # frozen regression value
        failures.append(f"(t=s=1) collision count {len(rep.collisions)} != 12")
    if time.monotonic() - start >= 120:
        failures.append("t=s=1 scan over 2 minutes")
    start = time.monotonic()
    rep = freeness_scan(4, t=8, second=3, max_syllables=4, max_exponent=2)
    if not rep.clean:
        failures.append(f"(n=4) {len(rep.collisions)} collisions")
    if time.monotonic() - start >= 120:
        failures.append("n=4 scan over 2 minutes")
    finish(6, failures)


def rand_rational(rng):
    num = rng.randint(-10, 10)
    return Fraction(num if num else 1, rng.randint(1, 5))


def test_acceptance_07_exponential_exactness():
    failures = []
    rng = random.Random(7)
    for n in range(2, 9):
        b = doubling_bvector(n) if n >= 3 else None
        y = Matrix.unit(n, n, 1)
        for _ in range(50):
            t = rand_rational(rng)
            if exp_nilpotent(shift_matrix(n), t) != exp_upper(t, n):
                failures.append(("upper", n, t))
            if exp_nilpotent(y, t) != exp_corner(t, n):
                failures.append(("corner", n, t))
            if b is not None:
                if exp_nilpotent(lower_bidiagonal(b), t) != exp_lower(t, b):
                    failures.append(("lower", n, t))
        # one-parameter laws and det = 1
        t1, t2 = rand_rational(rng), rand_rational(rng)
        if exp_upper(t1, n) * exp_upper(t2, n) != exp_upper(t1 + t2, n):
            failures.append(("upper law", n))
        if exp_corner(t1, n) * exp_corner(t2, n) != exp_corner(t1 + t2, n):
            failures.append(("corner law", n))
        if det(exp_upper(t1, n)) != 1 or det(exp_corner(t1, n)) != 1:
            failures.append(("det", n))
        if b is not None:
            if exp_lower(t1, b) * exp_lower(t2, b) != exp_lower(t1 + t2, b):
                failures.append(("lower law", n))
            if det(exp_lower(t1, b)) != 1:
                failures.append(("lower det", n))
    # the two displayed 4x4 matrices, checked at three rational points
    for v in (Fraction(2, 3), Fraction(-5, 7), Fraction(9)):
        want_a = Matrix([
            [1, v, v**2 / 2, v**3 / 6],
            [0, 1, v, v**2 / 2],
            [0, 0, 1, v],
            [0, 0, 0, 1],
        ])
        if exp_upper(v, 4) != want_a:
            failures.append(("a(t) display", v))
        want_c = Matrix([
            [1, 0, 0, 0],
            [8 * v, 1, 0, 0],
            [48 * v**2, 12 * v, 1, 0],
            [224 * v**3, 84 * v**2, 14 * v, 1],
        ])
        if exp_lower(v, (8, 12, 14)) != want_c:
            failures.append(("c(r) display", v))
    finish(7, failures)


def test_acceptance_08_form_preservation():
    failures = []
    for n in (4, 6):
        rng = random.Random(80 + n)
        j = form_matrix(n)
        gen_a = lambda m, n=n: exp_upper(m * Fraction(7, 3), n)
        gen_b = lambda m, n=n: exp_corner(m * Fraction(-9, 4), n)
        for k in range(50):
            length = rng.randint(1, 6)
            sym = rng.choice("AB")
            syls = []
            for _ in range(length):
                syls.append((sym, rng.choice([-2, -1, 1, 2])))
                sym = "B" if sym == "A" else "A"
            g = word_eval(syls, gen_a, gen_b)
            if not check_form(g, j):
                failures.append((n, k, syls))
    finish(8, failures)


def test_acceptance_09_thin_emission(capsys):
    failures = []
    for n in range(3, 9):
        for q in (1, 2, 3):
            tp = thin_pair(n, q, 3)
            if tp.t != q * math.factorial(n - 1):
                failures.append((n, q, "t"))
            if any(x.denominator != 1 for x in tp.first.flatten()):
                failures.append((n, q, "non-integer a(t)"))
            if any(x.denominator != 1 for x in tp.second.flatten()):
                failures.append((n, q, "non-integer second"))
    # n=3 certifies (exit 0) at q=3, t = 2!*3 = 6 > 4945/1024.  At q=2,
    # t = 4 lies below the certified bound (2+2*sqrt(2) = 4.83; the stated
    # 1+sqrt(3) is an erratum), so the pair is emitted with a warning and the
    # command exits 1, the documented meaning of 1.
    for q, certified in ((3, True), (2, False)):
        capsys.readouterr()
        code = cli_main(["thin", "--n", "3", "--q", str(q), "--s", "3"])
        doc = json.loads(capsys.readouterr().out)
        if code != (0 if certified else 1):
            failures.append(f"cmd_thin(n=3, q={q}, s=3) exit {code}")
        if doc["certified"] is not certified or (doc["warning"] is None) is not certified:
            failures.append(f"cmd_thin(n=3, q={q}, s=3) certified={doc['certified']} "
                            f"warning={doc['warning']!r}")
    finish(9, failures)


def test_acceptance_10_criteria_checks():
    failures = []
    res = prop2_criterion(type_a_cartan(3), (8, 12, 14))
    if not (res.holds and res.values == (4, 2, 16)):
        failures.append(f"A3 criterion: {res}")
    res = prop2_criterion(G2_CARTAN, (-1, 1))
    if not (res.holds and res.values == (-5, 3)):
        failures.append(f"G2 criterion: {res}")
    bad = g2_relation_failures()
    if bad:
        failures.append(f"G2 canonical relations: {bad}")
    finish(10, failures)
