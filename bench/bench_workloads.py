"""Seeded argv lists for the three benchmark workloads.

Each workload is an endless sequence of blocks.  A block is a list of
``liegen`` argv lists whose *shape* (subcommand, family, matrix size, word
length, width, denominators) is fixed or steps through a fixed cycle, while
the seed draws the values (b-vectors, numerators and signs of t, s and r)
and the order inside the block.  Fixing the shape keeps the work and the
latency quantiles of a run steady across seeds; drawing the values keeps the
inputs from being a fixed list the program could special-case.

Every flag that takes a value is written as ``--opt=value``: argparse reads
``--b -3,5`` or ``--t -9/2`` as a missing value followed by an option and
exits 2.

This module does not import ``liegen``: the library sees only the argv.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator

B_MAX = 30  # |b_i| bound for random lower b-vectors
# Ping-pong t thresholds by matrix size, rounded; parameters are drawn on both sides.
T0_APPROX = {2: 2, 3: 4.83, 4: 7.75, 5: 10.7, 6: 13.7, 7: 16.6}


def arg(name: str, value) -> str:
    return f"--{name}={value}"


def type_a_generates(b: tuple[int, ...]) -> bool:
    """Proposition 2 for type A: the values +-(C b)_i are pairwise distinct."""
    ell = len(b)
    v = [
        2 * b[i] - (b[i - 1] if i > 0 else 0) - (b[i + 1] if i + 1 < ell else 0)
        for i in range(ell)
    ]
    signed = set(v) | {-x for x in v}
    return len(signed) == 2 * ell


def random_b(rng: random.Random, n: int, bound: int = B_MAX) -> tuple[int, ...]:
    values = [x for x in range(-bound, bound + 1) if x]
    return tuple(rng.choice(values) for _ in range(n - 1))


def generating_b(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random b-vector for which the lower pair generates sl(n).

    Without the check the answer is unknown: b = (13, 11, 13), for one,
    generates sp(4) (C2, dimension 10).
    """
    while True:
        b = random_b(rng, n)
        if type_a_generates(b):
            return b


def b_spec(b: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in b)


def rational(rng: random.Random, lo: float, hi: float, dens=(1, 2, 3, 4)) -> Fraction:
    """A rational in [lo, hi] with a small denominator."""
    d = rng.choice(dens)
    k = rng.randint(max(1, round(lo * d)), max(1, round(hi * d)))
    return Fraction(k, d)


# ---------------------------------------------------------------- classify_sweep

SHIFT_CASES = [("corner", n) for n in range(3, 9)] + [
    ("double_corner", n) for n in range(4, 9)
]
# Lower draws per block, by matrix size: weighted to small n.  The shares put
# the median near the middle of the n = 5 draws and the 90th percentile inside
# the n = 7 draws, away from the jumps in cost between sizes.
LOWER_SIZES = {3: 2, 4: 4, 5: 8, 6: 3, 7: 3, 8: 1}


def classify_blocks(seed: int) -> Iterator[list[list[str]]]:
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    for k in itertools.count():
        block = []
        if k == 0:
            block += [
                ["classify", arg("family", fam), arg("n", n)] for fam, n in SHIFT_CASES
            ]
            block.append(["classify", arg("family", "g2")])
        for n, count in LOWER_SIZES.items():
            for _ in range(count):
                b = generating_b(rng, n)
                while b in seen:
                    b = generating_b(rng, n)
                seen.add(b)
                block.append(
                    ["classify", arg("family", "lower"), arg("n", n), arg("b", b_spec(b))]
                )
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------- word_scan

# (n, max syllables, max exponent, second generator): shallow-wide scans,
# then deep-narrow ones.  The cost of a scan grows with the word count and
# with the denominators of t and s, so both are fixed per cell and only the
# numerators and signs are drawn: every run then does about the same work.
SCAN_CELLS = [
    (2, 3, 2, "s"), (2, 4, 2, "s"), (2, 5, 2, "s"), (2, 3, 3, "s"), (2, 4, 3, "r"),
    (3, 3, 2, "s"), (3, 4, 2, "r"), (3, 3, 3, "s"), (3, 4, 3, "s"),
    (4, 3, 2, "s"), (4, 4, 2, "s"), (4, 3, 3, "r"),
    (2, 8, 1, "s"), (2, 10, 1, "s"), (3, 7, 1, "s"), (3, 8, 1, "s"), (4, 7, 1, "s"),
]


def scan_argv(n, t, syll, exp, s=None, r=None, b=None) -> list[str]:
    argv = ["scan", arg("n", n), arg("t", t)]
    if s is not None:
        argv.append(arg("s", s))
    else:
        argv += [arg("r", r), arg("b", b_spec(b))]
    return argv + [arg("max-syll", syll), arg("max-exp", exp)]


def _scan_params(rng: random.Random, n: int, second: str, den: int) -> dict:
    t = rational(rng, 0.5, 2 * T0_APPROX[n], (den,)) * rng.choice((1, -1))
    if second == "s":
        return {"t": t, "s": rational(rng, 0.5, 4, (1 + den % 2,)) * rng.choice((1, -1))}
    return {"t": t, "r": rational(rng, 0.5, 8, (1 + den % 2,)), "b": random_b(rng, n, 5)}


def scan_blocks(seed: int) -> Iterator[list[list[str]]]:
    rng = random.Random(seed)
    for k in itertools.count():
        block = [
            scan_argv(n, syll=syll, exp=exp, **_scan_params(rng, n, second, 1 + i % 4))
            for i, (n, syll, exp, second) in enumerate(SCAN_CELLS)
        ]
        # n = 2 at t = 1, s = +-1: reduced words hit the identity.  The word
        # length cycles with the block, so each run sees lengths 7 to 10 alike.
        block.append(scan_argv(2, 1, 7 + k % 4, 1, s=1))
        block.append(scan_argv(2, 1, 7 + (k + 2) % 4, 1, s=-1))
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------- certify_mix

R0_LOWER = 3  # typical r threshold of a lower pair with |b_i| <= 30
R0_G2 = 16.4


def _width(k: int) -> str:
    """Widths 2^-20 .. 2^-160, stepping with the bound's position ``k``."""
    return f"1/{2 ** (20 + (29 * k) % 141)}"


def _both_sides(rng: random.Random, threshold: float) -> Fraction:
    """Zero one time in eight, else a rational in (0, 2 threshold], random sign."""
    if rng.random() < 0.125:
        return Fraction(0)
    return rational(rng, 0.25, 2 * threshold) * rng.choice((1, -1))


def certify_blocks(seed: int) -> Iterator[list[list[str]]]:
    """Matrix sizes and widths step through fixed cycles with the block
    number ``k``, since the cost depends on them; the seed draws parameters,
    b-vectors and the order."""
    rng = random.Random(seed)
    # A few lower b-vectors per size, so that certify closures repeat.
    pool = {
        n: ["doubling"] + [b_spec(generating_b(rng, n)) for _ in range(2)]
        for n in range(3, 7)
    }
    for k in itertools.count():
        small = [3 + (3 * k + j) % 10 for j in range(4)]  # four sizes in 3..12
        width = [_width(6 * k + j) for j in range(6)]
        block = [
            ["bounds", arg("family", "corner"), arg("n", small[0]), arg("width", width[0])],
            ["bounds", arg("family", "corner"), arg("n", small[1]), arg("width", width[1])],
            ["bounds", arg("family", "corner"), arg("n", 13 + (11 * k) % 28),
             arg("width", width[2])],
            ["bounds", arg("family", "lower"), arg("n", small[2]), arg("b", "doubling"),
             arg("width", width[3])],
            ["bounds", arg("family", "lower"), arg("n", small[3]),
             arg("b", b_spec(random_b(rng, small[3]))), arg("width", width[4])],
            ["bounds", arg("family", "g2"), arg("width", width[5])],
        ]
        for j in range(2):
            n = 3 + (k + j) % 4
            block.append(["certify", arg("family", "corner"), arg("n", n),
                          arg("t", _both_sides(rng, T0_APPROX[n])),
                          arg("s", _both_sides(rng, 2))])
            n = 3 + (k + j + 2) % 4
            block.append(["certify", arg("family", "lower"), arg("n", n),
                          arg("b", rng.choice(pool[n])),
                          arg("t", _both_sides(rng, T0_APPROX[n])),
                          arg("r", _both_sides(rng, R0_LOWER))])
        block.append(["certify", arg("family", "g2"), arg("t", _both_sides(rng, T0_APPROX[7])),
                      arg("r", _both_sides(rng, R0_G2))])

        kind, n = ("upper", "corner", "lower")[k % 3], 3 + k % 4
        value = rational(rng, 0.25, 8) * rng.choice((1, -1))
        argv = ["exp", arg("kind", kind), arg("n", n)]
        if kind == "upper":
            argv.append(arg("t", value))
        elif kind == "corner":
            argv.append(arg("s", value))
        else:
            argv += [arg("r", value), arg("b", b_spec(random_b(rng, n, 5)))]
        block.append(argv)

        block.append(["thin", arg("n", 3 + k % 3),
                      arg("q", rng.choice((-3, -2, -1, 1, 2, 3))),
                      arg("s", rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)))])
        rng.shuffle(block)
        yield block


BLOCKS = {
    "classify_sweep": classify_blocks,
    "word_scan": scan_blocks,
    "certify_mix": certify_blocks,
}
WORKLOADS = tuple(BLOCKS)
