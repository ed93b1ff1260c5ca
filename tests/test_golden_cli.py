"""Byte-identical CLI output on a golden set of invocations.

``golden_cli.json`` holds the exit code and the exact standard output of
``liegen.cli.main`` for every CLI example in the README, ``classify`` of
every corner and double corner shape with n <= 8, G2 and the lower doubling
pairs with n = 3..6, one ``certify`` per family, two-file ``closure`` runs,
each family or kind path of ``gen``, ``bounds``, ``certify`` and ``exp``
(``certify`` exiting 1 as ``dense_only`` and as ``insufficient`` among
them), a lower ``scan``, three ``scan`` runs with identity hits, and corner
``bounds`` at n = 9, 12 and 17, where t0 has degree past 8, and
``classify`` of the corner pair at n = 12 and the double corner at n = 14,
and fine root brackets: corner ``bounds`` at n = 40 (the benchmark's
largest) to width 2^-256 (the finest accepted), lower ``bounds`` at n = 12
with a fractional b-vector to width 2^-160 (the benchmark's finest), and
G2 ``certify`` to width 2^-100, invocations with an empty flag value,
which exit 2 with nothing on standard output, and lower ``bounds`` and
``certify`` whose exact bounds lie past the float range, where the
``approx`` fields are null, and an ``exp`` whose exact entry has more digits
than Python's int/str conversion limit, and the ``closure`` of a 1x1 zero
matrix, which is unrecognized.
``rounds`` is the number of closure rounds: round k brackets each seed with
each element that round k-1 added, and the final round, which adds nothing,
is counted unless the span is gl(n); the switch to that right-normed
closure changed ``rounds``, and only ``rounds``, on purpose.  The switch to
dyadic root brackets, which bisect [0, 2^e], changed the brackets' ``lo``,
``hi`` and ``approx`` and, where hi lies on the 1/1024 grid, ``safe_value``,
on purpose.  A change that means to keep the output (a refactor or a
speed-up) must leave every entry as it is, ``rounds`` included.

Regenerate the file only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from liegen.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

# Matrix documents for the ``closure`` cases, written to files at test time.
# "corner3_*" is the corner pair in gl(3); "rat3_*" is a rational pair that
# is not homogeneous under the principal grading; "zero1" closes to the zero
# algebra, which is not simple.
FILES = {
    "corner3_x.json": {
        "rows": 3, "cols": 3,
        "entries": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
    },
    "corner3_y.json": {
        "rows": 3, "cols": 3,
        "entries": [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]],
    },
    "rat3_a.json": {
        "rows": 3, "cols": 3,
        "entries": [["1/2", "1", "0"], ["0", "0", "2"], ["3", "0", "-1/2"]],
    },
    "rat3_b.json": {
        "rows": 3, "cols": 3,
        "entries": [["0", "0", "1"], ["1", "0", "0"], ["0", "-1/3", "0"]],
    },
    "zero1.json": {"rows": 1, "cols": 1, "entries": [[0]]},
}

README = [
    ["gen", "--family", "corner", "--n", "3"],
    ["gen", "--family", "lower", "--n", "4", "--b", "doubling"],
    ["classify", "--family", "double_corner", "--n", "7"],
    ["closure", "corner3_x.json", "corner3_y.json"],
    ["bounds", "--family", "g2"],
    ["exp", "--kind", "upper", "--n", "4", "--t", "1/3"],
    ["certify", "--family", "corner", "--n", "4", "--t", "8", "--s", "3"],
    ["scan", "--n", "2", "--t", "3", "--s", "3", "--max-syll", "6", "--max-exp", "3"],
    ["thin", "--n", "3", "--q", "3", "--s", "3"],
]
CASES_WITH_REPEATS = (
    README
    + [["classify", "--family", "corner", "--n", str(n)] for n in range(3, 9)]
    + [["classify", "--family", "double_corner", "--n", str(n)] for n in range(4, 9)]
    + [["classify", "--family", "g2"]]
    + [
        ["classify", "--family", "lower", "--n", str(n), "--b", "doubling"]
        for n in range(3, 7)
    ]
    + [
        ["certify", "--family", "lower", "--n", "4", "--b", "doubling",
         "--t", "9", "--r", "5"],
        ["certify", "--family", "g2", "--t", "17", "--r", "17"],
        ["closure", "rat3_a.json", "rat3_b.json"],
    ]
    # every family path of gen, bounds, certify and exp
    + [
        ["bounds", "--family", "corner", "--n", "4"],
        ["bounds", "--family", "lower", "--n", "4", "--b", "doubling"],
        ["bounds", "--family", "lower", "--n", "4", "--b", "3,-5,7", "--width", "1/1024"],
        ["gen", "--family", "double_corner", "--n", "5"],
        ["gen", "--family", "g2"],
        ["certify", "--family", "corner", "--n", "4", "--t", "3", "--s", "3"],
        ["certify", "--family", "corner", "--n", "4", "--t", "0", "--s", "3"],
        ["certify", "--family", "lower", "--n", "3", "--b", "1,3", "--t", "9", "--r", "9"],
        ["exp", "--kind", "corner", "--n", "4", "--s", "2/3"],
        ["exp", "--kind", "lower", "--n", "4", "--r", "1/2", "--b", "doubling"],
    ]
    # paths the family table reads: bounds below the pair's size range, the
    # default doubling b, an explicit lower b-vector, G2 below its r0 bound,
    # and a lower scan
    + [
        ["bounds", "--family", "corner", "--n", "2"],
        ["gen", "--family", "lower", "--n", "5"],
        ["classify", "--family", "lower", "--n", "4", "--b", "3,-5,7"],
        ["certify", "--family", "g2", "--t", "17", "--r", "1"],
        ["scan", "--n", "3", "--t", "5", "--r", "3", "--b", "1,2",
         "--max-syll", "3", "--max-exp", "2"],
    ]
    # scans with identity hits, which pin the order of the collision list:
    # even and odd maximal length, hits of odd length, a negative s
    + [
        ["scan", "--n", "2", "--t", "1", "--s", "1", "--max-syll", "6", "--max-exp", "2"],
        ["scan", "--n", "2", "--t", "2", "--s", "1", "--max-syll", "7", "--max-exp", "2"],
        ["scan", "--n", "2", "--t", "1", "--s", "-1", "--max-syll", "9", "--max-exp", "1"],
    ]
    # t0 past degree 8, whose bisection starts from the Fujiwara bound 2^e
    # (64, 64 and 128, against roots near 22.6, 31.6 and 46.6)
    + [["bounds", "--family", "corner", "--n", str(n)] for n in (9, 12, 17)]
    # the type table past n = 10
    + [
        ["classify", "--family", "corner", "--n", "12"],
        ["classify", "--family", "double_corner", "--n", "14"],
    ]
    # fine root brackets at the largest sizes the benchmark reaches, with a
    # fractional lower b-vector
    + [
        ["bounds", "--family", "corner", "--n", "40", "--width", f"1/{2**256}"],
        ["bounds", "--family", "lower", "--n", "12",
         "--b", "1/2,-3,5/4,2,-7/3,1,3/2,-1,4,-5/2,6", "--width", f"1/{2**160}"],
        ["certify", "--family", "g2", "--t", "17", "--r", "17",
         "--width", f"1/{2**100}"],
    ]
    # an empty flag value is bad input (exit 2), never the flag's default
    + [
        ["bounds", "--family=corner", "--n=3", "--width="],
        ["classify", "--family=lower", "--n=4", "--b="],
        ["gen", "--family=lower", "--n=4", "--b="],
        ["bounds", "--family=lower", "--n=4", "--b="],
        ["certify", "--family=lower", "--n=4", "--t=9", "--r=5", "--b="],
        ["certify", "--family=corner", "--n=4", "--t=8", "--s="],
        ["certify", "--family=corner", "--n=4", "--t=8", "--s=3", "--width="],
        ["exp", "--kind=lower", "--n=4", "--r=1/2", "--b="],
        ["scan", "--n=3", "--t=5", "--r=3", "--b="],
    ]
    # exact bounds past the float range, whose "approx" fields are null
    + [
        ["bounds", "--family", "lower", "--n", "3", "--b", "1e-400,1"],
        ["certify", "--family", "lower", "--n", "3", "--t", "5", "--r", "1e400",
         "--b", "1,1e-400"],
    ]
    # an exact entry of 4,400 digits, past Python's int/str digit limit
    + [["exp", "--kind", "upper", "--n", "3", "--t", "1e2200"]]
    # the zero algebra is unrecognized (exit 1)
    + [["closure", "zero1.json"]]
)
CASES = list({" ".join(a): a for a in CASES_WITH_REPEATS}.values())


def run_case(argv: list[str], directory: pathlib.Path) -> tuple[int, str]:
    """Exit code and standard output of one invocation; file names resolve
    inside ``directory``."""
    for name, doc in FILES.items():
        (directory / name).write_text(json.dumps(doc))
    args = [str(directory / a) if a in FILES else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


def _golden() -> dict[str, dict]:
    return {" ".join(c["argv"]): c for c in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_byte_identical(argv, tmp_path):
    expected = _golden()[" ".join(argv)]
    code, stdout = run_case(argv, tmp_path)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(a) for a in CASES)


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path):
    """Every case forward, two failing calls, every case in reverse: one
    parser serves them all and each call still matches the golden file."""
    golden = _golden()

    def replay(cases):
        for argv in cases:
            expected = golden[" ".join(argv)]
            assert run_case(argv, tmp_path) == (expected["exit"], expected["stdout"]), argv

    replay(CASES)
    assert run_case(["certify", "--family", "corner", "--n", "x", "--t", "8"], tmp_path) == (2, "")
    assert run_case(["gen", "--family", "lower", "--n", "4", "--b", "1,2"], tmp_path) == (2, "")
    replay(reversed(CASES))
    assert build_parser() is build_parser()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = []
        for argv in CASES:
            code, stdout = run_case(argv, pathlib.Path(tmp))
            records.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
