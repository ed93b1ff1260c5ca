"""Command-line front end: construct, classify, bound, certify, scan, emit.

All numeric output is exact ("p/q" strings); decimal values appear only in
auxiliary "approx" fields.  Exit codes: 0 success / certified / clean scan,
1 unrecognized / insufficient / collision, 2 bad input, 3 internal error or
failed write to stdout, 141 closed stdout.  ``main`` may be called repeatedly
in one process; every call parses with the one parser that ``build_parser``
builds on first use.  ``read_inputs`` then reads and checks every flag and
file, and the ``cmd_*`` functions only compute and emit, with Python's
int/str digit limit lifted while they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import __version__
from .exact import DEFAULT_WIDTH, Matrix, Polynomial, RootBracket
from .generators import FAMILIES, build_pair, bvector, doubling_bvector
from .closure import classify, subalgebra_closure
from .pingpong import (
    CONCLUSION_FREE_DENSE,
    Certificate,
    PingPongBound,
    certify_free_dense,
    compute_t0,
    s0,
    second_bound,
)
from .groups import exp_corner, exp_lower, exp_upper, freeness_scan, thin_pair

def read_number(text: str, source: str) -> Fraction:
    """text, read from ``source`` (a flag or a file path), as an exact number;
    ValueError naming the source for a zero denominator, or when its numerator
    or denominator has more digits than Python's int/str limit (Python >= 3.10.7;
    0 lifts it).  The digits before a decimal exponent are read under that limit,
    so a nonzero number whose exponent passes twice the limit is refused
    before it is built."""
    limit = sys.get_int_max_str_digits()
    try:
        exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
        if limit and exponent and abs(int(exponent[1])) > 2 * limit:
            if not Fraction(text[:exponent.start()] + "e0"):
                return Fraction(0)
        else:
            x = Fraction(text)
            str(x)  # ValueError when the numerator or the denominator passes the limit
            return x
    except ZeroDivisionError:  # Python's own message is "Fraction(1, 0)"
        raise ValueError(f"{source}: division by zero") from None
    except ValueError as exc:  # Python's own message advises lifting the limit
        if not str(exc).startswith("Exceeds the limit"):
            raise
    raise ValueError(f"{source}: Exceeds the limit ({limit} digits) for a numerator or denominator")


def matrix_to_doc(m: Matrix) -> dict:
    return {
        "rows": m.n,
        "cols": m.n,
        "entries": [[str(x) for x in row] for row in m.rows],
    }


def matrix_from_doc(doc: dict, source: str = "matrix document") -> Matrix:
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in doc:
            raise ValueError(f"matrix document has no {key!r}")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    if type(rows) is not int or type(cols) is not int:
        raise ValueError("matrix rows and cols must be integers")
    if rows != cols:
        raise ValueError("matrix document must be square")
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("matrix entries must be a list of lists")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("matrix document dimensions inconsistent")
    if any(type(x) not in (int, str) for row in entries for x in row):
        raise ValueError("matrix entries must be integers or fraction strings")
    return Matrix([[read_number(str(x), source) for x in row] for row in entries])


def _poly_doc(p: Polynomial) -> dict:
    return {
        "coefficients": [str(c) for c in p.coefficients],
        "integer_coefficients": list(p.integer_coefficients()),
    }


def _approx(x: Fraction) -> float | None:
    """x as a float, or None (JSON null) when x lies past the float range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _bracket_doc(br: RootBracket | None) -> dict | None:
    if br is None:
        return None
    return {
        "lo": str(br.lo),
        "hi": str(br.hi),
        "approx": _approx((br.lo + br.hi) / 2),
    }


def _bound_doc(bound: PingPongBound) -> dict:
    return {
        "kind": bound.kind,
        "polynomials": [_poly_doc(p) for p in bound.polys],
        "bracket": _bracket_doc(bound.bracket),
        "safe_value": str(bound.safe_value),
        "safe_value_approx": _approx(bound.safe_value),
    }


def _params_doc(params: dict) -> dict:
    return {k: [str(x) for x in v] if isinstance(v, tuple) else str(v) for k, v in params.items()}


def _add_second_bound(doc: dict, bound: PingPongBound | None) -> None:
    if bound is None:
        doc["s0"] = str(s0())
    else:
        doc["r"] = _bound_doc(bound)


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def read_inputs(args: argparse.Namespace) -> None:
    """Check every input in place, before any work: refuse a flag the invocation
    does not read, require --n and the ``exp`` kind's parameter, and make --t,
    --s, --r, --width exact, --b a b-vector (absent or "doubling": the doubling
    vector), a family's --n its size and the ``closure`` files matrices."""
    if args.command == "closure":
        args.matrices = []
        for path in args.files:
            try:
                with open(path) as fh:  # JSON integers are read under the digit limit too
                    doc = json.load(fh, parse_int=lambda text: int(read_number(text, path)))
            except OSError as exc:  # an unreadable file is bad input
                raise ValueError(exc) from None
            args.matrices.append(matrix_from_doc(doc, path))
        return
    if args.command == "thin":
        return
    if args.command == "exp":
        name = {"upper": "t", "corner": "s", "lower": "r"}[args.kind]
        used, what = (name, "b" if args.kind == "lower" else ""), f"kind {args.kind}"
    elif args.command == "scan":
        lower = args.r is not None
        if lower == (args.s is not None):
            raise ValueError("scan needs exactly one of --s (corner) or --r (lower)")
        used, what = ("t", "s", "r", "b" if lower else ""), "a scan without --r"
    else:
        fam = FAMILIES[args.family]
        used, what = ("t", fam.second, "b" if fam.takes_b else ""), f"the {fam.alias} family"
    for flag in ("t", "s", "r", "b"):
        if flag not in used and getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag} does not apply to {what}")
    if args.command == "exp" and getattr(args, name) is None:
        raise ValueError(f"--{name} is required for kind {args.kind}")
    if "family" in args:
        args.n = fam.size(args.n)
        if args.n is None:
            raise ValueError("--n is required for this family")
    for flag in ("t", "s", "r", "width"):
        if getattr(args, flag, None) is not None:
            setattr(args, flag, read_number(getattr(args, flag), f"--{flag}"))
    if "b" in used:
        b = None if args.b in (None, "doubling") else [
            read_number(x, "--b") for x in args.b.split(",")]
        try:
            args.b = doubling_bvector(args.n) if b is None else bvector(b, args.n)
        except ValueError as exc:  # read_number's errors name the flag already
            raise ValueError(f"--b: {exc}") from None


def cmd_gen(args: argparse.Namespace) -> int:
    pair = build_pair(args.family, args.n, args.b)
    doc = {
        "family": pair.family,
        "n": pair.n,
        "first": matrix_to_doc(pair.first),
        "second": matrix_to_doc(pair.second),
    }
    if pair.b is not None:
        doc["b"] = [str(x) for x in pair.b]
    _emit(doc)
    return 0


def cmd_gen_or_closure_report(seed: Sequence[Matrix], n: int) -> tuple[dict, int]:
    result = subalgebra_closure(list(seed))
    label = classify(n, result.dim)
    doc = {
        "dim": result.dim,
        "rounds": result.rounds,
        "type": {"family": label.family, "rank": label.rank, "name": label.name},
    }
    return doc, (0 if label.family != "unrecognized" else 1)


def cmd_closure(args: argparse.Namespace) -> int:
    doc, code = cmd_gen_or_closure_report(args.matrices, args.matrices[0].n)
    _emit(doc)
    return code


def cmd_classify(args: argparse.Namespace) -> int:
    pair = build_pair(args.family, args.n, args.b)
    doc, code = cmd_gen_or_closure_report([pair.first, pair.second], pair.n)
    doc.update(family=pair.family, n=pair.n)
    _emit(doc)
    return code


def cmd_bounds(args: argparse.Namespace) -> int:
    doc: dict = {"width": str(args.width), "family": args.family, "n": args.n}
    if args.b is not None:
        doc["b"] = [str(x) for x in args.b]
    doc["t"] = _bound_doc(compute_t0(args.n, args.width))
    _add_second_bound(doc, second_bound(args.family, args.n, args.b, args.width))
    _emit(doc)
    return 0


def cmd_exp(args: argparse.Namespace) -> int:
    g = (exp_upper(args.t, args.n) if args.kind == "upper" else
         exp_corner(args.s, args.n) if args.kind == "corner" else exp_lower(args.r, args.b))
    _emit({"kind": args.kind, "n": args.n, "matrix": matrix_to_doc(g)})
    return 0


def certificate_to_doc(cert: Certificate, width: Fraction) -> dict:
    doc = {
        "tool_version": __version__,
        "input": {
            "family": cert.family,
            "n": cert.n,
            "parameters": _params_doc(cert.parameters),
            "width": str(width),
        },
        "generators": {
            "first": matrix_to_doc(cert.pair.first),
            "second": matrix_to_doc(cert.pair.second),
        },
        "closure": {
            "dim": cert.closure.dim,
            "rounds": cert.closure.rounds,
            "type": cert.type_label.name,
            "target_dim": cert.target.dim,
            "target_type": cert.target.name,
        },
        "bounds": {"t": _bound_doc(cert.t_bound)},
        "conclusion": cert.conclusion,
    }
    _add_second_bound(doc["bounds"], cert.second_bound)
    return doc


def cmd_certify(args: argparse.Namespace) -> int:
    cert = certify_free_dense(args.n, args.family, args.t, args.s, args.r, args.b, args.width)
    _emit(certificate_to_doc(cert, args.width))
    return 0 if cert.conclusion == CONCLUSION_FREE_DENSE else 1


def cmd_scan(args: argparse.Namespace) -> int:
    report = freeness_scan(args.n, args.t, args.s, args.r, args.b, args.max_syll, args.max_exp)
    doc = {
        "n": report.n,
        "parameters": _params_doc(report.parameters),
        "max_syllables": report.max_syllables,
        "max_exponent": report.max_exponent,
        "words_checked": report.words_checked,
        "collisions": [list(w.syllables) for w in report.collisions],
    }
    _emit(doc)
    return 0 if report.clean else 1


def cmd_thin(args: argparse.Namespace) -> int:
    pair = thin_pair(args.n, args.q, args.s)
    doc = {
        "n": pair.n,
        "q": args.q,
        "t": pair.t,
        "s": pair.s,
        "first": matrix_to_doc(pair.first),
        "second": matrix_to_doc(pair.second),
        "certified": pair.certified,
        "warning": pair.warning,
    }
    _emit(doc)
    return 0 if pair.certified else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; callers must not
    mutate it."""
    parser = argparse.ArgumentParser(
        prog="liegen",
        description="Exact generator pairs, density and freeness certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    aliases = {f.alias: f.name for f in FAMILIES.values()}
    bounded = [f.name for f in FAMILIES.values() if f.second]

    def family_arg(p: argparse.ArgumentParser, choices=None) -> None:
        p.add_argument(
            "--family",
            required=True,
            type=lambda v: aliases.get(v, v),
            choices=choices or list(FAMILIES),
        )

    p = sub.add_parser("gen", help="print a generator pair")
    family_arg(p)
    p.add_argument("--n", type=int)
    p.add_argument("--b", help='"doubling" or comma list like 8,12,14')
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("closure", help="closure and type of matrices from files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("classify", help="closure and type of a named family")
    family_arg(p)
    p.add_argument("--n", type=int)
    p.add_argument("--b")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bounds", help="certified ping-pong bounds")
    family_arg(p, choices=bounded)
    p.add_argument("--n", type=int)
    p.add_argument("--b")
    p.add_argument("--width", default=str(DEFAULT_WIDTH))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exp", help="exact exponential of a generator")
    p.add_argument("--kind", required=True, choices=["upper", "corner", "lower"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t")
    p.add_argument("--s")
    p.add_argument("--r")
    p.add_argument("--b")
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser("certify", help="free-dense certificate")
    family_arg(p, choices=bounded)
    p.add_argument("--n", type=int)
    p.add_argument("--t", required=True)
    p.add_argument("--s")
    p.add_argument("--r")
    p.add_argument("--b")
    p.add_argument("--width", default=str(DEFAULT_WIDTH))
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", help="exhaustive word identity scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--s")
    p.add_argument("--r")
    p.add_argument("--b")
    p.add_argument("--max-syll", type=int, default=4)
    p.add_argument("--max-exp", type=int, default=2)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("thin", help="integer thin-subgroup generator pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_thin)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one invocation and return its exit code; argparse errors raise
    ``SystemExit(2)``, and a failed write to stdout its ``OSError``."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Before Python 3.13, argparse reads "--opt=--" as an empty list.
        for dest, value in vars(args).items():
            if value == []:
                parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
        read_inputs(args)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # inputs were read under it; exact output may pass it
        try:
            return args.func(args)
        finally:
            sys.set_int_max_str_digits(limit)
    except OSError:  # a failed write to stdout, which ``run`` reports: not bad input
        raise
    except ValueError as exc:
        print(f"liegen: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"liegen: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Exit with ``main``'s code, with 141 (128 + SIGPIPE) once stdout is closed,
    or with 3 when writing stdout fails otherwise."""
    try:
        code = main()
        sys.stdout.flush()  # a failed write shows here, not at interpreter exit
    except OSError as exc:
        # Python docs, "Note on SIGPIPE": stdout to devnull so that the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            sys.exit(141)
        print(f"liegen: error: cannot write output: {exc}", file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    run()
