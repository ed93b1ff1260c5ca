"""Command-line front end: construct, classify, bound, certify, scan, emit.

All numeric output is exact ("p/q" strings); decimal values appear only in
auxiliary "approx" fields.  Exit codes: 0 success / certified / clean scan,
1 unrecognized / insufficient / collision, 2 bad input, 3 internal error or
failed write to stdout, 141 closed stdout.  ``main`` may be called repeatedly
in one process; every call parses with the one parser that ``build_parser``
builds on first use.  ``read_inputs`` then reads and checks every flag and
file.  The ``cmd_*`` functions only compute, each returning its document and
exit code; ``main`` prints the document, rendered by ``_put_json`` exactly as
``json.dumps(doc, indent=2)`` renders it.  Python's int/str digit limit is
lifted while they compute and ``main`` prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction

from . import __version__
from .exact import DEFAULT_WIDTH, Matrix, Polynomial, RootBracket, bracket_width
from .generators import FAMILIES, FAMILY_CORNER, build_pair, bvector, doubling_bvector
from .closure import subalgebra_closure
from .pingpong import CONCLUSION_FREE_DENSE, S0, PingPongBound, certify_free_dense, family_bounds
from .groups import exp_corner, exp_lower, exp_upper, freeness_scan, thin_pair

def read_number(text: str) -> Fraction:
    """text as an exact number; ValueError for text that is no number, a zero
    denominator, or a numerator or denominator with more digits than Python's
    int/str limit (Python >= 3.10.7; 0 lifts it).  The digits before a decimal
    exponent are read under that limit, so a nonzero number whose exponent
    passes twice the limit is refused before it is built."""
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
        raise ValueError("division by zero") from None
    except ValueError as exc:  # no number, or Python's advice to lift the digit limit
        if not str(exc).startswith("Exceeds the limit"):
            raise
    raise ValueError(f"Exceeds the limit ({limit} digits) for a numerator or denominator")


def matrix_to_doc(m: Matrix) -> dict:
    return {
        "rows": m.n,
        "cols": m.n,
        "entries": [[str(x) for x in row] for row in m.rows],
    }


def matrix_from_doc(doc: dict) -> Matrix:
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
    return Matrix([[read_number(str(x)) for x in row] for row in entries])


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


def _bracket_doc(br: RootBracket) -> dict:
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


def _bounds_doc(t_bound: PingPongBound, second: PingPongBound | None) -> dict:
    key, value = ("s0", str(S0)) if second is None else ("r", _bound_doc(second))
    return {"t": _bound_doc(t_bound), key: value}


@contextlib.contextmanager
def _source(name: str) -> Iterator[None]:
    """Put ``name``, a flag or a file path, in front of a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def read_inputs(args: argparse.Namespace) -> None:
    """Check every input in place, before any work: refuse a flag the invocation
    does not read, require the ``exp`` kind's or the ``certify`` family's
    parameter, bound --n, --max-syll, --max-exp and ``thin``'s --q, and make the
    --family alias its family's name, --t, --s, --r exact, --width a bracket width,
    --b a b-vector (absent or "doubling": the doubling vector), a family's --n its
    size (a size of its pair, outside ``bounds``; ``thin``'s is the corner pair's)
    and the ``closure`` files matrices."""
    if args.command == "closure":
        args.matrices = []
        for path in args.files:
            try:
                with open(path) as fh, _source(path):  # JSON integers obey the digit limit too
                    try:
                        doc = json.load(fh, parse_int=lambda text: int(read_number(text)))
                    except RecursionError:  # the decoder recurses once per nesting level
                        raise ValueError("JSON nested too deeply") from None
                    m = matrix_from_doc(doc)
                    if args.matrices and m.n != args.matrices[0].n:
                        n = args.matrices[0].n
                        raise ValueError(f"{m.n}x{m.n} matrix, but {args.files[0]} is {n}x{n}")
                    args.matrices.append(m)
            except OSError as exc:  # an unreadable file is bad input
                raise ValueError(exc) from None
        return
    if args.command == "thin":
        with _source("--n"):
            args.n = FAMILIES[FAMILY_CORNER].check(args.n)
        if args.q == 0:
            raise ValueError("--q: q must be nonzero")
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
        fam = next(f for f in FAMILIES.values() if f.alias == args.family)
        args.family, name = fam.name, fam.second
        used, what = ("t", name, "b" if fam.takes_b else ""), f"the {fam.alias} family"
    for flag in ("t", "s", "r", "b"):
        if flag not in used and getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag} does not apply to {what}")
    if args.command in ("exp", "certify") and getattr(args, name) is None:
        raise ValueError(f"--{name} is required for {what}")
    if "family" in args:
        with _source("--n"):
            args.n = fam.size(args.n) if args.command == "bounds" else fam.check(args.n)
    for flag, least in (("n", 2), ("max_syll", 1), ("max_exp", 1)):
        if getattr(args, flag, least) < least:
            raise ValueError(f"--{flag.replace('_', '-')}: must be at least {least}")
    for flag in ("t", "s", "r", "width"):
        if getattr(args, flag, None) is not None:
            with _source(f"--{flag}"):
                x = read_number(getattr(args, flag))
                setattr(args, flag, bracket_width(x) if flag == "width" else x)
    if "b" in used:
        with _source("--b"):
            b = None if args.b in (None, "doubling") else [
                read_number(x) for x in args.b.split(",")]
            args.b = doubling_bvector(args.n) if b is None else bvector(b, args.n)


def cmd_gen(args: argparse.Namespace) -> tuple[dict, int]:
    pair = build_pair(args.family, args.n, args.b)
    doc = {
        "family": pair.family,
        "n": pair.n,
        "first": matrix_to_doc(pair.first),
        "second": matrix_to_doc(pair.second),
    }
    if pair.b is not None:
        doc["b"] = [str(x) for x in pair.b]
    return doc, 0


def _closure_doc(seed: Sequence[Matrix]) -> tuple[dict, int]:
    result = subalgebra_closure(list(seed))
    label = result.type_label
    doc = {
        "dim": result.dim,
        "rounds": result.rounds,
        "type": {"family": label.family, "rank": label.rank, "name": label.name},
    }
    return doc, (0 if label.family != "unrecognized" else 1)


def cmd_closure(args: argparse.Namespace) -> tuple[dict, int]:
    return _closure_doc(args.matrices)


def cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    pair = build_pair(args.family, args.n, args.b)
    doc, code = _closure_doc([pair.first, pair.second])
    doc.update(family=pair.family, n=pair.n)
    return doc, code


def cmd_bounds(args: argparse.Namespace) -> tuple[dict, int]:
    doc: dict = {"width": str(args.width), "family": args.family, "n": args.n}
    if args.b is not None:
        doc["b"] = [str(x) for x in args.b]
    doc.update(_bounds_doc(*family_bounds(args.family, args.n, args.b, args.width)))
    return doc, 0


def cmd_exp(args: argparse.Namespace) -> tuple[dict, int]:
    g = (exp_upper(args.t, args.n) if args.kind == "upper" else
         exp_corner(args.s, args.n) if args.kind == "corner" else exp_lower(args.r, args.b))
    return {"kind": args.kind, "n": args.n, "matrix": matrix_to_doc(g)}, 0


def cmd_certify(args: argparse.Namespace) -> tuple[dict, int]:
    second = getattr(args, FAMILIES[args.family].second)
    cert = certify_free_dense(args.n, args.family, args.t, second, args.b, args.width)
    conclusion = cert.conclusion
    doc = {
        "tool_version": __version__,
        "input": {
            "family": cert.pair.family,
            "n": cert.pair.n,
            "parameters": _params_doc(cert.parameters),
            "width": str(args.width),
        },
        "generators": {
            "first": matrix_to_doc(cert.pair.first),
            "second": matrix_to_doc(cert.pair.second),
        },
        "closure": {
            "dim": cert.closure.dim,
            "rounds": cert.closure.rounds,
            "type": cert.closure.type_label.name,
            "target_dim": cert.target.dim,
            "target_type": cert.target.name,
        },
        "bounds": _bounds_doc(cert.t_bound, cert.second_bound),
        "conclusion": conclusion,
    }
    return doc, (0 if conclusion == CONCLUSION_FREE_DENSE else 1)


def cmd_scan(args: argparse.Namespace) -> tuple[dict, int]:
    report = freeness_scan(args.n, args.t, args.s if args.r is None else args.r, args.b,
                           max_syllables=args.max_syll, max_exponent=args.max_exp)
    doc = {
        "n": report.n,
        "parameters": _params_doc(report.parameters),
        "max_syllables": report.max_syllables,
        "max_exponent": report.max_exponent,
        "words_checked": report.words_checked,
        "collisions": report.collisions,
    }
    return doc, (0 if report.clean else 1)


def cmd_thin(args: argparse.Namespace) -> tuple[dict, int]:
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
    return doc, (0 if pair.certified else 1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; callers must not
    mutate it.  It and its subparsers refuse by raising ValueError."""
    class Parser(argparse.ArgumentParser):
        def error(self, message: str):  # main prints it as one line, like any refusal
            raise ValueError(message)
    parser = Parser(
        prog="liegen",
        description="Exact generator pairs, density and freeness certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def family_command(name: str, help_text: str, func, bounded: bool = False):
        """A command on a family's pair: --family, --n, --b, and with ``bounded``
        --width and only the families with certified bounds."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", required=True,
                       choices=[f.alias for f in FAMILIES.values() if f.second or not bounded])
        p.add_argument("--n", type=int)
        p.add_argument("--b", help='"doubling" or comma list like 8,12,14')
        if bounded:
            p.add_argument("--width", default=str(DEFAULT_WIDTH))
        p.set_defaults(func=func)
        return p

    family_command("gen", "print a generator pair", cmd_gen)

    p = sub.add_parser("closure", help="closure and type of matrices from files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_closure)

    family_command("classify", "closure and type of a named family", cmd_classify)
    family_command("bounds", "certified ping-pong bounds", cmd_bounds, bounded=True)

    p = sub.add_parser("exp", help="exact exponential of a generator")
    p.add_argument("--kind", required=True, choices=["upper", "corner", "lower"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t")
    p.add_argument("--s")
    p.add_argument("--r")
    p.add_argument("--b")
    p.set_defaults(func=cmd_exp)

    p = family_command("certify", "free-dense certificate", cmd_certify, bounded=True)
    p.add_argument("--t", required=True)
    p.add_argument("--s")
    p.add_argument("--r")

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


_quote = json.encoder.encode_basestring_ascii


def _scalar(x) -> str:
    """x, a str, int, float, True, False or None, as JSON text, the way ``json`` writes it."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _put_json(x, newline: str, put) -> None:
    """Pass x to ``put`` in pieces that join to ``json.dumps(x, indent=2)`` as it
    reads nested in a document, where ``newline`` is a line break and the indent
    of x's own line (a bare line break at the top).  x is what ``_scalar``
    takes, or dicts (str keys, in insertion order), lists and tuples of it; a
    list of only str or only int items is one piece."""
    if isinstance(x, dict):
        if not x:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in x.items():
            if isinstance(value, (dict, list, tuple)):
                put(sep + _quote(key) + ": ")
                _put_json(value, inner, put)
            else:
                put(sep + _quote(key) + ": " + _scalar(value))
            sep = "," + inner
        put(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            put("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, x))
        if kinds == {str} or kinds == {int}:
            text = map(_quote if kinds == {str} else int.__repr__, x)
            put("[" + inner + ("," + inner).join(text) + newline + "]")
            return
        sep = "[" + inner
        for value in x:
            if isinstance(value, (dict, list, tuple)):
                put(sep)
                _put_json(value, inner, put)
            else:
                put(sep + _scalar(value))
            sep = "," + inner
        put(newline + "]")
    else:
        put(_scalar(x))


def main(argv: Sequence[str] | None = None) -> int:
    """Run one invocation and return its exit code, 2 for any refusal, the parser's
    too; ``--help`` raises ``SystemExit(0)``, a failed write to stdout its ``OSError``."""
    try:
        args = build_parser().parse_args(argv)
        # Before Python 3.13, argparse reads "--opt=--" as an empty list.
        for dest, value in vars(args).items():
            if value == []:
                raise ValueError(f"argument --{dest.replace('_', '-')}: expected one argument")
        read_inputs(args)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # inputs were read under it; exact output may pass it
        try:
            doc, code = args.func(args)
            # piece by piece: after one write of a large text, a reader that
            # closed stdout early can go unnoticed (exit 0, not 141)
            _put_json(doc, "\n", sys.stdout.write)
            sys.stdout.write("\n")
            return code
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
