import contextlib
import gc
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from liegen import cli, groups, pingpong
from liegen.cli import main, matrix_from_doc, matrix_to_doc
from liegen.exact import Matrix
from liegen.groups import exp_lower, exp_upper


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc


class TestMatrixDocuments:
    def test_roundtrip(self):
        m = Matrix([[Fraction(1, 3), 2], [Fraction(-7, 5), 0]])
        assert matrix_from_doc(matrix_to_doc(m)) == m

    def test_exact_strings(self):
        doc = matrix_to_doc(exp_upper(Fraction(1, 3), 3))
        assert doc["entries"][0][2] == "1/18"

    def test_inconsistent_doc_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_doc({"rows": 2, "cols": 2, "entries": [["1", "0"]]})


class TestGen:
    def test_corner(self, capsys):
        code, doc = run(capsys, "gen", "--family", "corner", "--n", "3")
        assert code == 0
        assert matrix_from_doc(doc["second"]) == Matrix.unit(3, 3, 1)

    def test_g2(self, capsys):
        code, doc = run(capsys, "gen", "--family", "g2")
        assert code == 0
        assert doc["n"] == 7
        assert matrix_from_doc(doc["second"])[4, 3] == 2

    def test_lower_doubling(self, capsys):
        code, doc = run(capsys, "gen", "--family", "lower", "--n", "4", "--b", "doubling")
        assert code == 0
        assert doc["b"] == ["8", "12", "14"]

    def test_bad_family_exits_2(self, capsys):
        code, err = run_bad(capsys, "gen", "--family", "nonsense", "--n", "3")
        assert code == 2 and err.startswith("liegen: error: argument --family: invalid choice")

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "lower_bidiagonal", "--n", "4"],
        ["classify", "--family", "g2_7x7"],
        ["bounds", "--family", "lower_bidiagonal", "--n", "4"],
        ["certify", "--family", "g2_7x7", "--t", "20", "--r", "20"],
        ["gen", "--family", "lowr", "--n", "3"],
        ["certify", "--family", "double_corner", "--n", "4", "--t", "8", "--s", "3"],
    ], ids=["gen-lower_bidiagonal", "classify-g2_7x7", "bounds-lower_bidiagonal",
            "certify-g2_7x7", "gen-misspelt", "certify-double_corner"])
    def test_family_takes_only_the_documented_spellings(self, capsys, argv):
        """The library's family names are no --family value, and the refusal lists
        the README's four (the three with bounds for ``bounds`` and ``certify``);
        whether argparse quotes each choice depends on the Python version."""
        code, err = run_bad(capsys, *argv)
        listed = ("corner, lower, g2" if argv[0] in ("bounds", "certify")
                  else "corner, double_corner, lower, g2")
        assert code == 2 and f"(choose from {listed})\n" in err.replace("'", "")

    def test_missing_n_is_error(self, capsys):
        code, _ = run(capsys, "gen", "--family", "corner")
        assert code == 2


class TestClassifyAndClosure:
    def test_classify_corner6(self, capsys):
        code, doc = run(capsys, "classify", "--family", "corner", "--n", "6")
        assert code == 0
        assert doc["type"]["name"] == "C3" and doc["dim"] == 21

    def test_classify_double_corner7(self, capsys):
        code, doc = run(capsys, "classify", "--family", "double_corner", "--n", "7")
        assert code == 0
        assert doc["type"]["name"] == "G2" and doc["dim"] == 14

    def test_closure_files(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(matrix_to_doc(Matrix.unit(2, 1, 2))))
        b.write_text(json.dumps(matrix_to_doc(Matrix.unit(2, 2, 1))))
        code, doc = run(capsys, "closure", str(a), str(b))
        assert code == 0
        assert doc["dim"] == 3 and doc["type"]["name"] == "A1"

    def test_closure_malformed_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "closure", str(bad))
        assert code == 2

    def test_closure_unreadable_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, err = run_bad(capsys, "closure", str(missing))
        assert code == 2
        assert err == f"liegen: error: [Errno 2] No such file or directory: '{missing}'\n"

    @pytest.mark.parametrize("text", [
        "not json",
        "[1, 2]",
        json.dumps({"rows": 2, "cols": 3, "entries": [[1, 0, 0], [0, 1, 0]]}),
    ], ids=["not-json", "json-list", "not-square"])
    def test_bad_closure_file_is_named(self, capsys, tmp_path, text):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(matrix_to_doc(Matrix.unit(2, 1, 2))))
        bad.write_text(text)
        code, err = run_bad(capsys, "closure", str(good), str(bad))
        assert code == 2 and err.startswith(f"liegen: error: {bad}: ")

    def test_deeply_nested_closure_file_is_named(self, capsys, tmp_path):
        """The JSON decoder recurses once per nesting level, so 100,000 levels
        pass any recursion limit: bad input, not an internal error."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, err = run_bad(capsys, "closure", str(deep))
        assert code == 2 and err == f"liegen: error: {deep}: JSON nested too deeply\n"

    def test_closure_files_of_two_sizes_are_named(self, capsys, tmp_path):
        """The first file whose size differs from the first file's is refused,
        with both sizes; each file alone is valid."""
        a2, a3 = tmp_path / "a2.json", tmp_path / "a3.json"
        a2.write_text(json.dumps(matrix_to_doc(Matrix.identity(2))))
        a3.write_text(json.dumps(matrix_to_doc(Matrix.identity(3))))
        code, err = run_bad(capsys, "closure", str(a2), str(a2), str(a3), str(a2))
        assert code == 2 and err == f"liegen: error: {a3}: 3x3 matrix, but {a2} is 2x2\n"

    def test_closure_unrecognized_exits_1(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix_to_doc(Matrix.unit(3, 1, 2))))
        code, doc = run(capsys, "closure", str(f))
        assert code == 1
        assert doc["type"]["family"] == "unrecognized"

    @pytest.mark.xfail(reason="ROADMAP item 1")
    @pytest.mark.parametrize("n, units", [
        (4, [(i, j) for i in range(1, 5) for j in range(i, 5)]),
        (3, [(1, 2), (2, 3)]),
        (2, [(1, 1), (1, 2), (2, 2)]),
    ], ids=["borel-gl4", "heisenberg-gl3", "borel-gl2"])
    def test_solvable_closure_is_unrecognized(self, capsys, tmp_path, n, units):
        """The upper-triangular units of gl(4) span the Borel subalgebra, of
        dim sp(4) = 10; e12 and e23 close to the Heisenberg algebra, of
        dim so(3) = 3; e11, e12 and e22 span the Borel subalgebra of gl(2), of
        dim sl(2) = 3.  None is simple, so none may be named."""
        files = []
        for i, j in units:
            f = tmp_path / f"e{i}{j}.json"
            f.write_text(json.dumps(matrix_to_doc(Matrix.unit(n, i, j))))
            files.append(str(f))
        code, doc = run(capsys, "closure", *files)
        assert (doc["type"]["family"], code) == ("unrecognized", 1)


class TestBounds:
    def test_corner_n2(self, capsys):
        code, doc = run(capsys, "bounds", "--family", "corner", "--n", "2")
        assert code == 0
        assert doc["s0"] == "2"
        assert 2 < Fraction(doc["t"]["safe_value"]) < Fraction(21, 10)

    def test_lower_n2(self, capsys):
        """The r-polynomial at n = 2 is bR - 2: |r b| > 2, the corner family's s0."""
        code, doc = run(capsys, "bounds", "--family", "lower", "--n", "2", "--b", "5")
        assert code == 0 and doc["b"] == ["5"]
        assert doc["r"]["polynomials"][0]["integer_coefficients"] == [-2, 5]
        assert 2 < 5 * Fraction(doc["r"]["safe_value"]) < Fraction(21, 10)

    def test_g2(self, capsys):
        code, doc = run(capsys, "bounds", "--family", "g2")
        assert code == 0
        assert Fraction(doc["t"]["safe_value"]) <= 17
        assert Fraction(doc["r"]["safe_value"]) <= 17

    def test_lower_doubling(self, capsys):
        code, doc = run(capsys, "bounds", "--family", "lower", "--n", "4")
        assert code == 0
        assert Fraction(doc["r"]["safe_value"]) <= 1

    def test_width_flag(self, capsys):
        code, doc = run(capsys, "bounds", "--family", "corner", "--n", "3",
                        "--width", "1/32")
        assert code == 0 and doc["width"] == "1/32"


class TestExp:
    def test_upper(self, capsys):
        code, doc = run(capsys, "exp", "--kind", "upper", "--n", "4", "--t", "1/3")
        assert code == 0
        assert matrix_from_doc(doc["matrix"]) == exp_upper(Fraction(1, 3), 4)

    def test_lower(self, capsys):
        code, doc = run(capsys, "exp", "--kind", "lower", "--n", "4",
                        "--r", "2", "--b", "8,12,14")
        assert code == 0
        assert matrix_from_doc(doc["matrix"]) == exp_lower(2, (8, 12, 14))

    def test_missing_parameter(self, capsys):
        code, _ = run(capsys, "exp", "--kind", "upper", "--n", "3")
        assert code == 2


class TestCertify:
    def test_corner_certified(self, capsys):
        code, doc = run(capsys, "certify", "--family", "corner", "--n", "4",
                        "--t", "8", "--s", "3")
        assert code == 0
        assert doc["conclusion"] == "free_dense_certified"
        # the embedded polynomial matches the cleared integer form
        assert doc["bounds"]["t"]["polynomials"][0]["integer_coefficients"] == [
            -12, -12, -6, 1,
        ]

    def test_below_bounds_exits_1(self, capsys):
        code, doc = run(capsys, "certify", "--family", "corner", "--n", "4",
                        "--t", "1", "--s", "1")
        assert code == 1
        assert doc["conclusion"] == "dense_only"

    def test_g2(self, capsys):
        code, doc = run(capsys, "certify", "--family", "g2", "--t", "18", "--r", "18")
        assert code == 0
        assert doc["closure"]["dim"] == 14

    @staticmethod
    def bounds_cases():
        """Seeded (family, n, b, e) cases, at width 2^-e for e from 20 to 160: corner
        at n = 3..12, lower with the doubling and a random integer b at n = 3..8, and g2."""
        rng = random.Random(37)
        cases = [("corner", n, None) for n in range(3, 13)] + [
            ("lower", n, b) for n in range(3, 9) for b in ("doubling", ",".join(
                str(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(n - 1)))]
        cases.append(("g2", None, None))
        return [(*case, 20 + 20 * (i % 8)) for i, case in enumerate(cases)]

    @pytest.mark.parametrize("family, n, b, e", bounds_cases())
    def test_bounds_prints_the_certificate_bounds(self, capsys, family, n, b, e):
        """``bounds`` prints the t and s0 or r objects that ``certify`` prints at the
        same family, n, b and width."""
        argv = ["--family", family, f"--width=1/{2**e}", *(["--n", str(n)] if n else []),
                *([f"--b={b}"] if b else [])]
        code, bounds = run(capsys, "bounds", *argv)
        second = "--s" if family == "corner" else "--r"
        _, cert = run(capsys, "certify", *argv, "--t", "1", second, "1")
        assert code == 0 and cert is not None
        assert {k: bounds[k] for k in ("t", "s0", "r") if k in bounds} == cert["bounds"]


class TestScan:
    def test_clean(self, capsys):
        code, doc = run(capsys, "scan", "--n", "4", "--t", "8", "--s", "3",
                        "--max-syll", "3", "--max-exp", "1")
        assert code == 0 and doc["collisions"] == []

    def test_collision_exits_1(self, capsys):
        code, doc = run(capsys, "scan", "--n", "2", "--t", "1", "--s", "1",
                        "--max-syll", "6", "--max-exp", "1")
        assert code == 1 and len(doc["collisions"]) >= 1

    def test_lower_without_b_uses_doubling(self, capsys):
        code, doc = run(capsys, "scan", "--n", "3", "--t", "5", "--r", "3")
        assert code == 0 and doc["parameters"]["b"] == ["4", "6"]


class TestThin:
    def test_certified(self, capsys):
        code, doc = run(capsys, "thin", "--n", "3", "--q", "3", "--s", "3")
        assert code == 0 and doc["certified"] is True
        m = matrix_from_doc(doc["first"])
        assert all(x.denominator == 1 for x in m.flatten())

    def test_uncertified_exits_1(self, capsys):
        code, doc = run(capsys, "thin", "--n", "4", "--q", "1", "--s", "3")
        assert code == 1 and doc["warning"]


def refuse_work(monkeypatch):
    """Make building a pair or a bounds t0 raise, so that an invocation refused
    before any work still exits 2 and one refused later exits 3."""
    def work(*args, **kwargs):
        raise RuntimeError("work began before the inputs were checked")
    monkeypatch.setattr(cli, "build_pair", work)
    monkeypatch.setattr(pingpong, "build_pair", work)
    monkeypatch.setattr(pingpong, "compute_t0", work)


def no_work(*args, **kwargs):
    raise AssertionError("work began for an invocation that is refused")


def run_bad(capsys, *args):
    """Exit code of an invocation that must fail as bad input, with its message."""
    code = main(list(args))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("liegen: error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return code, captured.err


class TestBadInput:
    @pytest.mark.parametrize("command", ["gen", "classify"])
    @pytest.mark.parametrize("b", ["1,2", "1,2,3,4"])
    def test_b_vector_of_wrong_length_exits_2(self, capsys, command, b):
        code, err = run_bad(capsys, command, "--family", "lower", "--n", "4", "--b", b)
        assert code == 2 and "b-vector length must be n - 1" in err

    @pytest.mark.parametrize("argv, message", [
        (["exp", "--kind", "lower", "--n", "2", "--r", "1"], "doubling b-vector requires n >= 3"),
        (["scan", "--n", "2", "--t", "5", "--r", "3"], "doubling b-vector requires n >= 3"),
        (["bounds", "--family", "lower", "--n", "2"], "doubling b-vector requires n >= 3"),
        (["exp", "--kind", "lower", "--n", "4", "--r", "1", "--b", "1,2"],
         "b-vector length must be n - 1"),
    ], ids=["exp-default", "scan-default", "bounds-default", "wrong-length"])
    def test_b_vector_error_names_the_flag(self, capsys, argv, message):
        """Also when --b was not typed: the default it names is the flag's."""
        code, err = run_bad(capsys, *argv)
        assert code == 2 and err == f"liegen: error: --b: {message}\n"

    def test_certify_checks_the_parameters_before_any_bound(self, capsys, monkeypatch):
        def no_bound(*args, **kwargs):
            raise AssertionError("r0 computed for an invocation that is refused")

        monkeypatch.setattr(pingpong, "compute_r0", no_bound)
        code, err = run_bad(capsys, "certify", "--family", "lower", "--n", "40", "--t", "1")
        assert code == 2 and err == "liegen: error: --r is required for the lower family\n"

    def test_certify_checks_the_size_before_any_bound(self, capsys, monkeypatch):
        def no_bound(*args, **kwargs):
            raise AssertionError("r0 computed for an invocation that is refused")

        monkeypatch.setattr(pingpong, "compute_r0", no_bound)
        code, err = run_bad(capsys, "certify", "--family", "lower", "--n", "2",
                            "--t", "3", "--r", "1", "--b", "5")
        assert code == 2 and "the lower pair requires n >= 3" in err

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--family", "corner", "--n", "2"], "the corner pair requires n >= 3"),
        (["classify", "--family", "double_corner", "--n", "3"],
         "the double_corner pair requires n >= 4"),
        (["certify", "--family", "lower", "--n", "2", "--b", "5", "--t", "3", "--r", "1"],
         "the lower pair requires n >= 3"),
    ], ids=["gen", "classify", "certify"])
    def test_a_size_without_a_pair_names_the_flag_before_any_work(self, capsys, monkeypatch,
                                                                  argv, message):
        refuse_work(monkeypatch)
        code, err = run_bad(capsys, *argv)
        assert code == 2 and err == f"liegen: error: --n: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["exp", "--kind", "upper", "--n", "1", "--t", "1"],
        ["exp", "--kind", "corner", "--n", "1", "--s", "1"],
        ["bounds", "--family", "corner", "--n", "1"],
        ["scan", "--n", "1", "--t", "1", "--s", "1"],
    ], ids=["exp-upper", "exp-corner", "bounds", "scan"])
    def test_n_below_2_exits_2(self, capsys, monkeypatch, argv):
        refuse_work(monkeypatch)
        for name in ("exp_upper", "exp_corner", "freeness_scan"):
            monkeypatch.setattr(cli, name, no_work)
        code, err = run_bad(capsys, *argv)
        assert code == 2 and err == "liegen: error: --n: must be at least 2\n"

    @pytest.mark.parametrize("argv, message", [
        (["thin", "--n", "2", "--q", "1", "--s", "3"], "--n: the corner pair requires n >= 3"),
        (["thin", "--n", "4", "--q", "0", "--s", "3"], "--q: q must be nonzero"),
    ], ids=["n", "q"])
    def test_thin_names_the_flag_before_any_work(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli, "thin_pair", no_work)
        code, err = run_bad(capsys, *argv)
        assert code == 2 and err == f"liegen: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["exp", "--kind", "upper", "--n", "3", "--t", "1/0"],
        ["classify", "--family", "lower", "--n", "3", "--b", "1/0,2"],
    ])
    def test_zero_denominator_exits_2(self, capsys, argv):
        code, _ = run_bad(capsys, *argv)
        assert code == 2

    @pytest.mark.parametrize("doc", [
        [1, 2],
        "entries",
        {"rows": 2, "cols": 2, "entries": "12"},
        {"rows": 2, "cols": 2, "entries": [[1, 0], 5]},
        {"rows": 1, "cols": 1, "entries": [[None]]},
        {"rows": 1, "cols": 1, "entries": [[[1]]]},
        {"rows": True, "cols": True, "entries": [[1]]},
        {"rows": 1.0, "cols": 1.0, "entries": [[1]]},
    ])
    def test_closure_document_of_wrong_shape_exits_2(self, capsys, tmp_path, doc):
        f = tmp_path / "f.json"
        f.write_text(json.dumps(doc))
        code, _ = run_bad(capsys, "closure", str(f))
        assert code == 2

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"rows": 1, "cols": 1, "entries": [1]},
        {"rows": 2, "entries": [[1, 0], [0, 1]]},
        {"cols": 1, "entries": [[1]]},
        {"rows": 1, "cols": 1},
        {"rows": True, "cols": True, "entries": [[1]]},
        {"rows": 1.0, "cols": 1.0, "entries": [[1]]},
    ])
    def test_matrix_from_doc_raises_value_error(self, doc):
        with pytest.raises(ValueError):
            matrix_from_doc(doc)

    @pytest.mark.parametrize("entry", [0.1, 1.0, True, False])
    def test_float_or_bool_entry_exits_2(self, capsys, tmp_path, entry):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[0, entry], [0, 0]]}))
        code, err = run_bad(capsys, "closure", str(f))
        assert code == 2 and "integers or fraction strings" in err

    def test_integer_and_fraction_string_entries_accepted(self):
        doc = {"rows": 2, "cols": 2, "entries": [[1, "-2/3"], ["0.5", 0]]}
        assert matrix_from_doc(doc) == Matrix([[1, Fraction(-2, 3)], [Fraction(1, 2), 0]])

    @pytest.mark.parametrize("width", ["0", "-1", "-1/8"])
    @pytest.mark.parametrize("argv", [
        ["bounds", "--family", "corner", "--n", "4"],
        ["certify", "--family", "corner", "--n", "4", "--t", "8", "--s", "3"],
    ])
    def test_width_not_positive_exits_2(self, capsys, monkeypatch, argv, width):
        refuse_work(monkeypatch)
        code, err = run_bad(capsys, *argv, f"--width={width}")
        assert code == 2 and err.startswith("liegen: error: --width: ")
        assert "width must be positive" in err

    @pytest.mark.parametrize("width", ["1e-2000", "1e-4200", str(Fraction(1, 2**257))])
    @pytest.mark.parametrize("argv", [
        ["bounds", "--family", "corner", "--n", "40"],
        ["certify", "--family", "corner", "--n", "7", "--t", "20", "--s", "3"],
    ])
    def test_width_below_minimum_exits_2(self, capsys, monkeypatch, argv, width):
        refuse_work(monkeypatch)
        code, err = run_bad(capsys, *argv, f"--width={width}")
        assert code == 2 and err.startswith("liegen: error: --width: ")
        assert "width must be at least 2^-256" in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "g2"],
        ["classify", "--family", "g2"],
        ["bounds", "--family", "g2"],
        ["certify", "--family", "g2", "--t", "17", "--r", "17"],
    ])
    def test_g2_size_other_than_7_exits_2(self, capsys, argv):
        code, err = run_bad(capsys, *argv, "--n", "5")
        assert code == 2 and "dimension 7" in err
        code, doc = run(capsys, *argv, "--n", "7")
        assert code == 0
        assert (doc["input"] if argv[0] == "certify" else doc)["n"] == 7

    @pytest.mark.parametrize("command", ["classify", "bounds"])
    def test_missing_n_exits_2(self, capsys, command):
        code, err = run_bad(capsys, command, "--family", "lower")
        assert code == 2 and err == "liegen: error: --n: the lower family requires n\n"

    @pytest.mark.parametrize("argv,flag", [
        (["gen", "--family", "corner", "--n", "4", "--b", "0,1"], "--b"),
        (["bounds", "--family", "corner", "--n", "4", "--b", "1,3"], "--b"),
        (["classify", "--family", "double_corner", "--n", "5", "--b", "3,-5,7"], "--b"),
        (["certify", "--family", "g2", "--t", "17", "--r", "17", "--b", "1,2,3,4,5,6"], "--b"),
        (["certify", "--family", "g2", "--t", "17", "--r", "17", "--s", "3"], "--s"),
        (["certify", "--family", "corner", "--n", "4", "--t", "17", "--s", "3", "--r", "5"],
         "--r"),
        (["exp", "--kind", "upper", "--n", "3", "--t", "1", "--b", "1,2"], "--b"),
        (["exp", "--kind", "corner", "--n", "3", "--s", "1", "--t", "1"], "--t"),
        (["scan", "--n", "3", "--t", "5", "--s", "3", "--b", "1,2"], "--b"),
    ])
    def test_flag_the_family_or_kind_does_not_use_exits_2(self, capsys, argv, flag):
        code, err = run_bad(capsys, *argv)
        assert code == 2 and f"{flag} does not apply" in err

    def test_lower_scan_without_a_doubling_vector_exits_2(self, capsys):
        code, err = run_bad(capsys, "scan", "--n", "2", "--t", "5", "--r", "3")
        assert code == 2 and "n >= 3" in err

    @pytest.mark.parametrize("second", [[], ["--s", "3", "--r", "3"]])
    def test_scan_without_exactly_one_of_s_and_r_exits_2(self, capsys, second):
        """The message names the flags, before any default b-vector is read."""
        code, err = run_bad(capsys, "scan", "--n", "2", "--t", "5", *second)
        assert code == 2 and "exactly one of --s (corner) or --r (lower)" in err

    def test_scan_above_the_work_cap_exits_2(self, capsys):
        code, err = run_bad(capsys, "scan", "--n", "2", "--t", "1", "--s", "1",
                            "--max-syll", "30", "--max-exp", "1")
        assert code == 2 and "work cap" in err

    @pytest.mark.parametrize("limits, message", [
        (["--max-syll", "30", "--max-exp", "1"], "exceeds the work cap"),
        (["--max-syll", "0"], "liegen: error: --max-syll: must be at least 1\n"),
        (["--max-exp", "-1"], "liegen: error: --max-exp: must be at least 1\n"),
    ], ids=["work-cap", "positivity", "max-exp"])
    def test_scan_limits_are_checked_before_any_work(self, capsys, monkeypatch,
                                                      limits, message):
        for name in ("exp_upper", "exp_corner", "exp_lower"):
            monkeypatch.setattr(groups, name, no_work)
        code, err = run_bad(capsys, "scan", "--n", "2", "--t", "1", "--s", "1", *limits)
        assert code == 2 and message in err

    def test_scan_with_more_identity_words_than_the_cap_exits_2(self, capsys, monkeypatch):
        """s = 0 makes b(s) the identity: 12 half-words, 22 identity words."""
        argv = ["scan", "--n", "2", "--t", "1", "--s", "0", "--max-syll", "4", "--max-exp", "1"]
        monkeypatch.setattr(groups, "MAX_HALF_WORDS", 22)
        code, doc = run(capsys, *argv)
        assert code == 1 and len(doc["collisions"]) == 22
        monkeypatch.setattr(groups, "MAX_HALF_WORDS", 21)
        code, err = run_bad(capsys, *argv)
        assert code == 2 and "more than 21 identity words exceed the work cap" in err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--family=corner", "--n=3", "--width="],
        ["classify", "--family=lower", "--n=4", "--b="],
        ["gen", "--family=lower", "--n=4", "--b="],
        ["certify", "--family=lower", "--n=4", "--t=9", "--r=5", "--b="],
        ["certify", "--family=corner", "--n=4", "--t=8", "--s="],
        ["exp", "--kind=lower", "--n=4", "--r=1/2", "--b="],
        ["scan", "--n=3", "--t=5", "--r=3", "--b="],
    ])
    def test_empty_flag_value_exits_2_and_is_never_the_default(self, capsys, argv):
        code, err = run_bad(capsys, *argv)
        assert code == 2 and "Invalid literal for Fraction: ''" in err

    @pytest.mark.parametrize("argv", [
        ["certify", "--family=corner", "--n=4", "--t=--", "--s=3"],
        ["classify", "--family=lower", "--n=4", "--b=--"],
        ["scan", "--n=--", "--t=5", "--s=3"],
    ])
    def test_double_dash_value_exits_2(self, capsys, argv):
        """Python 3.13 passes "--" on as the value; earlier versions parse it
        as an empty list, which the parser refuses."""
        code, _ = run_bad(capsys, *argv)
        assert code == 2

    def test_scan_has_no_seed(self, capsys):
        code, err = run_bad(capsys, "scan", "--n", "2", "--t", "3", "--s", "3", "--seed", "1")
        assert code == 2 and err == "liegen: error: unrecognized arguments: --seed 1\n"

    def test_a_parser_refusal_is_one_line(self, capsys):
        code, err = run_bad(capsys, "gen", "--family", "corner", "--n", "x")
        assert code == 2 and err == "liegen: error: argument --n: invalid int value: 'x'\n"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: liegen scan")


def refused_past_the_limit(err, source):
    """The refusal names the flag or file and gives no advice to lift the limit."""
    return (f"liegen: error: {source}: Exceeds the limit" in err
            and "set_int_max_str_digits" not in err)


class TestDigitLimit:
    """Inputs are read under Python's int/str digit limit, and exact output
    may run past it; ``main`` lifts the limit only while a command runs."""

    def test_output_past_the_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, doc = run(capsys, "exp", "--kind", "upper", "--n", "3", "--t", "1e2200")
        assert code == 0
        assert doc["matrix"]["entries"][0][2] == "5" + "0" * 4399
        assert sys.get_int_max_str_digits() == limit

    def test_argv_number_past_the_limit_exits_2(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, err = run_bad(capsys, "exp", "--kind", "upper", "--n", "3", "--t", "1" * 5001)
        assert code == 2 and refused_past_the_limit(err, "--t")
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("args, source", [
        (("--kind", "upper", "--t", "1/" + "3" * 5001), "--t"),
        (("--kind", "lower", "--r", "1", "--b", "2," + "1" * 5001), "--b"),
    ], ids=["denominator", "b-vector"])
    def test_denominator_or_b_entry_past_the_limit_exits_2(self, capsys, args, source):
        code, err = run_bad(capsys, "exp", "--n", "3", *args)
        assert code == 2 and refused_past_the_limit(err, source)

    @pytest.mark.parametrize("t", ["1e5000", "1e-5000"])
    def test_argv_exponent_past_the_limit_exits_2(self, capsys, t):
        code, err = run_bad(capsys, "exp", "--kind", "upper", "--n", "3", "--t", t)
        assert code == 2 and refused_past_the_limit(err, "--t")

    def test_a_large_exponent_is_refused_before_the_value_is_built(self, capsys):
        class TooSlow(BaseException):
            """Raised by SIGALRM; ``main`` does not catch it."""

        def too_slow(signum, frame):
            raise TooSlow

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(2)
        try:
            code, err = run_bad(capsys, "exp", "--kind", "upper", "--n", "3", "--t", "1e100000000")
        except TooSlow:
            pytest.fail("over 2 s")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2 and refused_past_the_limit(err, "--t")

    def test_zero_with_an_exponent_past_the_limit_is_zero(self, capsys):
        """No digit of 0e99999 passes the limit, so it is read as 0: a(0) = I."""
        code, doc = run(capsys, "exp", "--kind", "upper", "--n", "3", "--t", "0e99999")
        assert code == 0 and matrix_from_doc(doc["matrix"]) == Matrix.identity(3)

    def test_matrix_file_integer_past_the_limit_exits_2(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"rows": 1, "cols": 1, "entries": [[' + "1" * 5001 + "]]}")
        code, err = run_bad(capsys, "closure", str(f))
        assert code == 2 and refused_past_the_limit(err, f)

    def test_matrix_file_exponent_past_the_limit_exits_2(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"rows": 1, "cols": 1, "entries": [["1e5000"]]}')
        code, err = run_bad(capsys, "closure", str(f))
        assert code == 2 and refused_past_the_limit(err, f)


class TestDivisionByZero:
    """A zero denominator is refused with the flag or file that holds it."""

    @pytest.mark.parametrize("args, source", [
        (("exp", "--kind", "upper", "--n", "3", "--t", "1/0"), "--t"),
        (("bounds", "--family", "corner", "--n", "4", "--width", "1/0"), "--width"),
        (("bounds", "--family", "lower", "--n", "3", "--b", "1/0,1"), "--b"),
    ], ids=["t", "width", "b-entry"])
    def test_flag_exits_2(self, capsys, args, source):
        code, err = run_bad(capsys, *args)
        assert code == 2 and f"liegen: error: {source}: division by zero" in err

    def test_matrix_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"rows": 1, "cols": 1, "entries": [["1/0"]]}')
        code, err = run_bad(capsys, "closure", str(f))
        assert code == 2 and f"liegen: error: {f}: division by zero" in err


class TestNotANumber:
    """Text that is no number is refused with the flag or file that holds it."""

    @pytest.mark.parametrize("args, source", [
        (("exp", "--kind", "upper", "--n", "3", "--t", "x"), "--t"),
        (("classify", "--family", "lower", "--n", "3", "--b", "1,x"), "--b"),
        (("bounds", "--family", "corner", "--n", "4", "--width", "xe9999"), "--width"),
    ], ids=["t", "b-entry", "exponent"])
    def test_flag_exits_2(self, capsys, args, source):
        code, err = run_bad(capsys, *args)
        assert code == 2 and err.startswith(f"liegen: error: {source}: Invalid literal")

    def test_matrix_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"rows": 1, "cols": 1, "entries": [["x"]]}')
        code, err = run_bad(capsys, "closure", str(f))
        assert code == 2 and err == f"liegen: error: {f}: Invalid literal for Fraction: 'x'\n"

def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    """The parser keeps the ``cmd_*`` functions it was built with, so the
    fault goes into what ``cmd_gen`` calls."""
    def broken(*args):
        raise AssertionError("pair check failed")

    monkeypatch.setattr(cli, "build_pair", broken)
    code = main(["gen", "--family", "corner", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "liegen: internal error: AssertionError: pair check failed\n"


@pytest.mark.parametrize("argv", [
    ("gen", "--family", "lower", "--n", "4", "--b", "doubling"),
    ("closure", "{tmp}/e12.json", "{tmp}/e21.json"),
    ("classify", "--family", "corner", "--n", "4"),
    ("bounds", "--family", "g2"),
    ("exp", "--kind", "lower", "--n", "4", "--r", "1/2", "--b", "3,-5,7"),
    ("certify", "--family", "corner", "--n", "4", "--t", "3", "--s", "3"),
    ("scan", "--n", "2", "--t", "1", "--s", "1", "--max-syll", "6"),
    ("thin", "--n", "3", "--q", "3", "--s", "3"),
], ids=lambda argv: argv[0])
def test_a_command_returns_the_document_that_main_prints(capsys, tmp_path, argv):
    """A ``cmd_*`` function prints nothing and returns its document and exit
    code; ``main`` prints that document as indented JSON and returns the code."""
    for i, j in ((1, 2), (2, 1)):
        (tmp_path / f"e{i}{j}.json").write_text(json.dumps(matrix_to_doc(Matrix.unit(2, i, j))))
    argv = [a.format(tmp=tmp_path) for a in argv]
    args = cli.build_parser().parse_args(argv)
    cli.read_inputs(args)
    result = args.func(args)
    assert capsys.readouterr().out == ""
    assert isinstance(result, tuple) and len(result) == 2
    doc, code = result
    assert type(doc) is dict and type(code) is int
    assert main(argv) == code
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


@contextlib.contextmanager
def digit_limit(limit):
    """Python's int/str digit limit set to ``limit`` (0 lifts it) inside the block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestJsonWriter:
    """``main`` prints a document through ``cli._put_json``, which must render
    it exactly as ``json.dumps(doc, indent=2)`` does."""

    @staticmethod
    def assert_renders_as_json(doc):
        parts = []
        cli._put_json(doc, "\n", parts.append)
        assert all(type(p) is str for p in parts)
        got, want = "".join(parts), json.dumps(doc, indent=2)
        # compare around the first difference: pytest's diff of two large texts takes minutes
        at = max(0, len(os.path.commonprefix([got, want])) - 60)
        assert (got[at:at + 120], len(got)) == (want[at:at + 120], len(want))

    @staticmethod
    def command_doc(argv):
        args = cli.build_parser().parse_args(argv)
        cli.read_inputs(args)
        return args.func(args)[0]

    def test_every_golden_document(self, tmp_path):
        from test_golden_cli import CASES, FILES

        for name, doc in FILES.items():
            (tmp_path / name).write_text(json.dumps(doc))
        rendered = 0
        for argv in CASES:
            argv = [str(tmp_path / a) if a in FILES else a for a in argv]
            with digit_limit(0):
                try:
                    doc = self.command_doc(argv)
                except ValueError:  # the empty flag values: exit 2, no document
                    continue
                self.assert_renders_as_json(doc)
            rendered += 1
        assert rendered == len(CASES) - 9

    @pytest.mark.parametrize("argv", [
        ("exp", "--kind", "upper", "--n", "100", "--t", "1/3"),
        ("bounds", "--family", "lower", "--n", "40"),
        ("scan", "--n", "3", "--t", "1/2", "--s", "1", "--max-syll", "12", "--max-exp", "2"),
    ], ids=["exp-upper-100", "bounds-lower-40", "scan-72-collisions"])
    def test_large_documents(self, argv):
        doc = self.command_doc(list(argv))
        if argv[0] == "scan":  # collisions are tuples of (letter, exponent) tuples
            assert len(doc["collisions"]) == 72
            assert type(doc["collisions"][0]) is type(doc["collisions"][0][0]) is tuple
        self.assert_renders_as_json(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), {"a": {}, "b": [], "c": ()},
        [[], {}, (), [[]], [{}], ({"x": []},)],
        {"outer": {"inner": {"deepest": [[[], ()]]}}},
        ((1, "a"), (2, "b")),
    ], ids=repr)
    def test_empty_and_nested_containers(self, doc):
        self.assert_renders_as_json(doc)

    @pytest.mark.parametrize("text", [
        'say "hi"', "back\\slash", "\x00\x01\x1f\x7f", "tab\tnew\nline\rfeed\x0c\x08",
        "café", "☃ snow", "\U0001F600 face", "\ud800 lone surrogate", "",
    ])
    def test_strings(self, text):
        self.assert_renders_as_json(text)
        self.assert_renders_as_json({text: text, "list": [text, text], "mixed": [text, 1]})

    @pytest.mark.parametrize("x", [
        -0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.5, 1e16, 0.1,
        float("nan"), float("inf"), float("-inf"),
    ], ids=repr)
    def test_floats(self, x):
        self.assert_renders_as_json(x)
        self.assert_renders_as_json({"approx": x, "items": [x, x], "mixed": [x, 1, "a"]})

    def test_true_false_none_and_ints(self):
        for x in (True, False, None, 0, -7, 2**70):
            self.assert_renders_as_json(x)
        self.assert_renders_as_json({"t": True, "f": False, "n": None, "i": -3})
        self.assert_renders_as_json([True, False, None])
        self.assert_renders_as_json([True, 1, False, 0])  # bools among ints stay true/false
        self.assert_renders_as_json([1, -2, 3 ** 40])

    def test_an_int_past_the_digit_limit(self):
        big = 7 * 10 ** 4400
        with digit_limit(0):
            self.assert_renders_as_json({"big": big, "ints": [big, -big], "mixed": [big, "a"]})

    def test_an_unsupported_type_is_refused(self):
        for doc in (Fraction(1, 2), {"x": {1, 2}}, [b"bytes"]):
            with pytest.raises(TypeError):
                cli._put_json(doc, "\n", [].append)


def src_env() -> dict:
    """The environment, with this checkout's ``src`` first on PYTHONPATH."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("module", ["liegen", "liegen.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "scan", "--n", "2", "--t", "5", "--s", "3", "--r", "3"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "liegen: error: scan needs exactly one of --s (corner) or --r (lower)\n"


@pytest.mark.parametrize("argv, head", [
    (("exp", "--kind", "upper", "--n", "100", "--t", "1/3"), b'{\n  "kind"'),
    (("bounds", "--family", "lower", "--n", "40"), b'{\n  "width'),
], ids=["exp", "bounds"])
def test_a_closed_stdout_exits_141_without_a_message(argv, head):
    """``liegen ... | head -c 10``: the reader goes away while the output (424 kB
    for ``exp``, 726 kB for ``bounds``), more than a pipe buffer holds, is still
    unwritten."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "liegen", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
    )
    assert proc.stdout.read(10) == head
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ("bounds", "--family", "corner", "--n", "3"),  # fails at the final flush
    ("exp", "--kind", "upper", "--n", "100", "--t", "1/3"),  # fails inside main
], ids=["small", "large"])
def test_a_failed_write_to_stdout_exits_3_with_one_line(argv):
    """A full disk is not bad input: one line on stderr, no traceback, exit 3."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "liegen", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == "liegen: error: cannot write output: [Errno 28] No space left on device\n"


def test_the_library_retains_nothing_between_calls():
    """After one warm-up call per command, 50 more rounds of the same calls
    leave less than 16 KB more traced memory: no cache or record survives a
    call, so a process that serves many invocations does not grow."""
    rounds = [
        ("scan", "--n", "2", "--t", "1", "--s", "1", "--max-syll", "4", "--max-exp", "2"),
        ("classify", "--family", "corner", "--n", "3"),
        ("certify", "--family", "corner", "--n", "3", "--t", "8", "--s", "3"),
        ("bounds", "--family", "corner", "--n", "3"),
        ("thin", "--n", "3", "--q", "3", "--s", "3"),
        ("exp", "--kind", "upper", "--n", "3", "--t", "1/2"),
    ]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            for argv in rounds:
                main(list(argv))
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                for argv in rounds:
                    main(list(argv))
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert growth < 16 * 1024, f"{growth} bytes retained over 50 rounds"
