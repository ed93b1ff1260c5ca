import json
import os
import pathlib
import signal
import subprocess
import sys
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
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "nonsense", "--n", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

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
    ], ids=["borel-gl4", "heisenberg-gl3"])
    def test_solvable_closure_is_unrecognized(self, capsys, tmp_path, n, units):
        """The upper-triangular units of gl(4) span the Borel subalgebra, of
        dim sp(4) = 10; e12 and e23 close to the Heisenberg algebra, of
        dim so(3) = 3.  Neither is simple, so neither may be named."""
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
        assert code == 2 and "parameter r alone" in err

    def test_certify_checks_the_size_before_any_bound(self, capsys, monkeypatch):
        def no_bound(*args, **kwargs):
            raise AssertionError("r0 computed for an invocation that is refused")

        monkeypatch.setattr(pingpong, "compute_r0", no_bound)
        code, err = run_bad(capsys, "certify", "--family", "lower", "--n", "2",
                            "--t", "3", "--r", "1", "--b", "5")
        assert code == 2 and "the lower pair requires n >= 3" in err

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
    def test_width_not_positive_exits_2(self, capsys, argv, width):
        code, err = run_bad(capsys, *argv, f"--width={width}")
        assert code == 2 and "width must be positive" in err

    @pytest.mark.parametrize("width", ["1e-2000", "1e-4200", str(Fraction(1, 2**257))])
    @pytest.mark.parametrize("argv", [
        ["bounds", "--family", "corner", "--n", "40"],
        ["certify", "--family", "corner", "--n", "7", "--t", "20", "--s", "3"],
    ])
    def test_width_below_minimum_exits_2(self, capsys, argv, width):
        code, err = run_bad(capsys, *argv, f"--width={width}")
        assert code == 2 and "width must be at least 2^-256" in err

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
        assert code == 2 and "--n is required" in err

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
        (["--max-syll", "0"], "max_syllables and max_exponent must be positive"),
    ], ids=["work-cap", "positivity"])
    def test_scan_limits_are_checked_before_any_work(self, capsys, monkeypatch,
                                                      limits, message):
        def no_work(*args):
            raise AssertionError("a generator exponentiated for a refused scan")

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
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "Traceback" not in captured.err

    def test_scan_has_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--n", "2", "--t", "3", "--s", "3", "--seed", "1"])
        assert exc.value.code == 2
        capsys.readouterr()


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


def test_a_closed_stdout_exits_141_without_a_message():
    """``liegen ... | head -c 10``: the reader goes away while 424 kB of output,
    more than a pipe buffer holds, are still unwritten."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "liegen", "exp", "--kind", "upper", "--n", "100", "--t", "1/3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
    )
    assert proc.stdout.read(10) == b'{\n  "kind"'
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
