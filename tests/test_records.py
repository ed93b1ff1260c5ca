"""The result records are immutable named tuples: they compare and hash by
field, and the two with rules, GeneratorPair and PingPongBound, refuse bad
fields when they are built, by _make and by _replace.  No field copies
another: what one field determines is read off it."""

from fractions import Fraction

import pytest

from liegen.closure import classify, predicted_type, subalgebra_closure
from liegen.exact import Matrix, Polynomial, RootBracket
from liegen.generators import (
    CriterionResult,
    GeneratorPair,
    lower_bidiagonal,
    lower_pair,
    shift_matrix,
    shift_pair,
)
from liegen.groups import freeness_scan, thin_pair
from liegen.pingpong import PingPongBound, certify_free_dense, compute_t0


def not_nilpotent(second):
    """A pair whose second generator is refused as not nilpotent."""
    return (lambda: GeneratorPair(shift_matrix(second.n), second, "corner"),
            ValueError, "generator is not nilpotent")


def conjugate(m, p, p_inverse):
    assert p * p_inverse == Matrix.identity(m.n)
    return p * m * p_inverse


@pytest.mark.parametrize("build, error, message", [
    (lambda: GeneratorPair(shift_matrix(3), Matrix.identity(3), "corner"),
     ValueError, "generator is not nilpotent"),
    not_nilpotent(Matrix.identity(7)),
    not_nilpotent(Matrix.unit(5, 5, 5)),  # diag(0, ..., 0, 1)
    not_nilpotent(Matrix.identity(4) + Matrix.unit(4, 1, 2)),
    not_nilpotent(shift_matrix(5) + Matrix.unit(5, 5, 1)),  # its 5th power is I
    (lambda: GeneratorPair(shift_matrix(3), shift_matrix(4), "corner"),
     ValueError, "generator dimension mismatch"),
    (lambda: GeneratorPair(shift_matrix(3), lower_bidiagonal((1, 2)), "lower_bidiagonal",
                           b=(9, 9)),
     TypeError, "unexpected keyword argument 'b'"),
    (lambda: PingPongBound("t_bound", (Polynomial([-2, 1]),),
                           RootBracket(Fraction(2), Fraction(3)), Fraction(5, 2)),
     AssertionError, "bracket exceeds safe_value"),
], ids=["not-nilpotent", "identity-7", "last-diagonal-unit", "unipotent", "cyclic-shift",
        "two-sizes", "b-beside-its-matrix", "bracket-above-safe-value"])
def test_bad_fields_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("second", [
    Matrix([[2, -4], [1, -2]]),
    # the 4x4 shift conjugated by a unimodular integer matrix and its inverse
    conjugate(shift_matrix(4),
              Matrix([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1], [0, 0, 1, 1]]),
              Matrix([[0, 0, 1, -1], [1, 0, -1, 1], [-1, 1, 1, -1], [1, -1, -1, 2]])),
    shift_pair(6).second,
    Matrix([[0] * 3] * 3),
], ids=["rank-one-2x2", "conjugated-shift", "corner-index-2", "zero"])
def test_nilpotent_generators_are_accepted(second):
    """Nilpotent, so accepted, also when not triangular: m^k = 0 for some k <= n."""
    assert GeneratorPair(shift_matrix(second.n), second, "corner").second == second


@pytest.mark.parametrize("build, error, message", [
    (lambda: compute_t0(4)._replace(safe_value=Fraction(0)),
     AssertionError, "safe_value lacks a positivity witness"),
    (lambda: PingPongBound._make(compute_t0(4)[:3] + (Fraction(0),)),
     AssertionError, "safe_value lacks a positivity witness"),
    (lambda: shift_pair(3)._replace(second=Matrix.identity(3)),
     ValueError, "generator is not nilpotent"),
    (lambda: GeneratorPair._make((shift_matrix(3), shift_matrix(4), "corner")),
     ValueError, "generator dimension mismatch"),
], ids=["replace-safe-value", "make-bound", "replace-second", "make-pair"])
def test_make_and_replace_keep_the_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("record", [
    shift_pair(3), compute_t0(4),
], ids=["GeneratorPair", "PingPongBound"])
def test_make_and_replace_rebuild_a_good_record(record):
    assert type(record)._make(record) == record
    assert record._replace() == record
    field = record._fields[-1]
    assert record._replace(**{field: getattr(record, field)}) == record


@pytest.mark.parametrize("record", [
    shift_pair(3),
    compute_t0(3),
    certify_free_dense(3, "corner", 100, second=3),
], ids=["GeneratorPair", "PingPongBound", "Certificate"])
def test_attributes_cannot_be_assigned(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "added"


def test_records_compare_and_hash_by_field():
    assert shift_pair(4) == GeneratorPair(first=shift_matrix(4), second=Matrix.unit(4, 4, 1),
                                          family="corner")
    lo, hi = RootBracket(Fraction(1), Fraction(2))
    assert (lo, hi) == RootBracket(lo=Fraction(1), hi=Fraction(2))


LOWER = lower_pair((8, 12, 14))
CERT = certify_free_dense(4, "lower_bidiagonal", 8, second=3, b=(8, 12, 14))
THIN, WARNED = thin_pair(4, 2, 3), thin_pair(4, 1, 3)
SCAN = freeness_scan(2, 3, 3, max_syllables=3, max_exponent=2)


@pytest.mark.parametrize("record, dropped, read", [
    (LOWER, "n", lambda p: p.n == p.first.n == 4),
    (subalgebra_closure([LOWER.first, LOWER.second]), "dim",
     lambda c: c.dim == c.basis.rank == 15),
    (CERT, "n", lambda c: c.pair.n == 4),
    (CERT, "family", lambda c: c.pair.family == "lower_bidiagonal"),
    (THIN, "n", lambda p: p.n == p.first.n == 4),
    (THIN, "certified", lambda p: p.certified and p.warning is None
     and not WARNED.certified and WARNED.warning is not None),
    (LOWER, "b", lambda p: p.b == (8, 12, 14) and shift_pair(4).b is None
     and p._replace(second=lower_bidiagonal((1, -2, 5))).b == (1, -2, 5)),
    (CERT.closure, "type_label", lambda c: c.type_label == classify(4, c.dim)
     and c.type_label.name == "A3"),
    (CERT, "target", lambda c: c.target == predicted_type("lower_bidiagonal", 4)),
    (CERT, "conclusion", lambda c: c.conclusion == "free_dense_certified"
     and c._replace(closure=subalgebra_closure([c.pair.first])).conclusion == "insufficient"
     and c._replace(second=Fraction(1, 2)).conclusion == "dense_only"),
    (CERT, "parameters", lambda c: c.parameters == {"t": 8, "r": 3, "b": c.pair.b}
     and c._replace(t=Fraction(9)).parameters["t"] == 9),
    (SCAN, "words_checked", lambda r: r.words_checked == 2 * (4 + 4**2 + 4**3)
     and r._replace(max_syllables=1, max_exponent=3).words_checked == 12),
    (THIN, "t", lambda p: p.t == p.first.rows[0][1] == 12 and type(p.t) is int),
    (THIN, "s", lambda p: p.s == p.second.rows[3][0] == 3 and type(p.s) is int),
    (CriterionResult((4, 2, 16)), "holds", lambda r: r.holds
     and not r._replace(values=(4, -4)).holds and not r._replace(values=(0, 1)).holds
     and not r._replace(values=(2, 2)).holds),
], ids=["GeneratorPair-n", "ClosureResult-dim", "Certificate-n", "Certificate-family",
        "ThinPair-n", "ThinPair-certified", "GeneratorPair-b", "ClosureResult-type_label",
        "Certificate-target", "Certificate-conclusion", "Certificate-parameters",
        "ScanReport-words_checked", "ThinPair-t", "ThinPair-s", "CriterionResult-holds"])
def test_a_fact_is_read_off_the_field_that_holds_it(record, dropped, read):
    """A record cannot hold two facts that disagree: the copy is no field."""
    assert dropped not in record._fields
    assert read(record)
