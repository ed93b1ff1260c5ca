"""The result records are immutable named tuples: they compare and hash by
field, and the two with rules, GeneratorPair and PingPongBound, refuse bad
fields when they are built, by _make and by _replace."""

from fractions import Fraction

import pytest

from liegen.exact import Matrix, Polynomial, RootBracket
from liegen.generators import GeneratorPair, shift_matrix, shift_pair
from liegen.pingpong import PingPongBound, certify_free_dense, compute_t0


@pytest.mark.parametrize("build, error, message", [
    (lambda: GeneratorPair(3, shift_matrix(3), Matrix.identity(3), "corner"),
     ValueError, "generator is not nilpotent"),
    (lambda: GeneratorPair(3, shift_matrix(3), shift_matrix(4), "corner"),
     ValueError, "generator dimension mismatch"),
    (lambda: PingPongBound("t_bound", (Polynomial([-2, 1]),),
                           RootBracket(Fraction(2), Fraction(3)), Fraction(5, 2)),
     AssertionError, "bracket exceeds safe_value"),
], ids=["not-nilpotent", "two-sizes", "bracket-above-safe-value"])
def test_bad_fields_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("build, error, message", [
    (lambda: compute_t0(4)._replace(safe_value=Fraction(0)),
     AssertionError, "safe_value lacks a positivity witness"),
    (lambda: PingPongBound._make(compute_t0(4)[:3] + (Fraction(0),)),
     AssertionError, "safe_value lacks a positivity witness"),
    (lambda: shift_pair(3)._replace(second=Matrix.identity(3)),
     ValueError, "generator is not nilpotent"),
    (lambda: GeneratorPair._make((3, shift_matrix(3), shift_matrix(4), "corner", None)),
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
    certify_free_dense(3, "corner", 100, s=3),
], ids=["GeneratorPair", "PingPongBound", "Certificate"])
def test_attributes_cannot_be_assigned(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "added"


def test_records_compare_and_hash_by_field():
    assert shift_pair(4) == GeneratorPair(n=4, first=shift_matrix(4),
                                          second=Matrix.unit(4, 4, 1), family="corner")
    lo, hi = RootBracket(Fraction(1), Fraction(2))
    assert (lo, hi) == RootBracket(lo=Fraction(1), hi=Fraction(2))
