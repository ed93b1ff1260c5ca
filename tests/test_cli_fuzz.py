"""Fuzz of ``liegen.cli.main``: every outcome is a documented one.

Random argv lists, written ``--opt=value`` so that empty and dash-led values
reach the parser as values, each return 0, 1 or 2, the parser's refusals
included; exit 3 (an internal error), any exception, a traceback on
standard error and a run past TIME_LIMIT_S seconds all fail.
hypothesis's ``deadline`` only reports a slow run after it ends, so a
``signal.alarm`` stops a run that hangs.  hypothesis is an optional test
dependency: without it this module is skipped.
"""

from __future__ import annotations

import contextlib
import io
import signal

import pytest

from liegen.cli import main
from liegen.generators import FAMILIES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)

# The flags of each subcommand (``closure`` reads files and is left out).
FLAGS = {
    "gen": ("family", "n", "b"),
    "classify": ("family", "n", "b"),
    "bounds": ("family", "n", "b", "width"),
    "exp": ("kind", "n", "t", "s", "r", "b"),
    "certify": ("family", "n", "t", "s", "r", "b", "width"),
    "scan": ("n", "t", "s", "r", "b", "max-syll", "max-exp"),
    "thin": ("n", "q", "s"),
}
# Good, empty and malformed values alike.
VALUES = (
    "0", "1", "3", "-1", "17", "1/2", "-5/3", "1/1024", "1e3", "0.5",
    "", " ", "x", "1/0", "nan", "--", "doubling", "1,2", "3,-5,7", "1,,2",
    "1,2,3,4,5,6", "1e400", "1e-400", "1,1e-400",
)
# Entries of the lower-family b-vectors below, two of them past the float range.
B_ENTRIES = ("1", "-3", "1/2", "1e400", "1e-400")
TIME_LIMIT_S = 30
FAMILY_NAMES = sorted({*FAMILIES, *(f.alias for f in FAMILIES.values()), "nonsense", ""})


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag in FLAGS[command]:
        if not draw(st.booleans()):
            continue
        if flag == "family":
            value = draw(st.sampled_from(FAMILY_NAMES))
        elif flag == "kind":
            value = draw(st.sampled_from(["upper", "corner", "lower", "x"]))
        elif flag == "n":
            value = str(draw(st.integers(-2, 8)))
        elif flag == "max-syll":
            value = str(draw(st.integers(-1, 4)))
        elif flag == "max-exp":
            value = str(draw(st.integers(-1, 3)))
        else:
            value = draw(st.sampled_from(VALUES))
        argv.append(f"--{flag}={value}")
    return argv


@st.composite
def lower_argvs(draw) -> list[str]:
    """``bounds`` or ``certify`` of the lower family with a b-vector of length
    n - 1, which random argv lists seldom reach: an entry past the float range
    puts a bound past it too, where the ``approx`` fields must be null."""
    command = draw(st.sampled_from(["bounds", "certify"]))
    n = draw(st.integers(2, 6))
    b = draw(st.lists(st.sampled_from(B_ENTRIES), min_size=n - 1, max_size=n - 1))
    argv = [command, "--family=lower", f"--n={n}", f"--b={','.join(b)}"]
    if command == "certify":
        argv += [f"--{flag}={draw(st.sampled_from(['3', '-5/3', '1e400']))}" for flag in "tr"]
    return argv


class TimeLimit(BaseException):
    """Raised by SIGALRM; a BaseException, so ``main``'s exit-3 handler
    does not catch it."""


def _alarm(signum, frame):
    raise TimeLimit


@SETTINGS
@hypothesis.given(st.one_of(argvs(), lower_argvs()))
def test_every_outcome_is_documented(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(TIME_LIMIT_S)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except TimeLimit:
            pytest.fail(f"over {TIME_LIMIT_S} s: {argv}")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("liegen: error: ") and err.getvalue().count("\n") == 1
