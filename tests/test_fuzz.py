"""Fuzzing the three text parsers: only the package's own errors may escape.

Inputs mix grammar tokens (so that many of them get deep into the
parsers), deep nesting well past the formula depth limit, and arbitrary
characters. Arbitrary bytes also go through the command line, which
must answer with an exit code, never an exception.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from prefarg.cli import main
from prefarg.errors import PrefArgError
from prefarg.formulas import parse_formula
from prefarg.framework import parse_abstract_framework
from prefarg.kb import parse_kb

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

FORMULA_TOKENS = ["a", "b", "c", "x_1", "Q", "!", "~", "&", "|", "->", "<->", "<-", "-",
                  "(", ")", " ", "\t", "\n", "$", "\x00"]


def token_text(tokens, max_size=40):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


def nested_text():
    """One opener repeated around an atom, at depths around and far past the limit."""
    return st.builds(
        lambda opener, n, closer: opener * n + "a" + closer * n,
        st.sampled_from(["(", "!", "~", "a & ", "a | ", "a -> ", "a <-> ", "!(", "(a & "]),
        st.integers(min_value=95, max_value=1500),
        st.sampled_from(["", ")", " & a)", "))"]),
    )


def formula_text():
    return st.one_of(token_text(FORMULA_TOKENS), nested_text(), st.text(max_size=40))


def kb_text():
    line = st.one_of(
        st.sampled_from(["[core]", "[stratum 1]", "[stratum 2]", "[stratum 3]",
                         "[stratum 0]", "[stratum]", "[", "#", ""]),
        formula_text(),
    )
    return st.one_of(st.lists(line, max_size=8).map("\n".join), st.text(max_size=80))


AF_TOKENS = ["arg(", "def(", "pref(", "a", "b", "c", "_x", "9", ",", ")", "(", ".",
             "%", " ", "\n", "arg(a).", "arg(b).", "def(a,b).", "pref(b,a).", "def(a,c)."]


def af_text():
    return st.one_of(token_text(AF_TOKENS), st.text(max_size=80))


def parses_or_refuses(parse, text):
    try:
        parse(text)
    except PrefArgError:
        pass


@FUZZ
@given(formula_text())
def test_parse_formula(text):
    parses_or_refuses(parse_formula, text)


@FUZZ
@given(kb_text())
@example("[stratum " + "1" * 5000 + "]")
def test_parse_kb(text):
    parses_or_refuses(parse_kb, text)


@FUZZ
@given(af_text())
def test_parse_abstract_framework(text):
    parses_or_refuses(parse_abstract_framework, text)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(max_size=60), st.sampled_from([".kb", ".af"]))
@example(b"\xff", ".kb")
def test_cli_on_arbitrary_bytes(data, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / f"input{suffix}"
        target.write_bytes(data)
        code = main(["extensions", str(target), "--cap", "8"])
    assert code in (0, 1, 2)
