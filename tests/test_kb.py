import random

import pytest
from hypothesis import given, strategies as st

import randgen
from conftest import fixture_text
from prefarg.errors import KBFormatError
from prefarg.formulas import Atom, Implies, Not, parse_formula
from prefarg.kb import BeliefRef, StratifiedKB, parse_kb, render_kb

a, na, b = Atom("a"), Not(Atom("a")), Atom("b")


class TestParsing:
    def test_sections_and_comments(self):
        kb = parse_kb(
            "# header comment\n"
            "[core]\n"
            "a -> b   # trailing comment\n"
            "\n"
            "[stratum 1]\n"
            "a\n"
            "[stratum 2]\n"
            "!b\n"
        )
        assert kb.core == (Implies(a, b),)
        assert kb.strata == ((a,), (Not(b),))

    def test_core_is_optional(self):
        kb = parse_kb("[stratum 1]\na\n")
        assert kb.core == ()
        assert kb.n_strata == 1

    def test_empty_text_gives_empty_base(self):
        kb = parse_kb("")
        assert kb.core == () and kb.strata == ()

    def test_empty_stratum_is_preserved(self):
        kb = parse_kb("[stratum 1]\n[stratum 2]\na\n")
        assert kb.strata == ((), (a,))

    @pytest.mark.parametrize("text,fragment", [
        ("[stratum 2]\na\n", "expected [stratum 1]"),
        ("[stratum 1]\na\n[stratum 3]\nb\n", "expected [stratum 2]"),
        ("a\n", "before any section"),
        ("[core]\na\n[core]\nb\n", "duplicate [core]"),
        ("[stratum 1]\na\n[core]\nb\n", "[core] must precede"),
        ("[chapter 1]\na\n", "bad section header"),
        ("[stratum 1]\na &\n", "line 2"),
        ("[stratum 1]\na\na\n", "duplicate formula"),
        ("[core]\na\n!a\n", "inconsistent core"),
    ])
    def test_format_errors(self, text, fragment):
        with pytest.raises(KBFormatError, match=None) as err:
            parse_kb(text)
        assert fragment in str(err.value)

    def test_duplicate_across_strata_rejected(self):
        with pytest.raises(KBFormatError):
            parse_kb("[stratum 1]\na\n[stratum 2]\na\n")

    def test_same_formula_in_core_and_stratum_is_allowed(self):
        kb = parse_kb("[core]\na\n[stratum 1]\na\n")
        assert kb.core == (a,) and kb.strata == ((a,),)


class TestStratifiedKB:
    def test_beliefs_and_refs_walk_in_order(self):
        kb = parse_kb(fixture_text("example2.kb"))
        refs = kb.belief_refs()
        assert refs == (
            BeliefRef(1, 0), BeliefRef(1, 1), BeliefRef(2, 0), BeliefRef(3, 0),
        )
        assert [f for _, f in kb.beliefs()] == [kb.resolve(r) for r in refs]

    def test_resolve_dangling(self):
        kb = parse_kb("[stratum 1]\na\n")
        with pytest.raises(ValueError):
            kb.resolve(BeliefRef(2, 0))
        with pytest.raises(ValueError):
            kb.resolve(BeliefRef(1, 5))

    def test_certainty_level(self):
        kb = parse_kb(fixture_text("example2.kb"))
        assert kb.certainty_level([]) == 0
        assert kb.certainty_level([BeliefRef(1, 0)]) == 1
        assert kb.certainty_level([BeliefRef(1, 0), BeliefRef(3, 0)]) == 3

    def test_constructor_validates_like_parser(self):
        with pytest.raises(KBFormatError):
            StratifiedKB((a, na), ())
        with pytest.raises(KBFormatError):
            StratifiedKB((), ((a,), (a,)))


class TestRendering:
    def test_render_round_trip_fixture(self):
        kb = parse_kb(fixture_text("example3.kb"))
        assert parse_kb(render_kb(kb)) == kb

    def test_render_empty(self):
        assert render_kb(parse_kb("")) == ""

    def test_render_shape(self):
        kb = parse_kb("[core]\np\n[stratum 1]\np -> q\n")
        assert render_kb(kb) == "[core]\np\n[stratum 1]\np -> q\n"

    @given(st.integers(0, 10_000))
    def test_render_round_trip_random(self, seed):
        base, _ = randgen.random_kb(random.Random(seed), query_chance=0)
        assert parse_kb(render_kb(base)) == base


def test_query_formula_parse_reuse():
    # the same parser serves queries on the command line
    assert parse_formula("!r -> p") == Implies(Not(Atom("r")), Atom("p"))
