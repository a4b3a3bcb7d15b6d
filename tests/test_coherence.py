import random
import tracemalloc

import pytest

import oracles
import randgen
from conftest import fixture_text
from prefarg.arguments import build_universe
from prefarg.coherence import (
    Subbase,
    arg_of,
    check_correspondence,
    correspondence_to_json,
    incl_subbases,
    max_consistent_subbases,
    ref_to_json,
    subbase_to_json,
)
from prefarg.errors import CapExceededError
from prefarg.formulas import render
from prefarg.kb import BeliefRef, parse_kb


def refs(*pairs):
    return tuple(BeliefRef(s, p) for s, p in pairs)


def formula_sets(kb, subbases):
    return [set(map(render, sb.formulas(kb))) for sb in subbases]


class TestLayeredContradictions:
    """Three strata: {a, !a} / {a -> b} / {!b}."""

    def kb(self):
        return parse_kb(fixture_text("example2.kb"))

    def test_preferred_subbases(self):
        kb = self.kb()
        assert [sb.refs for sb in incl_subbases(kb)] == [
            refs((1, 0), (2, 0)),
            refs((1, 1), (2, 0), (3, 0)),
        ]
        assert formula_sets(kb, incl_subbases(kb)) == [
            {"a", "a -> b"},
            {"!a", "a -> b", "!b"},
        ]

    def test_intersection(self):
        assert check_correspondence(self.kb()).intersection == {BeliefRef(2, 0)}

    def test_max_consistent_ignores_strata(self):
        kb = self.kb()
        assert formula_sets(kb, max_consistent_subbases(kb)) == [
            {"a", "a -> b"},
            {"a", "!b"},
            {"!a", "a -> b", "!b"},
        ]

    def test_arguments_of_subbases(self):
        kb = self.kb()
        universe = build_universe(kb)
        first, second = incl_subbases(kb)
        assert [a.id for a in arg_of(universe, first)] == ["A1", "A4", "A5"]
        assert [a.id for a in arg_of(universe, second)] == [
            "A2", "A3", "A5", "A7", "A8",
        ]

    def test_arg_of_accepts_raw_refs(self):
        universe = build_universe(self.kb())
        assert [a.id for a in arg_of(universe, refs((2, 0)))] == ["A5"]
        assert [a.id for a in arg_of(universe, ())] == []

    def test_correspondence(self):
        report = check_correspondence(self.kb())
        assert report.ok
        assert [(c.name, c.status) for c in report.clauses] == [
            ("subbase_arguments_are_stable", "pass"),
            ("class_support_within_intersection", "pass"),
            ("class_within_every_stable", "pass"),
            ("flat_stable_equals_max_consistent", "pass"),
            ("grounded_support_vs_intersection", "info"),
        ]


class TestChainedDefeat:
    """Four strata ending in !r -> p; only one preferred subbase survives."""

    def kb(self):
        return parse_kb(fixture_text("example3.kb"))

    def test_single_preferred_subbase(self):
        kb = self.kb()
        subbases = incl_subbases(kb)
        assert [sb.refs for sb in subbases] == [
            refs((1, 0), (1, 1), (2, 0), (4, 0)),
        ]
        assert check_correspondence(kb).intersection == set(subbases[0].refs)

    def test_correspondence(self):
        report = check_correspondence(self.kb())
        assert report.ok


class TestSmallBases:
    def test_consistent_base_keeps_everything(self):
        kb = parse_kb("[stratum 1]\np\n[stratum 2]\np -> q")
        assert [sb.refs for sb in incl_subbases(kb)] == [refs((1, 0), (2, 0))]
        assert max_consistent_subbases(kb) == incl_subbases(kb)

    def test_empty_base(self):
        kb = parse_kb("")
        assert incl_subbases(kb) == [Subbase(())]
        assert max_consistent_subbases(kb) == [Subbase(())]
        assert check_correspondence(kb).intersection == frozenset()

    def test_flat_contradiction_splits(self):
        kb = parse_kb("[stratum 1]\np\n!p")
        assert [sb.refs for sb in incl_subbases(kb)] == [
            refs((1, 0)), refs((1, 1)),
        ]

    def test_core_constrains_selection(self):
        kb = parse_kb("[core]\np\n[stratum 1]\n!p\nq")
        assert [sb.refs for sb in incl_subbases(kb)] == [refs((1, 1))]

    def test_inconsistent_single_belief_always_dropped(self):
        kb = parse_kb("[stratum 1]\np & !p\nq")
        assert [sb.refs for sb in incl_subbases(kb)] == [refs((1, 1))]


class TestAgainstOracles:
    @pytest.mark.parametrize("case", [*range(25), "empty-stratum"])
    def test_random_bases(self, case):
        if case == "empty-stratum":
            kb = parse_kb("[stratum 1]\n[stratum 2]\np\n")
        else:
            kb, _ = randgen.random_kb(random.Random(case), max_universe=12)
        assert [frozenset(sb.refs) for sb in incl_subbases(kb)] == sorted(
            oracles.incl_oracle(kb), key=lambda s: tuple(sorted(s))
        )
        assert [frozenset(sb.refs) for sb in max_consistent_subbases(kb)] == sorted(
            oracles.max_consistent_oracle(kb), key=lambda s: tuple(sorted(s))
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_correspondence(self, seed):
        kb, universe = randgen.random_kb(random.Random(seed + 300), max_universe=12)
        report = check_correspondence(kb, universe)
        assert report.ok, [c for c in report.clauses if c.status == "fail"]


class TestGuards:
    def test_cap(self):
        kb = parse_kb("[stratum 1]\n" + "\n".join(f"p{i}" for i in range(9)))
        with pytest.raises(CapExceededError):
            incl_subbases(kb, cap=8)
        with pytest.raises(CapExceededError):
            max_consistent_subbases(kb, cap=8)

    @pytest.mark.parametrize("select", [max_consistent_subbases, incl_subbases])
    def test_memory_stays_small_on_independent_beliefs(self, select):
        # 2^14 consistent subsets; none may be kept at once
        kb = parse_kb("[stratum 1]\n" + "\n".join(f"p{i}" for i in range(14)))
        tracemalloc.start()
        try:
            (only,) = select(kb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert only.refs == kb.belief_refs()
        assert peak < 4_000_000

    def test_foreign_universe_rejected(self):
        kb = parse_kb("[stratum 1]\np")
        other = build_universe(parse_kb("[stratum 1]\nq"))
        with pytest.raises(ValueError):
            check_correspondence(kb, other)


class TestJson:
    def test_ref_and_subbase(self):
        kb = parse_kb(fixture_text("example2.kb"))
        assert ref_to_json(kb, BeliefRef(2, 0)) == {
            "stratum": 2, "position": 0, "formula": "a -> b",
        }
        first = incl_subbases(kb)[0]
        assert subbase_to_json(kb, first) == [
            {"stratum": 1, "position": 0, "formula": "a"},
            {"stratum": 2, "position": 0, "formula": "a -> b"},
        ]

    def test_correspondence_payload(self):
        report = check_correspondence(parse_kb(fixture_text("example2.kb")))
        data = correspondence_to_json(report)
        assert data["ok"] is True
        assert [c["name"] for c in data["clauses"]] == [
            "subbase_arguments_are_stable",
            "class_support_within_intersection",
            "class_within_every_stable",
            "flat_stable_equals_max_consistent",
            "grounded_support_vs_intersection",
        ]
        assert all(c["counterexample"] is None for c in data["clauses"])
