import random
import time
import tracemalloc
from collections import Counter

import pytest

import oracles
import randgen
from conftest import fixture_text, unchecked_kb
from prefarg import coherence
from prefarg.arguments import DEFAULT_CAP, build_universe, supp_of
from prefarg.coherence import (
    Subbase,
    arg_of,
    check_correspondence,
    incl_subbases,
    max_consistent_subbases,
)
from prefarg.errors import CapExceededError
from prefarg.formulas import Atom, negate_canonical, parse_formula, render
from prefarg.framework import build_framework
from prefarg.kb import BeliefRef, StratifiedKB, parse_kb
from prefarg.semantics import class_cr_pref, grounded_extension, stable_extensions


def refs(*pairs):
    return tuple(BeliefRef(s, p) for s, p in pairs)


def formula_sets(kb, subbases):
    return [{render(kb.resolve(r)) for r in sb.refs} for sb in subbases]


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
        assert check_correspondence(build_universe(self.kb())).intersection == {BeliefRef(2, 0)}

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
        report = check_correspondence(build_universe(self.kb()))
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
        assert check_correspondence(build_universe(kb)).intersection == set(subbases[0].refs)

    def test_correspondence(self):
        report = check_correspondence(build_universe(self.kb()))
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
        assert check_correspondence(build_universe(kb)).intersection == frozenset()

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


NAMED_BASES = {
    "empty-stratum": "[stratum 1]\n[stratum 2]\np\n",
    # each atom asserted one stratum above its negation
    "straddling": "".join(f"[stratum {2 * i + 1}]\n{a}\n[stratum {2 * i + 2}]\n!{a}\n"
                          for i, a in enumerate("pqr")),
    # the smallest base seen with a stable extension no preferred subbase induces
    "converse-gap": "[core]\na\n[stratum 1]\nc\n[stratum 2]\n(a <-> c) <-> !d\nd\n"
                    "[stratum 3]\n!!b\n[stratum 4]\n!c | (b -> c)\n",
}


class TestAgainstOracles:
    @pytest.mark.parametrize("case", [*range(150), *NAMED_BASES])
    def test_random_bases(self, case):
        if isinstance(case, str):
            kb = parse_kb(NAMED_BASES[case])
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
        report = check_correspondence(universe)
        assert report.ok, [c for c in report.clauses if c.status == "fail"]


def _pairs_over_five_strata() -> str:
    """x_i two strata away from !x_i, wrapping, so either may rank higher."""
    strata = {j: [] for j in range(1, 6)}
    for i in range(8):
        strata[i % 5 + 1].append(f"x{i}")
        strata[(i + 2) % 5 + 1].append(f"!x{i}")
    return "".join(f"[stratum {j}]\n" + "".join(f + "\n" for f in fs) for j, fs in strata.items())


WALK_BASES = {
    # 20 distinct beliefs all equivalent to a: 2^20 consistent subsets, two signatures
    "equivalent-to-a": parse_kb(
        "[stratum 1]\n" + "".join(f"a{' & a' * k}\n" for k in range(10))
        + "[stratum 2]\n" + "".join(f"{'!!' * (k + 1)}a\n" for k in range(10))
    ),
    "pairs-over-five-strata": parse_kb(_pairs_over_five_strata()),
    "empty-stratum-between": parse_kb("[stratum 1]\np\n[stratum 2]\n[stratum 3]\n!p\nq\n"),
    "core-only": parse_kb("[core]\na\n"),
    "no-core-no-strata": parse_kb(""),
    "core-entails-belief": parse_kb("[core]\na & b\n[stratum 1]\na\n!b | c\n[stratum 2]\n!c\n"),
    "core-contradicts-belief": parse_kb("[core]\na\n[stratum 1]\n!a\nb\n[stratum 2]\n!b | !a\n"),
    "inconsistent-core": unchecked_kb(
        (Atom("a"), negate_canonical(Atom("a"))), ((Atom("a"), Atom("b")),)
    ),
}


class TestSubbaseWalk:
    """The model-splitting walk against the consistent-subset walk it replaced."""

    @pytest.mark.parametrize("case", [*range(400), *NAMED_BASES, *WALK_BASES])
    def test_matches_subset_walk(self, case):
        if isinstance(case, int):
            kb, _ = randgen.random_kb(random.Random(case), max_universe=30)
        elif case in WALK_BASES:
            kb = WALK_BASES[case]
        else:
            kb = parse_kb(NAMED_BASES[case])
        assert coherence._subbase_lists(kb, DEFAULT_CAP) == oracles.subbase_walk_oracle(kb)

    def test_inconsistent_core_has_no_subbases(self):
        assert coherence._subbase_lists(WALK_BASES["inconsistent-core"], DEFAULT_CAP) == ([], [])

    @pytest.mark.parametrize("select", [max_consistent_subbases, incl_subbases])
    def test_equivalent_beliefs_are_one_subbase(self, select):
        kb = WALK_BASES["equivalent-to-a"]
        start = time.perf_counter()
        (only,) = select(kb)
        elapsed = time.perf_counter() - start
        assert only.refs == kb.belief_refs()
        assert elapsed < 0.25


def _flattened(kb):
    """The base with every belief moved into one stratum."""
    beliefs = tuple(f for _, f in kb.beliefs())
    return StratifiedKB(kb.core, (beliefs,) if beliefs else ())


def _keys(arguments):
    """Argument id -> (support formulas, conclusion), which flattening keeps."""
    return {a.id: (a.support_formulas, a.conclusion) for a in arguments}


def _keyed(keys, id_sets):
    return {frozenset(keys[i] for i in ids) for ids in id_sets}


def _flat_clause(report):
    (clause,) = [c for c in report.clauses if c.name == "flat_stable_equals_max_consistent"]
    return clause


class TestFlatClause:
    """The flat clause reads the stratified universe; the flattened base is its oracle."""

    @pytest.mark.parametrize("case", ["example2.kb", "example3.kb", "empty", *range(40)])
    @pytest.mark.parametrize("with_query", [False, True])
    def test_matches_flattened_base(self, case, with_query, monkeypatch):
        if case == "empty":
            kb = parse_kb("[core]\nc\n")
        elif isinstance(case, str):
            kb = parse_kb(fixture_text(case))
        else:
            kb, _ = randgen.random_kb(random.Random(case + 700), query_chance=0)
        query = parse_formula("a | !b") if with_query else None
        universe = build_universe(kb, query)
        seen = []
        real = coherence.stable_extensions
        monkeypatch.setattr(
            coherence, "stable_extensions",
            lambda fw, mode, cap: seen.append((fw, real(fw, mode, cap))) or seen[-1][1],
        )
        report = check_correspondence(universe)
        ((flat_fw, flat_stable),) = [(fw, e) for fw, e in seen if fw.preference_mask is None]

        flat = _flattened(kb)
        flat_universe = build_universe(flat, query)
        oracle_fw = build_framework(flat_universe, "undercut", "none")
        keys, oracle_keys = _keys(universe.arguments), _keys(flat_universe.arguments)
        assert sorted(keys.values(), key=repr) == sorted(oracle_keys.values(), key=repr)
        assert _keys(flat_fw.arguments) == keys
        assert _keyed(keys, flat_fw.defeats) == _keyed(oracle_keys, oracle_fw.defeats)
        assert _keyed(keys, flat_stable) == _keyed(
            oracle_keys, stable_extensions(oracle_fw, "weak")
        )
        subbase_sets = [[a.id for a in arg_of(universe, sb)] for sb in max_consistent_subbases(kb)]
        oracle_sets = [[a.id for a in arg_of(flat_universe, sb)]
                       for sb in max_consistent_subbases(flat)]
        assert _keyed(keys, subbase_sets) == _keyed(oracle_keys, oracle_sets)
        assert _flat_clause(report).status == "pass"

    def test_builds_one_framework_from_a_given_universe(self, monkeypatch):
        kb = parse_kb(fixture_text("example2.kb"))
        universe = build_universe(kb)
        calls = Counter()
        for name in ("build_universe", "build_framework"):
            real = getattr(coherence, name, None)
            monkeypatch.setattr(
                coherence, name,
                lambda *a, _name=name, _real=real, **k: calls.update([_name]) or _real(*a, **k),
                raising=False,
            )
        assert check_correspondence(universe).ok
        assert calls == Counter(build_framework=1)

    def test_counterexample_names_universe_ids(self, monkeypatch):
        kb = parse_kb(fixture_text("example2.kb"))
        universe = build_universe(kb)
        dropped = max_consistent_subbases(kb)[1]
        assert dropped.refs == refs((1, 0), (3, 0))
        flat = _flattened(kb)
        flat_ids = [a.id for a in arg_of(build_universe(flat), max_consistent_subbases(flat)[1])]
        ids = [a.id for a in arg_of(universe, dropped)]
        assert ids == ["A1", "A6", "A8"] != flat_ids
        real = coherence._subbase_lists

        def without_dropped(kb, cap):
            maximal, preferred = real(kb, cap)
            return [sb for sb in maximal if sb != dropped], preferred

        monkeypatch.setattr(coherence, "_subbase_lists", without_dropped)
        clause = _flat_clause(check_correspondence(universe))
        assert clause.status == "fail"
        assert clause.counterexample == {"stable_only": {frozenset(ids)}, "subbase_only": set()}


class TestMaskTests:
    """arg_of and the clause supports test belief-position masks; the
    ref-set definitions (arg_of_oracle, supp_of) are their oracles."""

    @pytest.mark.parametrize("with_query", [False, True])
    @pytest.mark.parametrize("case", randgen.UNIVERSE_CASES)
    def test_match_ref_set_definitions(self, case, with_query):
        universe = randgen.universe_case(case, with_query)
        kb = universe.kb
        beliefs = list(kb.belief_refs())
        rng = random.Random(f"arg-of:{case}")
        maximal, preferred = max_consistent_subbases(kb), incl_subbases(kb)
        for sb in maximal + preferred:
            assert arg_of(universe, sb) == oracles.arg_of_oracle(universe, sb.refs)
        for _ in range(5):
            # a random selection, with a ref the base does not hold
            pick = rng.sample(beliefs, rng.randint(0, len(beliefs))) + [BeliefRef(9, 0)]
            assert arg_of(universe, pick) == oracles.arg_of_oracle(universe, pick)
        if len(universe.arguments) > DEFAULT_CAP:
            return  # past the cap of check_correspondence's stable search

        report = check_correspondence(universe)
        common = frozenset.intersection(*(frozenset(sb.refs) for sb in preferred))
        assert report.intersection == common
        fw = build_framework(universe)
        clause = {c.name: c for c in report.clauses}

        def show(refs):
            return "{" + ", ".join(render(kb.resolve(r)) for r in sorted(refs)) + "}"

        class_ids = class_cr_pref(fw)
        stray = supp_of([universe.argument(i) for i in class_ids]) - common
        assert clause["class_support_within_intersection"] == coherence.ClauseResult(
            "class_support_within_intersection",
            "fail" if stray else "pass",
            f"support of {len(class_ids)} unattacked arguments against "
            f"{len(common)} common references",
            {"references": tuple(sorted(stray))} if stray else None,
        )
        grounded = supp_of([universe.argument(i) for i in grounded_extension(fw)[0]])
        assert clause["grounded_support_vs_intersection"].detail == (
            f"grounded support {show(grounded)}, common references {show(common)}"
        )


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
