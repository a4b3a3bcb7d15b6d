import random
import time

import pytest

import oracles
import randgen
from conftest import fixture_text, unchecked_kb
from prefarg.arguments import (
    DEFAULT_CAP,
    Argument,
    _walk_supports,
    build_universe,
    candidate_conclusions,
    minimal_supports,
    supp_of,
)
from prefarg.errors import CapExceededError
from prefarg.formulas import Atom, negate_canonical, parse_formula, render
from prefarg.kb import BeliefRef, StratifiedKB, parse_kb


def example2():
    return parse_kb(fixture_text("example2.kb"))


def example3():
    return parse_kb(fixture_text("example3.kb"))


EXAMPLE2_LISTING = [
    "A1: ({a}, a) @1",
    "A2: ({!a}, !a) @1",
    "A3: ({!a}, a -> b) @1",
    "A4: ({a, a -> b}, b) @2",
    "A5: ({a -> b}, a -> b) @2",
    "A6: ({a, !b}, !(a -> b)) @3",
    "A7: ({a -> b, !b}, !a) @3",
    "A8: ({!b}, !b) @3",
]

EXAMPLE3_LISTING = [
    "A1: ({x}, x) @1",
    "A2: ({!r}, !r) @1",
    "A3: ({x, !r, x -> t}, !(t -> r)) @2",
    "A4: ({x -> t}, x -> t) @2",
    "A5: ({x, !r, t -> r}, !(x -> t)) @3",
    "A6: ({x, x -> t, t -> r}, !r -> p) @3",
    "A7: ({x, x -> t, t -> r}, r) @3",
    "A8: ({!r, x -> t, t -> r}, !x) @3",
    "A9: ({t -> r}, t -> r) @3",
    "A10: ({!r, !r -> p}, p) @4",
    "A11: ({!r -> p}, !r -> p) @4",
]


class TestCandidates:
    def test_example2_pool(self):
        pool = candidate_conclusions(example2())
        assert [render(f) for f in pool] == ["a", "!a", "a -> b", "!(a -> b)", "!b", "b"]

    def test_query_pair_appended(self):
        pool = candidate_conclusions(example2(), Atom("c"))
        assert [render(f) for f in pool][-2:] == ["c", "!c"]

    def test_duplicate_query_not_repeated(self):
        pool = candidate_conclusions(example2(), Atom("a"))
        assert [render(f) for f in pool] == ["a", "!a", "a -> b", "!(a -> b)", "!b", "b"]

    def test_closed_under_negation(self):
        for seed in range(30):
            base, universe = randgen.random_kb(random.Random(seed))
            pool = candidate_conclusions(base, universe.query)
            for f in pool:
                assert negate_canonical(f) in pool

    def test_closed_under_negation_up_to_equivalence(self):
        # a lone double negation brings !a but not a, yet !a still has a's complement mask
        lone = parse_kb("[stratum 1]\n!!a\n[stratum 2]\nb\n")
        assert [render(f) for f in candidate_conclusions(lone)] == ["!!a", "!a", "b", "!b"]
        bases = [(lone, None)]
        for seed in range(30):
            base, universe = randgen.random_kb(random.Random(seed))
            bases.append((base, universe.query))
        for base, query in bases:
            table = build_universe(base, query).table
            masks = {table.mask(f) for f in candidate_conclusions(base, query)}
            assert all(table.full ^ m in masks for m in masks)


class TestMinimalSupports:
    def test_example2_single_support_for_b(self):
        found = minimal_supports(example2(), Atom("b"))
        assert found == [(BeliefRef(1, 0), BeliefRef(2, 0))]

    def test_two_supports_for_conditional(self):
        found = minimal_supports(example2(), parse_formula("a -> b"))
        assert found == [(BeliefRef(1, 1),), (BeliefRef(2, 0),)]

    def test_no_support_for_underivable(self):
        assert minimal_supports(example3(), parse_formula("!p")) == []

    def test_inconsistent_supports_excluded(self):
        # a & !a would entail anything; no consistent support may exist
        assert minimal_supports(example2(), parse_formula("a & !a")) == []

    def test_conclusion_without_complementary_candidate(self):
        # {!b} entails the complement of b, which is no conclusion here: nothing is
        # recorded for it, and b's own support is still found
        kb = parse_kb("[stratum 1]\n!b\n[stratum 2]\nb\n[stratum 3]\nc\n")
        found = minimal_supports(kb, Atom("b"))
        assert found == [(BeliefRef(2, 0),)]
        assert [found] == oracles.supports_walk_oracle(kb, [Atom("b")])

    def test_cap_guard(self):
        kb = parse_kb("[stratum 1]\n" + "\n".join(f"p{i}" for i in range(6)) + "\n")
        with pytest.raises(CapExceededError):
            minimal_supports(kb, Atom("p0"), cap=5)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        base, universe = randgen.random_kb(random.Random(seed))
        for conclusion in candidate_conclusions(base, universe.query):
            found = minimal_supports(base, conclusion)
            assert {frozenset(s) for s in found} == set(
                oracles.minimal_supports_oracle(base, conclusion)
            )
            assert found == sorted(found, key=lambda s: (len(s), s))


# Bases where the walk skips a belief or a whole branch as redundant, and bases whose
# conclusion masks pair up unusually.
PRUNED_BASES = {
    "equivalent-across-strata": (
        parse_kb("[stratum 1]\na\nb\n[stratum 2]\n!b | c\n[stratum 3]\n!!a\n!c\n"), None
    ),
    "entailed-belief": (parse_kb("[stratum 1]\na\nb\na & b\n[stratum 2]\n!a | !b\n"), None),
    "tautology": (parse_kb("[stratum 1]\na | !a\nb\n[stratum 2]\n!b\n"), None),
    "core-entails-belief": (parse_kb("[core]\na\n[stratum 1]\na | b\n!b\nb -> !a\n"), None),
    "inconsistent-core": (
        unchecked_kb((Atom("a"), negate_canonical(Atom("a"))), ((Atom("a"), Atom("b")),)), Atom("a")
    ),
    "foreign-query": (parse_kb("[stratum 1]\na\n!a | b\n[stratum 2]\n!b\n"), Atom("z")),
    # a, the canonical negation of !a, is no candidate
    "lone-double-negation": (parse_kb("[stratum 1]\n!!a\n[stratum 2]\nb\n"), None),
    # the mask-0 conclusion pairs with the tautology !(a & !a), supported at level 0
    "contradictory-belief": (parse_kb("[stratum 1]\na & !a\nb\n"), None),
    # a, a & a and !!a share one truth mask
    "one-mask-group": (parse_kb("[stratum 1]\na\n[stratum 2]\na & a\n[stratum 3]\n!!a\n"), None),
}


def benchmark_sized_kb(seed: int):
    """A base of 10 to 13 distinct beliefs over six atoms in three strata, with a query."""
    rng = random.Random(f"walk-size:{seed}")
    names = randgen.ATOM_NAMES
    n, beliefs = rng.randint(10, 13), []
    while len(beliefs) < n:
        f = parse_formula(randgen.random_formula_text(rng, names, rng.randint(0, 2)))
        if f not in beliefs:
            beliefs.append(f)
    cuts = sorted(rng.sample(range(1, len(beliefs)), 2))
    strata = (tuple(beliefs[: cuts[0]]), tuple(beliefs[cuts[0]: cuts[1]]), tuple(beliefs[cuts[1]:]))
    query = parse_formula(randgen.random_formula_text(rng, names, 1))
    return StratifiedKB((), strata), query


def walked_supports(base, pool):
    """The walk's minimal supports of each pool formula, as refs, in pool order."""
    refs, _, _, mask_of, groups = _walk_supports(base, pool, DEFAULT_CAP)
    return [[tuple(refs[i] for i in s) for s in groups[m]] for m in mask_of]


class TestSupportWalk:
    """The irredundant walk against the full consistent-subset walk it replaced."""

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_full_walk_on_random_bases(self, seed):
        base, universe = randgen.random_kb(random.Random(seed))
        pool = candidate_conclusions(base, universe.query)
        assert walked_supports(base, pool) == oracles.supports_walk_oracle(base, pool)

    @pytest.mark.parametrize("case", sorted(PRUNED_BASES))
    def test_matches_full_walk_where_pruning_fires(self, case):
        base, query = PRUNED_BASES[case]
        pool = candidate_conclusions(base, query)
        assert walked_supports(base, pool) == oracles.supports_walk_oracle(base, pool)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_full_walk_at_benchmark_size(self, seed):
        base, query = benchmark_sized_kb(seed)
        assert 10 <= len(base.belief_refs()) <= 13
        pool = candidate_conclusions(base, query)
        assert walked_supports(base, pool) == oracles.supports_walk_oracle(base, pool)

    def test_equivalent_beliefs_never_combine(self):
        # all 2^20 subsets are consistent, but no two members are irredundant together
        texts = ["a" + " & a" * k for k in range(20)]
        base = parse_kb(
            "[stratum 1]\n" + "\n".join(texts[:10]) + "\n[stratum 2]\n" + "\n".join(texts[10:]) + "\n"
        )
        start = time.perf_counter()
        universe = build_universe(base)
        elapsed = time.perf_counter() - start
        for_a = [arg.support for arg in universe.arguments if arg.conclusion == Atom("a")]
        assert sorted(for_a) == [(ref,) for ref in base.belief_refs()]
        assert not any(arg.conclusion == negate_canonical(Atom("a")) for arg in universe.arguments)
        assert elapsed < 0.25


class TestBuildUniverse:
    def test_example2_listing(self):
        universe = build_universe(example2())
        assert [a.describe() for a in universe.arguments] == EXAMPLE2_LISTING

    def test_example3_listing(self):
        universe = build_universe(example3(), Atom("p"))
        assert [a.describe() for a in universe.arguments] == EXAMPLE3_LISTING

    def test_level_is_weakest_support_stratum(self):
        universe = build_universe(example2())
        by_id = {a.id: a for a in universe.arguments}
        assert by_id["A4"].level == 2  # uses strata 1 and 2
        assert by_id["A8"].level == 3

    def test_empty_base_empty_universe(self):
        universe = build_universe(parse_kb(""), Atom("a"))
        assert universe.arguments == ()

    def test_support_formulas_resolve_refs(self):
        universe = build_universe(example3(), Atom("p"))
        for arg in universe.arguments:
            resolved = tuple(universe.kb.resolve(r) for r in arg.support)
            assert resolved == arg.support_formulas

    @pytest.mark.parametrize("seed", range(60))
    def test_level_and_formulas_match_the_kb_on_random_bases(self, seed):
        base, universe = randgen.random_kb(random.Random(seed))
        for arg in universe.arguments:
            assert arg.level == base.certainty_level(arg.support)
            assert arg.support_formulas == tuple(base.resolve(r) for r in arg.support)

    def test_definition_reverified(self):
        # the defining conditions, re-checked through the oracle
        for name, query in (("example2.kb", None), ("example3.kb", Atom("p"))):
            base = parse_kb(fixture_text(name))
            universe = build_universe(base, query)
            core = list(base.core)
            for arg in universe.arguments:
                support = list(arg.support_formulas)
                assert oracles.consistent(core + support)
                assert oracles.entails(core + support, arg.conclusion)
                for drop in range(len(support)):
                    smaller = core + support[:drop] + support[drop + 1:]
                    assert not (
                        oracles.consistent(smaller)
                        and oracles.entails(smaller, arg.conclusion)
                    )

    def test_deterministic(self):
        one = build_universe(example3(), Atom("p"))
        two = build_universe(example3(), Atom("p"))
        assert one == two

    def test_ids_sequential(self):
        universe = build_universe(example3(), Atom("p"))
        assert [a.id for a in universe.arguments] == [
            f"A{i}" for i in range(1, len(universe.arguments) + 1)
        ]

    def test_argument_lookup(self):
        universe = build_universe(example2())
        assert universe.argument("A4").conclusion == Atom("b")
        assert all(universe.argument(a.id) is a for a in universe.arguments)
        with pytest.raises(ValueError, match="no argument 'A99' in universe"):
            universe.argument("A99")

    def test_lookup_leaves_equality_and_hash_alone(self):
        one = build_universe(example2())
        two = build_universe(example2())
        one.argument("A1")
        assert one == two
        assert hash(one) == hash(two)

    def test_cap_guard(self):
        kb = parse_kb("[stratum 1]\n" + "\n".join(f"p{i}" for i in range(6)) + "\n")
        with pytest.raises(CapExceededError):
            build_universe(kb, cap=5)


class TestUniverseMasks:
    """The masks the universe carries past the walk, against its refs and its table."""

    @pytest.mark.parametrize("with_query", [False, True])
    @pytest.mark.parametrize("case", randgen.UNIVERSE_CASES)
    def test_masks_match_refs_and_table(self, case, with_query):
        universe = randgen.universe_case(case, with_query)
        kb, table = universe.kb, universe.table
        refs = kb.belief_refs()
        assert universe.belief_masks == tuple(table.mask(kb.resolve(r)) for r in refs)
        assert len(universe.support_masks) == len(universe.arguments)
        assert len(universe.conclusion_masks) == len(universe.arguments)
        for a, support, conclusion in zip(
            universe.arguments, universe.support_masks, universe.conclusion_masks
        ):
            assert support == sum(1 << refs.index(r) for r in a.support)
            assert conclusion == table.mask(a.conclusion)


class TestArgumentTuple:
    def test_attributes_cannot_be_assigned(self):
        arg = Argument(id="X")
        with pytest.raises(AttributeError):
            arg.id = "Y"
        with pytest.raises(AttributeError):
            arg.note = "extra"
        assert arg.id == "X"

    def test_instances_have_no_dict(self):
        assert not hasattr(Argument(id="X"), "__dict__")
        assert not hasattr(build_universe(example2()).arguments[0], "__dict__")

    def test_describe_and_is_abstract(self):
        abstract = Argument("X")
        assert abstract.is_abstract
        assert abstract.describe() == "X"
        a4 = build_universe(example2()).argument("A4")
        assert not a4.is_abstract
        assert a4.describe() == "A4: ({a, a -> b}, b) @2"

    def test_equal_arguments_hash_equal(self):
        one, two = build_universe(example2()).arguments, build_universe(example2()).arguments
        assert all(x == y and x is not y and hash(x) == hash(y) for x, y in zip(one, two))
        assert Argument("X") == Argument(id="X", level=None)
        assert hash(Argument("X")) == hash(Argument(id="X"))
        assert Argument("X") != Argument("Y")
        assert Argument("X") != Argument("X", level=1)

    def test_compares_as_its_fields(self):
        assert Argument("X", level=2) == ("X", None, None, None, 2)
        assert tuple(Argument("X")) == ("X", None, None, None, None)


class TestSuppOf:
    def test_union_of_supports(self):
        universe = build_universe(example2())
        got = supp_of([universe.argument("A4"), universe.argument("A8")])
        assert got == {BeliefRef(1, 0), BeliefRef(2, 0), BeliefRef(3, 0)}

    def test_empty(self):
        assert supp_of([]) == frozenset()

    def test_abstract_argument_rejected(self):
        with pytest.raises(ValueError):
            supp_of([Argument(id="X")])
