import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import oracles
import randgen
from conftest import SRC, fixture_text, strict_pairs
from oracles import rebuts, undercuts
from randgen import EDGE_BASES, WIDE_SEEDS
from prefarg import formulas
from prefarg.arguments import Argument, build_universe
from prefarg.errors import AFFormatError
from prefarg.formulas import parse_formula
from prefarg.framework import (
    Framework,
    _reach_masks,
    _transpose,
    build_framework,
    certainty_masks,
    parse_abstract_framework,
    strict_masks,
)
from prefarg.kb import parse_kb


def concl(text, level=None, ident="X"):
    return Argument(id=ident, conclusion=parse_formula(text), level=level)


def supported(concl_text, support_texts, level=None, ident="X"):
    return Argument(
        id=ident,
        support_formulas=tuple(parse_formula(t) for t in support_texts),
        conclusion=parse_formula(concl_text),
        level=level,
    )


def closure_masks(pairs, ids):
    """The reflexive transitive closure of (better, worse) id pairs, one
    mask per position of ids, as the `.af` parser builds it."""
    position = {x: i for i, x in enumerate(ids)}
    succ = [[] for _ in ids]
    for x, y in pairs:
        succ[position[x]].append(position[y])
    return _reach_masks(succ)


def assert_round_trips(fw):
    """Rebuilding from the defeat-target masks gives the same edges and masks."""
    again = Framework(fw.arguments, fw.defeat_targets_mask, fw.preference_mask)
    assert again.defeats == fw.defeats
    assert again.attacks == fw.attacks
    for name in ("defeat_targets_mask", "attack_targets_mask", "attackers_mask"):
        assert getattr(again, name) == getattr(fw, name), name


class TestPreferenceRelation:
    def test_certainty_prefers_lower_level(self):
        args = [concl("a", level=1, ident="S"), concl("b", level=3, ident="W")]
        masks = certainty_masks(args)
        assert masks == [0b11, 0b10]
        assert strict_pairs(masks, args) == [("S", "W")]

    def test_certainty_equal_levels_tie(self):
        args = [concl("a", level=2, ident="X"), concl("b", level=2, ident="Y")]
        masks = certainty_masks(args)
        assert masks == [0b11, 0b11]
        assert strict_pairs(masks, args) == []

    def test_certainty_needs_levels(self):
        with pytest.raises(ValueError):
            certainty_masks([Argument(id="X"), Argument(id="Y")])

    def test_none_is_reflexive_only(self):
        args = [Argument(id="X"), Argument(id="Y")]
        fw = Framework(args, [0b10, 0b01], None)
        assert fw.preference_mask is None
        assert fw.attacks == fw.defeats == (("X", "Y"), ("Y", "X"))
        assert strict_pairs([0b01, 0b10], args) == []

    def test_explicit_closure_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            ids = [f"N{i}" for i in range(rng.randint(1, 6))]
            pairs = [
                (rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 8))
            ]
            masks = closure_masks(pairs, ids)
            assert {
                (x, y) for x, m in zip(ids, masks) for j, y in enumerate(ids) if m >> j & 1
            } == oracles.closure_oracle(pairs, ids)

    def test_explicit_cycle_collapses_to_equivalence(self):
        masks = closure_masks([("A", "B"), ("B", "A")], ["A", "B"])
        args = [Argument(id="A"), Argument(id="B")]
        assert masks == [0b11, 0b11]
        assert strict_pairs(masks, args) == []

    def test_strict_pairs_listing_order(self):
        masks = closure_masks([("A", "B"), ("B", "C")], ["A", "B", "C"])
        args = [Argument(id=i) for i in ("A", "B", "C")]
        assert strict_pairs(masks, args) == [("A", "B"), ("A", "C"), ("B", "C")]

    @pytest.mark.parametrize("seed", range(24))
    def test_mask_closure_matches_oracle_up_to_40_ids(self, seed):
        rng = random.Random(seed)
        ids, pairs = random_preference_graph(rng, rng.randint(1, 40))
        masks = closure_masks(pairs, ids)
        closed = oracles.closure_oracle(pairs, ids)
        assert {
            (x, y) for x, m in zip(ids, masks) for j, y in enumerate(ids) if m >> j & 1
        } == closed
        args = [Argument(id=x) for x in ids]
        assert strict_pairs(masks, args) == [
            (x, y) for x in ids for y in ids if (x, y) in closed and (y, x) not in closed
        ]


def random_preference_graph(rng, n):
    """n ids, a quarter of them at most left isolated, random (better, worse)
    pairs among the rest, a planted cycle and a self-loop."""
    ids = [f"N{i}" for i in range(n)]
    live = rng.sample(ids, n - rng.randint(0, n // 4))
    pairs = [
        (rng.choice(live), rng.choice(live))
        for _ in range(round(rng.choice([0.5, 1, 2, 3]) * len(live)))
    ]
    cycle = rng.sample(live, min(len(live), rng.randint(2, 5)))
    pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    pairs.append((live[0], live[0]))
    rng.shuffle(pairs)
    return ids, pairs


PREF_MASK_STYLES = ("none", "certainty", "cyclic", "raw")


def random_preference_masks(rng, n, style):
    """Preference masks over n positions: None, a total preorder by random
    certainty levels, the closure of random pairs with a cycle, or raw
    random masks, neither closed nor reflexive."""
    if style == "none":
        return None
    if style == "certainty":
        level = [rng.randint(1, 4) for _ in range(n)]
        at_or_below = {
            k: sum(1 << j for j in range(n) if level[j] >= k) for k in set(level)
        }
        return [at_or_below[k] for k in level]
    if style == "cyclic":
        ids, pairs = random_preference_graph(rng, n) if n else ([], [])
        return closure_masks(pairs, ids)
    return [rng.getrandbits(n) if n else 0 for _ in range(n)]


def set_bits(mask):
    """Positions of the set bits of mask, lowest first, read off its binary digits."""
    digits = bin(mask)[:1:-1]
    j = digits.find("1")
    while j >= 0:
        yield j
        j = digits.find("1", j + 1)


def assert_derived_masks(targets, pref):
    """The three edge lists of a framework match the per-pair rule: i defeats j
    when bit j of targets[i] is set, and that defeat is dropped iff bit i is in
    pref[j] and bit j is not in pref[i]."""
    n = len(targets)
    fw = Framework([Argument(id=f"N{i}") for i in range(n)], targets, pref)
    defeats = {(i, j) for i, m in enumerate(targets) for j in set_bits(m)}
    attacks = {
        (i, j) for i, j in defeats
        if pref is None or not (pref[j] >> i & 1 and not pref[i] >> j & 1)
    }

    def by_source(masks):
        assert len(masks) == n
        return {(i, j) for i, m in enumerate(masks) for j in set_bits(m)}

    def by_target(masks):
        assert len(masks) == n
        return {(i, j) for j, m in enumerate(masks) for i in set_bits(m)}

    assert by_source(fw.defeat_targets_mask) == defeats
    assert by_source(fw.attack_targets_mask) == attacks
    assert by_target(fw.attackers_mask) == attacks


class TestDefeatTests:
    def test_rebut_is_semantic(self):
        assert rebuts(concl("r"), concl("!r"))
        assert rebuts(concl("!r"), concl("r"))
        assert rebuts(concl("r"), concl("!!!r"))
        assert rebuts(concl("!(a & b)"), concl("a & b"))
        assert not rebuts(concl("r"), concl("r"))
        assert not rebuts(concl("a"), concl("!b"))

    def test_undercut_hits_any_support_member(self):
        target = supported("q", ["a", "a -> q"])
        assert undercuts(concl("!a"), target)
        assert undercuts(concl("!(a -> q)"), target)
        assert not undercuts(concl("!q"), target)

    def test_undercut_is_semantic(self):
        target = supported("q", ["!a"])
        assert undercuts(concl("a"), target)
        assert undercuts(concl("!!a"), target)

    def test_abstract_arguments_rejected(self):
        with pytest.raises(ValueError):
            rebuts(Argument(id="X"), concl("a"))
        with pytest.raises(ValueError):
            undercuts(concl("a"), Argument(id="Y"))


EXAMPLE2_UNDERCUT_DEFEATS = [
    ("A1", "A2"), ("A1", "A3"),
    ("A2", "A1"), ("A2", "A4"), ("A2", "A6"),
    ("A4", "A6"), ("A4", "A7"), ("A4", "A8"),
    ("A6", "A4"), ("A6", "A5"), ("A6", "A7"),
    ("A7", "A1"), ("A7", "A4"), ("A7", "A6"),
]

# dropped by certainty: A6 and A7 sit above their targets here
EXAMPLE2_UNDERCUT_ATTACKS = [
    ("A1", "A2"), ("A1", "A3"),
    ("A2", "A1"), ("A2", "A4"), ("A2", "A6"),
    ("A4", "A6"), ("A4", "A7"), ("A4", "A8"),
    ("A6", "A7"),
    ("A7", "A6"),
]

EXAMPLE2_REBUT_DEFEATS = [
    ("A1", "A2"), ("A1", "A7"),
    ("A2", "A1"),
    ("A3", "A6"),
    ("A4", "A8"),
    ("A5", "A6"),
    ("A6", "A3"), ("A6", "A5"),
    ("A7", "A1"),
    ("A8", "A4"),
]


class TestBuildFramework:
    def test_example2_undercut_edges(self):
        fw = build_framework(build_universe(parse_kb(fixture_text("example2.kb"))))
        assert list(fw.defeats) == EXAMPLE2_UNDERCUT_DEFEATS
        assert list(fw.attacks) == EXAMPLE2_UNDERCUT_ATTACKS

    def test_example2_rebut_edges(self):
        universe = build_universe(parse_kb(fixture_text("example2.kb")))
        fw = build_framework(universe, "rebut")
        assert list(fw.defeats) == EXAMPLE2_REBUT_DEFEATS
        dropped = set(EXAMPLE2_REBUT_DEFEATS) - set(fw.attacks)
        assert dropped == {("A6", "A3"), ("A6", "A5"), ("A7", "A1"), ("A8", "A4")}

    def test_no_preference_keeps_every_defeat(self):
        universe = build_universe(parse_kb(fixture_text("example2.kb")))
        fw = build_framework(universe, "undercut", "none")
        assert fw.preference_mask is None
        assert fw.attacks == fw.defeats

    @pytest.mark.parametrize("defeat", ["rebut", "undercut"])
    def test_reads_the_universe_table(self, defeat, monkeypatch):
        universe = build_universe(parse_kb(fixture_text("example2.kb")))
        built = []
        real_init = formulas.TruthTable.__init__
        monkeypatch.setattr(
            formulas.TruthTable, "__init__",
            lambda self, *a: built.append(1) or real_init(self, *a),
        )
        build_framework(universe, defeat)
        assert built == []

    @pytest.mark.parametrize("defeat", ["rebut", "undercut"])
    def test_looks_up_no_formula_mask(self, defeat, monkeypatch):
        universe = build_universe(parse_kb(fixture_text("example2.kb")), parse_formula("a | b"))
        looked_up = []
        real_mask = formulas.TruthTable.mask
        monkeypatch.setattr(
            formulas.TruthTable, "mask",
            lambda self, f: looked_up.append(f) or real_mask(self, f),
        )
        fw = build_framework(universe, defeat)
        assert looked_up == []
        assert fw.defeats

    def test_unknown_defeat_kind(self):
        universe = build_universe(parse_kb(fixture_text("example2.kb")))
        with pytest.raises(ValueError):
            build_framework(universe, "bite")

    @pytest.mark.parametrize("preference", ["explicit", "Certainty", None])
    def test_unknown_preference_rejected(self, preference):
        universe = build_universe(parse_kb(fixture_text("example2.kb")))
        with pytest.raises(ValueError):
            build_framework(universe, "undercut", preference)

    @pytest.mark.parametrize("case", [*range(20), *EDGE_BASES, *(f"wide-{s}" for s in WIDE_SEEDS)])
    @pytest.mark.parametrize("defeat", ["rebut", "undercut"])
    def test_edges_match_pairwise_oracle(self, case, defeat):
        if isinstance(case, int):
            _, universe = randgen.random_kb(random.Random(case), max_universe=10)
        elif case in EDGE_BASES:
            text, query = EDGE_BASES[case]
            universe = build_universe(parse_kb(text), query and parse_formula(query))
        else:
            _, universe = randgen.random_kb(random.Random(int(case[5:])), max_universe=40)
            assert 20 <= len(universe.arguments) <= 40
        fw = build_framework(universe, defeat)
        relation = rebuts if defeat == "rebut" else undercuts
        expected = [
            (x.id, y.id)
            for x in universe.arguments
            for y in universe.arguments
            if relation(x, y)
        ]
        assert sorted(fw.defeats) == sorted(expected)
        stricter = {
            (x.id, y.id)
            for x in universe.arguments
            for y in universe.arguments
            if x.level < y.level
        }
        assert sorted(fw.attacks) == sorted(
            oracles.derive_attacks_oracle(fw.defeats, stricter)
        )
        assert_round_trips(fw)

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("defeat", ["rebut", "undercut"])
    def test_certainty_masks_match_level_comparison(self, seed, defeat):
        _, universe = randgen.random_kb(random.Random(seed), max_universe=20)
        fw = build_framework(universe, defeat)
        args = fw.arguments
        for a, mask in zip(args, fw.preference_mask):
            assert [mask >> j & 1 == 1 for j in range(len(args))] == [
                a.level <= b.level for b in args
            ]
        level = {a.id: a.level for a in args}
        assert list(fw.attacks) == [
            (b, a) for b, a in fw.defeats if not level[a] < level[b]
        ]
        assert strict_pairs(fw.preference_mask, args) == [
            (a.id, b.id) for a in args for b in args if a.level < b.level
        ]

    def test_attack_rule_spot_check(self):
        universe = build_universe(parse_kb(fixture_text("example2.kb")))
        fw = build_framework(universe)
        assert ("A6", "A4") in fw.defeats
        assert ("A6", "A4") not in fw.attacks  # the level-2 target shrugs it off
        assert ("A4", "A6") in fw.attacks


class TestFrameworkClass:
    def test_duplicate_ids_rejected(self):
        args = (Argument(id="X"), Argument(id="X"))
        with pytest.raises(ValueError):
            Framework(args, [0, 0], None)

    @pytest.mark.parametrize("targets,preference", [
        ([0b01], None),
        ([0b01, 0b100], None),
        ([-1, 0], None),
        ([0, 0], [0b01]),
        ([0, 0], [0b01, 0b110]),
        ([0, 0], [0b01, -2]),
        ([0b01, -1], None),
        ([-1, 0b100], None),
        ([0, 0], [0b10, -1]),
        ([0, 0], [-1, 0b100]),
    ], ids=[
        "wrong-length", "bit-past-end", "negative",
        "pref-wrong-length", "pref-bit-past-end", "pref-negative",
        "negative-after-valid", "too-wide-after-negative",
        "pref-negative-after-valid", "pref-too-wide-after-negative",
    ])
    def test_malformed_defeat_masks_rejected(self, targets, preference):
        args = (Argument(id="X"), Argument(id="Y"))
        with pytest.raises(ValueError):
            Framework(args, targets, preference)

    def test_mask_count_checked_at_the_edges(self):
        for preference in (None, []):
            fw = Framework((), [], preference)
            assert fw.attackers_mask == fw.attack_targets_mask == []
        with pytest.raises(ValueError):
            Framework((Argument(id="X"),), [0], [])

    def test_parsed_arguments_are_plain_abstract_arguments(self):
        fw = parse_abstract_framework("arg(A). arg(b_2). def(A,b_2). arg(_).")
        assert fw.arguments == (Argument(id="A"), Argument(id="b_2"), Argument(id="_"))
        for a in fw.arguments:
            assert type(a) is Argument
            assert a.is_abstract
            assert a.describe() == a.id
            assert [getattr(a, f) for f in Argument._fields[1:]] == [None] * 4

    def test_position_and_lookup(self):
        fw = parse_abstract_framework("arg(A). arg(B). def(A,B).")
        assert fw.position("B") == 1
        assert fw.argument("A").id == "A"
        with pytest.raises(ValueError):
            fw.position("Z")

    def test_defeats_sorted_by_position(self):
        fw = parse_abstract_framework("arg(A). arg(B). def(B,A). def(A,B).")
        assert fw.defeats == (("A", "B"), ("B", "A"))

    @pytest.mark.parametrize("style", PREF_MASK_STYLES)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 29, 30, 31, 45, 59, 60, 61, 70])
    def test_derived_masks_follow_the_pair_rule(self, n, style):
        rng = random.Random(f"{n}:{style}")
        for _ in range(4):
            density = rng.choice([0.05, 0.2, 0.5, 0.9])
            targets = [
                sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
            ]
            for i in rng.sample(range(n), n // 3):
                targets[i] |= 1 << i  # self-defeats
            assert_derived_masks(targets, random_preference_masks(rng, n, style))

    @pytest.mark.parametrize("targets,preference", [
        ((0b111, 0b111, 0b111), (0b011, 0b110, 0b100)),
        ((0b111, 0b111, 0b111), (0b000, 0b000, 0b000)),
        ((0b110, 0b001, 0b011), (0b110, 0b101, 0b011)),
        ((0b11, 0b11), (0b01, 0b11)),
        ((0b10, 0b01), (0b10, 0b01)),
    ], ids=["unclosed", "irreflexive-empty", "irreflexive", "one-sided", "swapped"])
    def test_derived_masks_under_raw_preference_masks(self, targets, preference):
        assert_derived_masks(list(targets), list(preference))

    @pytest.mark.parametrize("n,style", [
        (n, style) for n in (200, 1000, 3000) for style in PREF_MASK_STYLES
    ])
    def test_derived_masks_of_large_frameworks(self, n, style):
        rng = random.Random(f"{n}:{style}")
        targets = [0] * n
        for _ in range(2 * n):
            targets[rng.randrange(n)] |= 1 << rng.randrange(n)
        # Bits on each side of Python's 30-bit int digits, as attackers,
        # targets and self-defeats.
        edges = [k for d in range(30, n, 30) for k in (d - 1, d)]
        for k in edges:
            targets[k] |= 1 << rng.choice(edges) | 1 << rng.randrange(n) | 1 << k
            targets[rng.randrange(n)] |= 1 << k
        assert_derived_masks(targets, random_preference_masks(rng, n, style))


def pairs_of(masks):
    """The (row, bit) pairs of a relation given as masks, read off binary digits."""
    return {(i, j) for i, m in enumerate(masks) for j in set_bits(m)}


class TestStrictMasks:
    @pytest.mark.parametrize("style", PREF_MASK_STYLES[1:])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 29, 31, 45, 70])
    def test_follow_the_definition(self, n, style):
        rng = random.Random(f"strict:{n}:{style}")
        args = [Argument(id=f"N{i}") for i in range(n)]
        ids = [a.id for a in args]
        for _ in range(4):
            masks = random_preference_masks(rng, n, style)
            assert [
                (ids[i], ids[j]) for i, m in enumerate(strict_masks(masks)) for j in set_bits(m)
            ] == strict_pairs(masks, args)


class TestTranspose:
    """`_transpose` reverses every pair of a relation given as masks."""

    @pytest.mark.parametrize("rows,width", [
        (1, 1), (2, 2), (5, 5), (8, 3), (3, 8), (1, 40), (40, 1),
        (29, 31), (31, 29), (30, 61), (61, 30), (70, 200), (200, 70),
    ])
    def test_matches_pair_oracle(self, rows, width):
        rng = random.Random(f"transpose:{rows}:{width}")
        for _ in range(6):
            density = rng.choice([0.0, 0.05, 0.3, 0.9, 1.0])
            masks = [
                sum(1 << j for j in range(width) if rng.random() < density)
                if rng.random() < 0.8 else 0
                for _ in range(rows)
            ]
            out = _transpose(masks, width)
            assert len(out) == width
            assert pairs_of(out) == {(j, i) for i, j in pairs_of(masks)}

    def test_empty_list(self):
        assert _transpose([], 0) == []
        assert _transpose([], 3) == [0, 0, 0]

    def test_zero_rows(self):
        assert _transpose([0, 0, 0], 0) == []
        assert _transpose([0, 0, 0], 2) == [0, 0]
        assert _transpose([0, 0b101, 0], 3) == [0b010, 0, 0b010]

    def test_one_wide_row(self):
        rng = random.Random("transpose:wide")
        row = rng.getrandbits(3000) | 1 << 2999 | 1
        out = _transpose([row], 3000)
        assert out == [row >> j & 1 for j in range(3000)]
        assert _transpose([(1 << 3000) - 1], 3000) == [1] * 3000
        assert _transpose(out, 1) == [row]


class TestAbstractParsing:
    def test_fixture_example1(self):
        fw = parse_abstract_framework(fixture_text("example1.af"))
        assert fw.ids == ("A", "B", "C", "D")
        assert fw.defeats == (("C", "D"), ("D", "C"))
        assert fw.preference_mask is None
        assert fw.attacks == fw.defeats

    def test_fixture_with_preference(self):
        fw = parse_abstract_framework(fixture_text("example1_pref.af"))
        assert fw.preference_mask == [0b0001, 0b0010, 0b1100, 0b1000]
        assert fw.attacks == (("C", "D"),)

    def test_facts_share_lines_and_comments(self):
        fw = parse_abstract_framework("arg(A). arg(B). % trailing\ndef(A,B). arg(C).\n")
        assert fw.ids == ("A", "B", "C")
        assert fw.defeats == (("A", "B"),)

    def test_one_line_of_eighty_thousand_facts_parses_promptly(self):
        # Copying the rest of the line before each fact made parsing
        # quadratic in the line's length: several seconds at this size.
        # Finding an error's line must not rescan or copy once per fact
        # either. A child process with a time limit keeps a regression
        # from stalling the suite.
        code = (
            "import sys\n"
            "from prefarg.errors import AFFormatError\n"
            "from prefarg.framework import parse_abstract_framework\n"
            "n = 40000\n"
            "facts = [f'arg(N{i}).' for i in range(n)]\n"
            "facts += [f'def(N{i},N{i + 1}).' for i in range(n - 1)]\n"
            "text = ' '.join(facts) + sys.argv[1] + '  % all on one line'\n"
            "try:\n"
            "    fw = parse_abstract_framework(text)\n"
            "except AFFormatError as err:\n"
            "    print(err)\n"
            "else:\n"
            "    print(len(fw.ids), len(fw.defeats))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for tail, expected in [
            ("", "40000 39999"),
            (" junk", "line 1: cannot parse fact near 'junk'"),
            (" arg(N7).", "line 1: duplicate argument 'N7'"),
        ]:
            proc = subprocess.run([sys.executable, "-c", code, tail], capture_output=True,
                                  text=True, env=env, timeout=5)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == expected

    def test_stray_text_is_not_read_one_character_at_a_time(self):
        # A stray character ends the scan with the rest of the text, so
        # junk costs one match, not one per character.
        text = "arg(a).\n" + "?" * 200_000
        tracemalloc.start()
        try:
            with pytest.raises(AFFormatError, match="line 2: cannot parse fact near '[?]{30}'"):
                parse_abstract_framework(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)

    def test_explicit_preference_closure(self):
        fw = parse_abstract_framework(
            "arg(A). arg(B). arg(C). def(C,A). pref(A,B). pref(B,C)."
        )
        assert ("A", "C") in strict_pairs(fw.preference_mask, fw.arguments)  # closed through B
        assert fw.attacks == ()  # A is preferred to its defeater

    @pytest.mark.parametrize("text,fragment", [
        ("arg(A). arg(A).", "duplicate argument"),
        ("arg(A,B).", "takes one name"),
        ("arg(A). def(A).", "takes two names"),
        ("arg(A). def(A,Z).", "undeclared"),
        ("arg(A). pref(Z,A).", "undeclared"),
        ("arg(A). defeat(A,A).", "cannot parse"),
        ("arg(A) def(A,A).", "cannot parse"),
        # Which error wins when a text has several: a fact's own arity
        # before the junk after it, every def before any pref, and within
        # the defs, fact order first and the source before the sink.
        ("arg(A,B). junk", "line 1: arg() takes one name"),
        ("pref(A).", "line 1: pref() takes two names"),
        ("pref(Z,A). def(A,Y). arg(A).", "undeclared argument 'Y'"),
        ("arg(A). def(A,Y). def(Z,A).", "undeclared argument 'Y'"),
        ("arg(A). def(Z,Y).", "undeclared argument 'Z'"),
        ("arg(A). pref(A,Y). pref(Z,A).", "undeclared argument 'Y'"),
        # Line numbers count lines as str.splitlines does, and no fact
        # spans a line break.
        ("arg(a).\rjunk", "line 2: cannot parse fact near 'junk'"),
        ("arg(a).\x0carg(a).", "line 2: duplicate argument 'a'"),
        ("arg(a).\u2028\r\narg(b,c).", "line 3: arg() takes one name"),
        ("arg(\na).", "line 1: cannot parse fact near 'arg('"),
        ("arg(\xa0a). def(a,Z).", "undeclared argument 'Z'"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(AFFormatError) as err:
            parse_abstract_framework(text)
        assert fragment in str(err.value)

    def test_defeats_before_their_declarations_give_the_same_masks(self):
        decls = "arg(A). arg(B). arg(C).\n"
        facts = "def(A,B). def(C,A). def(B,B). pref(A,C). pref(C,B).\n"
        after, before = parse_abstract_framework(decls + facts), parse_abstract_framework(facts + decls)
        assert before.ids == after.ids == ("A", "B", "C")
        assert before.defeat_targets_mask == after.defeat_targets_mask == [0b010, 0b010, 0b001]
        assert before.preference_mask == after.preference_mask
        assert before.attack_targets_mask == after.attack_targets_mask

    @pytest.mark.parametrize("seed", range(20))
    def test_attacks_match_oracle_under_cyclic_preferences(self, seed):
        rng = random.Random(seed)
        ids, prefs = random_preference_graph(rng, rng.randint(1, 30))
        defs = [(rng.choice(ids), rng.choice(ids)) for _ in range(2 * len(ids))]
        facts = [f"arg({x})." for x in ids]
        facts += [f"def({x},{y})." for x, y in defs] + [f"pref({x},{y})." for x, y in prefs]
        fw = parse_abstract_framework("\n".join(facts) + "\n")
        closed = oracles.closure_oracle(prefs, ids)
        strict = {(x, y) for x, y in closed if (y, x) not in closed}
        defeats = sorted(set(defs), key=lambda e: (ids.index(e[0]), ids.index(e[1])))
        assert list(fw.defeats) == defeats
        assert list(fw.attacks) == oracles.derive_attacks_oracle(defeats, strict)
        assert_round_trips(fw)

    def test_deterministic(self):
        text = fixture_text("example4.af")
        one, two = parse_abstract_framework(text), parse_abstract_framework(text)
        assert one.ids == two.ids
        assert one.defeats == two.defeats
        assert one.attacks == two.attacks


def af_large_text(rng, n, with_prefs):
    """A `.af` text shaped like the benchmark's large frameworks, with its fact lists.

    n arguments, 2n random defeats and, with_prefs, n random preference
    pairs; one to sixteen facts per line, spacing inside some facts, and
    comments, some of which hold facts that must be ignored.
    """
    ids = [f"x{i}" for i in range(n)]
    defs = [(rng.choice(ids), rng.choice(ids)) for _ in range(2 * n)]
    prefs = [(rng.choice(ids), rng.choice(ids)) for _ in range(n)] if with_prefs else []
    facts = [f"arg({x})." for x in ids]
    facts += [f"def({x},{y})." if rng.random() < 0.8 else f"def( {x} , {y} ) ." for x, y in defs]
    facts += [f"pref({x},{y})." for x, y in prefs]
    lines, k = [], 0
    while k < len(facts):
        step = rng.randint(1, 16)
        line = rng.choice([" ", "  ", "\t"]).join(facts[k:k + step])
        if rng.random() < 0.1:
            line += rng.choice(["  % trailing", " %def(x0,nowhere).", "%"])
        lines.append(line)
        if rng.random() < 0.02:
            lines.append(rng.choice(["", "% arg(x0).", "   "]))
        k += step
    return "\n".join(lines) + "\n", ids, defs, prefs


class TestParserAgainstFactLists:
    """The parser's masks equal a framework built straight from the fact lists."""

    @pytest.mark.parametrize("n", [1000, 3000])
    @pytest.mark.parametrize("with_prefs", [False, True], ids=["no-pref", "pref"])
    def test_large_texts(self, n, with_prefs):
        rng = random.Random(f"af-large-text:{n}:{with_prefs}")
        text, ids, defs, prefs = af_large_text(rng, n, with_prefs)
        position = {x: i for i, x in enumerate(ids)}
        targets = [0] * n
        for x, y in set(defs):
            targets[position[x]] += 1 << position[y]
        reference = Framework(
            [Argument(id=x) for x in ids], targets,
            closure_masks(prefs, ids) if prefs else None,
        )
        fw = parse_abstract_framework(text)
        assert fw.ids == reference.ids
        assert fw.arguments == reference.arguments
        assert fw.defeat_targets_mask == reference.defeat_targets_mask
        assert fw.preference_mask == reference.preference_mask
        assert fw.attack_targets_mask == reference.attack_targets_mask
        assert fw.attackers_mask == reference.attackers_mask
        assert [fw.position(x) for x in ids] == list(range(n))
        assert_round_trips(fw)


class TestParserHandOver:
    """The masks the parser hands the framework, on small texts whose
    edges repeat, loop, come before their names or are dropped."""

    @pytest.mark.parametrize("text,attacks", [
        ("arg(a). arg(b). def(a,b). def(a,b). def(b,a). def(a,b).",
         (("a", "b"), ("b", "a"))),
        ("arg(a). arg(b). def(a,a). def(a,b). def(b,b).",
         (("a", "a"), ("a", "b"), ("b", "b"))),
        ("def(c,a). def(a,b). def(b,c). arg(c). arg(a). arg(b).",
         (("c", "a"), ("a", "b"), ("b", "c"))),
        # a > b > c > a collapses into one class, so no defeat inside it
        # drops; d sits below the class and loses both its defeats on it.
        ("arg(a). arg(b). arg(c). arg(d). def(a,b). def(b,c). def(c,a). def(d,a). "
         "def(d,c). def(a,d). def(d,d). pref(a,b). pref(b,c). pref(c,a). pref(c,d).",
         (("a", "b"), ("a", "d"), ("b", "c"), ("c", "a"), ("d", "d"))),
        # Mutual defeats under a two-cycle and a strict pair: only the
        # strictly weaker side's defeat drops, and the self-defeat stays.
        ("def(b,a). def(a,b). def(c,b). def(b,c). def(c,c). pref(a,b). pref(b,a). "
         "pref(b,c). arg(a). arg(b). arg(c). def(c,b).",
         (("a", "b"), ("b", "a"), ("b", "c"), ("c", "c"))),
    ], ids=["duplicate-defeats", "self-defeats", "defeats-before-args",
            "pref-cycle-drops", "mutual-and-strict-drops"])
    def test_small_texts(self, text, attacks):
        # The line reader builds its framework through the public
        # constructor, which takes the transpose itself.
        fw, expected = parse_abstract_framework(text), oracles.parse_af_oracle(text)
        assert fw.ids == expected.ids
        assert [fw.position(x) for x in fw.ids] == list(range(len(fw.ids)))
        for name in ("defeat_targets_mask", "preference_mask", "attack_targets_mask",
                     "attackers_mask"):
            assert getattr(fw, name) == getattr(expected, name), name
        assert pairs_of(fw.attackers_mask) == {(j, i) for i, j in pairs_of(fw.attack_targets_mask)}
        assert fw.attacks == attacks
        assert_round_trips(fw)


# Every line boundary of str.splitlines, and blanks that are none.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
IN_LINE_BLANKS = [" ", "\t", "\xa0", "\x1f", "\u3000"]
JUNK = ["junk", "defeat(a,a).", "arg(a)", "arg(9).", "(", ").", ",", "\xe9", "9", "arg(a b)."]


def fact_soup_text(rng):
    """A short `.af` text drawn from good facts, bad facts, comments and blanks.

    Names come from a small pool: each `arg` declares a new one until
    none is left and then repeats one, and `def` and `pref` facts mostly
    name declared ones, so duplicates and undeclared names arise; arity
    errors, junk, facts split by a line break and comments that hold
    facts are mixed in at a rate drawn per text, so about half the texts
    hold no such fragment.
    """
    names = ["a", "b", "c", "d", "_e", "f1", "g\xe9", "h_"][:rng.randint(1, 8)]
    undeclared = rng.sample(names, len(names))
    declared: list[str] = []
    bad_rate = rng.choice([0.0, 0.0, 0.02, 0.1, 0.3])

    def name():
        return rng.choice(declared if declared and rng.random() < 0.97 else names)

    def blank():
        return "".join(rng.choice(IN_LINE_BLANKS) for _ in range(rng.choice([0, 0, 1, 2])))

    def fact(kind, *args):
        inner = ",".join(blank() + x + blank() for x in args)
        return f"{kind}{blank()}({inner}){blank()}."

    parts = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < bad_rate:
            kind = rng.choice(["arity", "junk", "split", "comment"])
            if kind == "arity":
                parts.append(rng.choice([fact("arg", "a", "b"), fact("def", "a"),
                                         fact("pref", "b")]))
            elif kind == "junk":
                parts.append(rng.choice(JUNK))
            elif kind == "split":
                parts.append(f"arg({rng.choice(LINE_BREAKS)}{rng.choice(names)}).")
            else:
                held = fact(rng.choice(["arg", "def"]), "a", "b")
                parts.append("%" + blank() + held + rng.choice(LINE_BREAKS))
        elif roll < 0.4:
            declared.append(undeclared.pop() if undeclared else rng.choice(names))
            parts.append(fact("arg", declared[-1]))
        elif roll < 0.85:
            parts.append(fact("def", name(), name()))
        else:
            parts.append(fact("pref", name(), name()))
        parts.append(rng.choice([blank(), blank(), rng.choice(LINE_BREAKS), "  % note\n"]))
    text = "".join(parts)
    return text + rng.choice(["", "", "\n", "%", "% arg(zz).", "%\n", blank()])


class TestParserAgainstLineReader:
    """The whole-text scan reads what the line-by-line reader reads."""

    def test_random_fact_soups(self):
        rng = random.Random("af-fact-soup")
        outcomes = {"parsed": 0, "cannot parse": 0, "takes": 0, "duplicate": 0, "undeclared": 0}
        for _ in range(24_000):
            text = fact_soup_text(rng)
            try:
                expected = oracles.parse_af_oracle(text)
            except AFFormatError as err:
                with pytest.raises(AFFormatError) as got:
                    parse_abstract_framework(text)
                assert str(got.value) == str(err), repr(text)
                outcomes[next(k for k in outcomes if k in str(err))] += 1
                continue
            fw = parse_abstract_framework(text)
            assert fw.ids == expected.ids, repr(text)
            assert fw.defeat_targets_mask == expected.defeat_targets_mask, repr(text)
            assert fw.preference_mask == expected.preference_mask, repr(text)
            assert fw.attack_targets_mask == expected.attack_targets_mask, repr(text)
            assert fw.attackers_mask == expected.attackers_mask, repr(text)
            outcomes["parsed"] += 1
        assert min(outcomes.values()) >= 500, outcomes
