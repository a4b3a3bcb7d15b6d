import random
import sys

import pytest
from hypothesis import given, strategies as st

import oracles
import randgen
from prefarg.errors import CapExceededError, FormulaSyntaxError
from prefarg.formulas import (
    MAX_DEPTH,
    And,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    TruthTable,
    atoms,
    entails,
    equivalent,
    is_consistent,
    negate_canonical,
    parse_formula,
    render,
    unique_formulas,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")


def formula_trees(names=("a", "b", "c", "d")):
    leaves = st.sampled_from([Atom(n) for n in names])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            st.tuples(sub, sub).map(lambda t: Iff(*t)),
        ),
        max_leaves=12,
    )


class TestParsing:
    def test_atom(self):
        assert parse_formula("rain_2x") == Atom("rain_2x")

    def test_negation_both_spellings(self):
        assert parse_formula("!a") == Not(a)
        assert parse_formula("~a") == Not(a)
        assert parse_formula("!!a") == Not(Not(a))

    def test_precedence_ladder(self):
        assert parse_formula("a & b | c") == Or(And(a, b), c)
        assert parse_formula("a | b -> c") == Implies(Or(a, b), c)
        assert parse_formula("a -> b <-> c") == Iff(Implies(a, b), c)
        assert parse_formula("!a & b") == And(Not(a), b)

    def test_implication_right_associative(self):
        assert parse_formula("a -> b -> c") == Implies(a, Implies(b, c))
        assert parse_formula("a <-> b <-> c") == Iff(a, Iff(b, c))

    def test_conjunction_left_associative(self):
        assert parse_formula("a & b & c") == And(And(a, b), c)
        assert parse_formula("a | b | c") == Or(Or(a, b), c)

    def test_parentheses(self):
        assert parse_formula("(a | b) & c") == And(Or(a, b), c)
        assert parse_formula("!(a & b)") == Not(And(a, b))

    def test_whitespace_insignificant(self):
        assert parse_formula(" a->b ") == parse_formula("a  ->\tb")

    @pytest.mark.parametrize("text,position", [
        ("", 0),
        ("   ", 0),
        ("a ->", 4),
        ("(a", 2),
        ("a)", 1),
        ("a b", 2),
        ("&a", 0),
    ])
    def test_syntax_errors_carry_positions(self, text, position):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert err.value.position == position
        assert f"(at offset {position})" in str(err.value)

    def test_rejects_uppercase_leading_atom(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("Alpha")

    def test_rejects_stray_character(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("a $ b")
        assert err.value.position == 2


def negations(n):
    f = a
    for _ in range(n):
        f = Not(f)
    return f


def conjunctions(n):
    f = a
    for _ in range(n):
        f = And(f, a)
    return f


def left_implications(n):
    # Renders as ((a -> a) -> a) -> a: parentheses nest one level less than the tree
    f = a
    for _ in range(n):
        f = Implies(f, a)
    return f


class TestDepthLimit:
    @pytest.mark.parametrize("build", [negations, conjunctions, left_implications])
    def test_limit_round_trips(self, build):
        f = build(MAX_DEPTH)
        assert parse_formula(render(f)) == f

    @pytest.mark.parametrize("build", [negations, conjunctions, left_implications])
    def test_past_limit_rejected(self, build):
        with pytest.raises(FormulaSyntaxError, match="nested deeper than 100"):
            parse_formula(render(build(MAX_DEPTH + 1)))

    def test_parenthesis_nesting(self):
        assert parse_formula("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH) == a
        with pytest.raises(FormulaSyntaxError, match="parentheses nested deeper") as err:
            parse_formula("(" * 1000 + "a" + ")" * 1000)
        assert err.value.position == MAX_DEPTH


class TestUnicodeBlanks:
    """Every whitespace character separates tokens, as `str.isspace` says."""

    @pytest.mark.parametrize("text,tree", [
        ("a\u00a0& b", And(a, b)),
        ("\x0ba", a),
        ("a\u2003|b", Or(a, b)),
    ])
    def test_parses(self, text, tree):
        assert parse_formula(text) == tree

    def test_control_character_is_no_blank(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("a \x00b")
        assert str(err.value) == "unexpected character '\\x00' (at offset 2)"


# Grammar tokens and ASCII blanks, for texts that get deep into the parser.
SOUP_TOKENS = ["a", "b", "x_1", "!", "~", "&", "|", "->", "<->", "(", ")",
               " ", "\t", "\n", "\r", "\x0b", "\x0c"]
OPENERS = ["(", "!", "~", "a & ", "a | ", "a -> ", "a <-> ", "!(", "(a & ", "(a -> ", "a & ("]
CLOSERS = ["", ")", " & a)", "))", " <-> a"]


def outcome(parse, text):
    """The tree parse gives, or the (message, offset) of its syntax error."""
    try:
        return parse(text)
    except FormulaSyntaxError as err:
        return str(err), err.position


def random_tree(rng, leaves):
    """A random tree, built bottom-up from leaves atoms by random connectives."""
    nodes = [Atom(rng.choice("abcd")) for _ in range(leaves)]
    while True:
        node = nodes.pop(rng.randrange(len(nodes)))
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            node = Not(node)
        if not nodes:
            return node
        make = rng.choice([And, Or, Implies, Iff])
        nodes.append(make(nodes.pop(rng.randrange(len(nodes))), node))


def mutated(rng, text):
    """text with a random slice replaced by zero to two soup tokens."""
    i = rng.randint(0, len(text))
    j = rng.randint(i, min(len(text), i + 4))
    return text[:i] + "".join(rng.choices(SOUP_TOKENS, k=rng.randint(0, 2))) + text[j:]


class TestAgainstRecursiveDescent:
    """The operator-precedence pass against the recursive-descent parser it
    replaced: equal trees, and equal messages and offsets on every error."""

    @pytest.mark.parametrize("seed", range(20))
    def test_token_soups(self, seed):
        rng = random.Random(f"soup:{seed}")
        for _ in range(1500):
            text = "".join(rng.choices(SOUP_TOKENS, k=rng.randint(0, 30)))
            assert outcome(parse_formula, text) == outcome(oracles.parse_formula_oracle, text)

    @pytest.mark.parametrize("opener", OPENERS)
    def test_nesting(self, opener):
        rng = random.Random(f"nest:{opener}")
        for n in [95, 99, 100, 101, 102, 1500, *rng.sample(range(103, 1500), 6)]:
            for closer in CLOSERS:
                text = opener * n + "a" + closer * n
                assert outcome(parse_formula, text) == outcome(oracles.parse_formula_oracle, text)

    @pytest.mark.parametrize("seed", range(20))
    def test_rendered_and_mutated_trees(self, seed):
        rng = random.Random(f"tree:{seed}")
        for _ in range(200):
            f = random_tree(rng, rng.randint(1, 40))
            text = render(f)
            assert parse_formula(text) == oracles.parse_formula_oracle(text) == f
            wrapped = randgen.random_formula_text(rng, ["a", "b", "c"], rng.randint(0, 6))
            for text in (wrapped, mutated(rng, text), mutated(rng, wrapped)):
                assert outcome(parse_formula, text) == outcome(oracles.parse_formula_oracle, text)


def call_with_headroom(headroom, fn):
    """fn() called about headroom frames below the recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back

    def descend(k):
        return descend(k - 1) if k else fn()

    return descend(sys.getrecursionlimit() - headroom - depth)


class TestLowStack:
    def test_limit_parses_near_the_recursion_limit(self):
        texts = ["(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH, render(left_implications(MAX_DEPTH))]
        trees = call_with_headroom(150, lambda: [parse_formula(t) for t in texts])
        assert trees == [a, left_implications(MAX_DEPTH)]


class TestRendering:
    def test_minimal_parentheses(self):
        assert render(Or(And(a, b), c)) == "a & b | c"
        assert render(And(Or(a, b), c)) == "(a | b) & c"
        assert render(Implies(Implies(a, b), c)) == "(a -> b) -> c"
        assert render(Implies(a, Implies(b, c))) == "a -> b -> c"
        assert render(Not(And(a, b))) == "!(a & b)"
        assert render(Not(Not(a))) == "!!a"
        assert render(And(And(a, b), c)) == "a & b & c"
        assert render(And(a, And(b, c))) == "a & (b & c)"

    def test_str_is_render(self):
        assert str(Implies(a, b)) == "a -> b"

    @given(formula_trees())
    def test_round_trip(self, f):
        assert parse_formula(render(f)) == f


class TestSemantics:
    @given(formula_trees())
    def test_consistency_matches_oracle(self, f):
        assert is_consistent([f]) == oracles.consistent([f])

    @given(formula_trees(), formula_trees())
    def test_entailment_matches_oracle(self, f, g):
        assert entails([f], g) == oracles.entails([f], g)

    @given(formula_trees(), formula_trees())
    def test_equivalence_matches_oracle(self, f, g):
        assert equivalent(f, g) == oracles.equivalent(f, g)

    def test_empty_set_is_consistent(self):
        assert is_consistent([])

    def test_inconsistent_premises_entail_everything(self):
        assert entails([a, Not(a)], b)

    def test_entailment_examples(self):
        assert entails([a, Implies(a, b)], b)
        assert not entails([Implies(a, b)], b)
        assert entails([], Or(a, Not(a)))

    def test_atoms(self):
        assert atoms(parse_formula("a -> (b & !c)")) == {"a", "b", "c"}
        assert atoms(a) == {"a"}

    def test_unique_formulas_keeps_first_occurrence(self):
        assert unique_formulas([a, b, a, Not(a), b]) == (a, b, Not(a))


class TestNegateCanonical:
    def test_wraps_plain_formula(self):
        assert negate_canonical(a) == Not(a)
        assert negate_canonical(Implies(a, b)) == Not(Implies(a, b))

    def test_strips_outer_negation(self):
        assert negate_canonical(Not(a)) == a
        assert negate_canonical(Not(Not(a))) == Not(a)

    @given(formula_trees())
    def test_always_opposite(self, f):
        assert oracles.equivalent(negate_canonical(f), Not(f))

    @given(formula_trees())
    def test_involution_up_to_double_negation(self, f):
        twice = negate_canonical(negate_canonical(f))
        assert oracles.equivalent(twice, f)


class TestTruthTable:
    def test_atom_mask_pattern(self):
        table = TruthTable(["a", "b"])
        assert table.mask(a) == 0b1010
        assert table.mask(b) == 0b1100
        assert table.mask(And(a, b)) == 0b1000
        assert table.mask(Or(a, b)) == 0b1110
        assert table.full == 0b1111

    def test_unknown_atom_rejected(self):
        table = TruthTable(["a"])
        with pytest.raises(ValueError):
            table.mask(b)

    def test_atom_limit(self):
        with pytest.raises(CapExceededError):
            TruthTable([f"x{i}" for i in range(25)])

    def test_limit_boundary_is_fine(self):
        table = TruthTable([f"x{i}" for i in range(10)])
        assert table.n_assignments == 1024
        table = TruthTable([f"x{i}" for i in range(24)])
        assert table.n_assignments == 1 << 24
        half = 1 << 23
        assert all(table.mask(Atom(f"x{k}")).bit_count() == half for k in range(24))
        assert table.mask(Atom("x23")) == ((1 << half) - 1) << half
        assert table.mask(Atom("x0")) & 0b1111 == 0b1010

    @pytest.mark.parametrize("n", range(1, 13))
    def test_atom_masks_follow_assignment_bits(self, n):
        table = TruthTable([f"x{k}" for k in range(n)])
        for k in range(n):
            mask = table.mask(Atom(f"x{k}"))
            assert all((mask >> i & 1) == (i >> k & 1) for i in range(1 << n))
