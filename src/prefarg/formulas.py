"""Propositional formulas: parsing, rendering, satisfiability, entailment.

Formula syntax:

    atom          [a-z][a-zA-Z0-9_]*
    negation      !f  or  ~f
    conjunction   f & g
    disjunction   f | g
    implication   f -> g        (right-associative)
    equivalence   f <-> g       (right-associative)

Binding strength, tightest first: ! & | -> <->. Whitespace is
insignificant: any run of whitespace characters (`str.isspace`) may
stand between tokens. Rendering uses `!`, single spaces around binary
connectives and minimal parentheses; parsing the rendered text yields
the identical tree.

Parsing is one left-to-right operator-precedence pass (Floyd 1963,
"Syntactic analysis and operator precedence") with no recursion. One
stack holds the connectives still waiting for an operand, and None for
each open parenthesis; another holds the finished operands. A binary
connective first applies every pending one that binds at least as
tightly (more tightly, if it groups to the right), so the binding order
is stated once, in `_PRECEDENCE` and `_RIGHT_ASSOCIATIVE`, which
`render` reads too. Text that nests connectives or parentheses more
than MAX_DEPTH (100) levels deep is still rejected: the parser needs no
such bound, but `render`, `TruthTable.mask` and the dataclass hash
recurse once per level of a tree.

Satisfiability questions are answered by complete truth-table
evaluation, vectorized as bitmasks over the assignment space: bit i of
a formula's mask holds the formula's value under assignment i, where
bit k of i is the value of atom k. Formula sets in this package stay
small (a handful of atoms), so the exhaustive procedure is simple,
exact and fast enough.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import CapExceededError, FormulaSyntaxError

# Masks occupy 2**n bits for n atoms; past this the integers get silly.
MAX_TABLE_ATOMS = 24

# Parsed trees are walked by recursive code (render, TruthTable.mask,
# the dataclass hash), so deeper input is refused before it gets there.
MAX_DEPTH = 100


class Formula:
    """Immutable AST node; concrete nodes are the dataclasses below."""

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


_PRECEDENCE = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6}
_SYMBOL = {And: "&", Or: "|", Implies: "->", Iff: "<->"}
_RIGHT_ASSOCIATIVE = (Implies, Iff)


def _prec(f: Formula) -> int:
    return _PRECEDENCE[type(f)]


def render(f: Formula) -> str:
    """Canonical text for a formula; parse_formula(render(f)) == f."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        inner = render(f.operand)
        if _prec(f.operand) < _PRECEDENCE[Not]:
            inner = f"({inner})"
        return "!" + inner
    mine = _prec(f)
    left, right = render(f.left), render(f.right)
    if isinstance(f, _RIGHT_ASSOCIATIVE):
        if _prec(f.left) <= mine:
            left = f"({left})"
        if _prec(f.right) < mine:
            right = f"({right})"
    else:
        if _prec(f.left) < mine:
            left = f"({left})"
        if _prec(f.right) <= mine:
            right = f"({right})"
    return f"{left} {_SYMBOL[type(f)]} {right}"


_TOKEN_RE = re.compile(
    r"""\s*(?:
          (?P<atom>[a-z][a-zA-Z0-9_]*)
        | (?P<iff><->)
        | (?P<implies>->)
        | (?P<neg>[!~])
        | (?P<conj>&)
        | (?P<disj>\|)
        | (?P<lparen>\()
        | (?P<rparen>\))
    )""",
    re.VERBOSE,
)

_BINARY = {symbol: make for make, symbol in _SYMBOL.items()}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then ("end", "", len(text))."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            where = len(text) - len(rest)
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r}", where)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _parse(tokens: list[tuple[str, str, int]]) -> Formula:
    """The tree of a _tokenize list, by the operator-precedence pass."""
    pending: list = []
    done: list[Formula] = []
    groups = 0
    want_operand = True
    for kind, text, position in tokens:
        if want_operand:
            if kind == "atom":
                done.append(Atom(text))
                want_operand = False
            elif kind == "neg":
                pending.append(Not)
            elif kind == "lparen":
                groups += 1
                if groups > MAX_DEPTH:
                    raise FormulaSyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", position)
                pending.append(None)
            elif kind == "end":
                raise FormulaSyntaxError("unexpected end of input", position)
            else:
                raise FormulaSyntaxError(f"unexpected {text!r}", position)
            continue
        make = _BINARY.get(text)
        if make is not None:
            bar = _PRECEDENCE[make] + (make in _RIGHT_ASSOCIATIVE)
        elif kind == ("rparen" if groups else "end"):
            bar = 0  # closes the innermost group, or the whole formula
        elif groups:
            raise FormulaSyntaxError("expected ')'", position)
        else:
            raise FormulaSyntaxError(f"unexpected {text!r}", position)
        while pending and pending[-1] is not None and _PRECEDENCE[pending[-1]] >= bar:
            top = pending.pop()
            if top is Not:
                done[-1] = Not(done[-1])
            else:
                right = done.pop()
                done[-1] = top(done[-1], right)
        if make is not None:
            pending.append(make)
            want_operand = True
        elif groups:
            pending.pop()
            groups -= 1
    return done[0]


def _depth(f: Formula) -> int:
    """Connectives on the longest path from the root to an atom."""
    deepest, stack = 0, [(f, 0)]
    while stack:
        g, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(g, Not):
            stack.append((g.operand, d + 1))
        elif not isinstance(g, Atom):
            stack += [(g.left, d + 1), (g.right, d + 1)]
    return deepest


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST, or raise FormulaSyntaxError.

    A tree deeper than MAX_DEPTH connectives, or parentheses nested
    deeper than MAX_DEPTH, is rejected.
    """
    if not text.strip():
        raise FormulaSyntaxError("empty formula", 0)
    tokens = _tokenize(text)
    f = _parse(tokens)
    # Each level of depth takes a token, so short formulas skip the walk.
    if len(tokens) > MAX_DEPTH and _depth(f) > MAX_DEPTH:
        raise FormulaSyntaxError(f"formula nested deeper than {MAX_DEPTH}", 0)
    return f


def atoms(f: Formula) -> frozenset[str]:
    """Atom names occurring in a formula."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, Not):
            stack.append(g.operand)
        else:
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


def unique_formulas(formulas: Iterable[Formula]) -> tuple[Formula, ...]:
    """Order-preserving dedup by structural identity."""
    return tuple(dict.fromkeys(formulas))


class TruthTable:
    """Truth masks for formulas over a fixed ordered atom list.

    Assignment i sets atom k true iff bit k of i is set; mask(f) has bit
    i set iff f holds under assignment i. Consistency and entailment of
    whole formula sets then reduce to integer bit operations.
    """

    def __init__(self, atom_names: Iterable[str]):
        names = list(dict.fromkeys(atom_names))
        if len(names) > MAX_TABLE_ATOMS:
            raise CapExceededError(
                f"{len(names)} atoms exceed the truth-table limit of {MAX_TABLE_ATOMS}"
            )
        self.atoms = tuple(names)
        self.n_assignments = 1 << len(names)
        self.full = (1 << self.n_assignments) - 1
        self._atom_masks = {name: self._atom_mask(k) for k, name in enumerate(names)}
        self._cache: dict[Formula, int] = {}

    def _atom_mask(self, k: int) -> int:
        # One period is 2**k zeros followed by 2**k ones; doubling the
        # pattern fills the assignment space in n - k - 1 shift-or steps,
        # each linear in the mask's length.
        block = 1 << k
        mask = ((1 << block) - 1) << block
        width = block << 1
        while width < self.n_assignments:
            mask |= mask << width
            width <<= 1
        return mask

    def mask(self, f: Formula) -> int:
        cached = self._cache.get(f)
        if cached is not None:
            return cached
        if isinstance(f, Atom):
            try:
                value = self._atom_masks[f.name]
            except KeyError:
                raise ValueError(f"atom {f.name!r} not in this table") from None
        elif isinstance(f, Not):
            value = self.full ^ self.mask(f.operand)
        elif isinstance(f, And):
            value = self.mask(f.left) & self.mask(f.right)
        elif isinstance(f, Or):
            value = self.mask(f.left) | self.mask(f.right)
        elif isinstance(f, Implies):
            value = (self.full ^ self.mask(f.left)) | self.mask(f.right)
        elif isinstance(f, Iff):
            value = self.full ^ (self.mask(f.left) ^ self.mask(f.right))
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._cache[f] = value
        return value

    def conjunction_mask(self, formulas: Iterable[Formula]) -> int:
        m = self.full
        for f in formulas:
            m &= self.mask(f)
        return m


def _table_for(formulas: Iterable[Formula]) -> TruthTable:
    """The truth table over the sorted atoms of the given formulas."""
    names: set[str] = set()
    for f in formulas:
        names |= atoms(f)
    return TruthTable(sorted(names))


def is_consistent(formulas: Iterable[Formula]) -> bool:
    """True iff the formulas are jointly satisfiable; the empty set is."""
    fs = list(formulas)
    table = _table_for(fs)
    return table.conjunction_mask(fs) != 0


def entails(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """True iff every model of the premises satisfies the conclusion.

    An unsatisfiable premise set entails everything.
    """
    ps = list(premises)
    table = _table_for(ps + [conclusion])
    return table.conjunction_mask(ps) & (table.full ^ table.mask(conclusion)) == 0


def equivalent(f: Formula, g: Formula) -> bool:
    """True iff f and g entail each other."""
    return entails([f], g) and entails([g], f)


def negate_canonical(f: Formula) -> Formula:
    """Negate f, stripping an outermost double negation (!!g collapses to g)."""
    if isinstance(f, Not):
        return f.operand
    return Not(f)
