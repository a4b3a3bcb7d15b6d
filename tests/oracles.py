"""Brute-force reference implementations used to cross-check the package.

Everything here favours clarity over speed: formulas are evaluated by
structural recursion over explicit assignments, subsets come from
itertools, and the semantics follow their set-theoretic definitions on
frozensets of ids. None of it shares code with the bitmask machinery
under test, except the walks and the parsers at the end:
supports_walk_oracle, subbase_walk_oracle, scan_fixed_points,
covering_pair_oracle and sampled_monotone_oracle keep the exhaustive
subset walks, extension scan, covering-pair walk and sampled draw walk
the package ran before its pruned, per-class or live-part ones,
parse_af_oracle the line-by-line `.af` reader it ran before its
whole-text scan, and parse_formula_oracle the recursive-descent formula
parser it ran before its operator-precedence pass, as references for
them.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import NamedTuple

from prefarg import semantics
from prefarg.arguments import Argument
from prefarg.coherence import Subbase
from prefarg.errors import AFFormatError, FormulaSyntaxError
from prefarg.formulas import (
    MAX_DEPTH, And, Atom, Formula, Iff, Implies, Not, Or, _depth, _table_for, _tokenize, atoms,
)
from prefarg.framework import Framework, _reach_masks
from prefarg.kb import StratifiedKB


def eval_formula(f: Formula, assignment: dict[str, bool]) -> bool:
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Not):
        return not eval_formula(f.operand, assignment)
    if isinstance(f, And):
        return eval_formula(f.left, assignment) and eval_formula(f.right, assignment)
    if isinstance(f, Or):
        return eval_formula(f.left, assignment) or eval_formula(f.right, assignment)
    if isinstance(f, Implies):
        return not eval_formula(f.left, assignment) or eval_formula(f.right, assignment)
    if isinstance(f, Iff):
        return eval_formula(f.left, assignment) == eval_formula(f.right, assignment)
    raise TypeError(f"not a formula: {f!r}")


def assignments(names):
    names = sorted(names)
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def names_of(formulas) -> set[str]:
    out: set[str] = set()
    for f in formulas:
        out |= atoms(f)
    return out


def models(formulas, names=None):
    fs = list(formulas)
    if names is None:
        names = names_of(fs)
    return [a for a in assignments(names) if all(eval_formula(f, a) for f in fs)]


def consistent(formulas) -> bool:
    return bool(models(formulas))


def entails(premises, conclusion) -> bool:
    fs = list(premises)
    names = names_of(fs) | atoms(conclusion)
    return all(eval_formula(conclusion, a) for a in models(fs, names))


def equivalent(f: Formula, g: Formula) -> bool:
    names = atoms(f) | atoms(g)
    return all(eval_formula(f, a) == eval_formula(g, a) for a in assignments(names))


def rebuts(a, b) -> bool:
    """True iff a's conclusion is equivalent to the negation of b's."""
    if a.conclusion is None or b.conclusion is None:
        raise ValueError("rebut is undefined for abstract arguments")
    return equivalent(a.conclusion, Not(b.conclusion))


def undercuts(a, b) -> bool:
    """True iff a's conclusion is equivalent to the negation of a support member of b."""
    if a.conclusion is None or b.support_formulas is None:
        raise ValueError("undercut is undefined for abstract arguments")
    return any(equivalent(a.conclusion, Not(k)) for k in b.support_formulas)


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


# Knowledge-base side.

def minimal_supports_oracle(kb: StratifiedKB, conclusion: Formula) -> list[frozenset]:
    """Minimal consistent belief subsets entailing the conclusion.

    Filters every subset, then drops the non-minimal ones.
    """
    core = list(kb.core)
    good = []
    for combo in subsets(kb.belief_refs()):
        chosen = core + [kb.resolve(r) for r in combo]
        if consistent(chosen) and entails(chosen, conclusion):
            good.append(combo)
    return [s for s in good if not any(t < s for t in good)]


def incl_oracle(kb: StratifiedKB) -> list[frozenset]:
    """Subsets passing the prefix-maximality test, checked one prefix at a time."""
    out = []
    for combo in subsets(kb.belief_refs()):
        if _prefix_maximal(kb, combo):
            out.append(combo)
    return out


def _prefix_maximal(kb: StratifiedKB, chosen: frozenset) -> bool:
    core = list(kb.core)
    for j in range(1, kb.n_strata + 1):
        prefix = [r for r in kb.belief_refs() if r.stratum <= j]
        kept = core + [kb.resolve(r) for r in prefix if r in chosen]
        if not consistent(kept):
            return False
        for r in prefix:
            if r not in chosen and consistent(kept + [kb.resolve(r)]):
                return False
    return True


def max_consistent_oracle(kb: StratifiedKB) -> list[frozenset]:
    core = list(kb.core)
    good = [
        combo
        for combo in subsets(kb.belief_refs())
        if consistent(core + [kb.resolve(r) for r in combo])
    ]
    return [s for s in good if not any(s < t for t in good)]


# Abstract framework side; attacks is any iterable of (attacker, target) ids.

def attacked_by(attacks, s: frozenset) -> frozenset:
    return frozenset(b for a, b in attacks if a in s)


def conflict_free_oracle(attacks, s: frozenset) -> bool:
    return not any(a in s and b in s for a, b in attacks)


def f_oracle(ids, attacks, s: frozenset) -> frozenset:
    hit = attacked_by(attacks, s)
    out = set()
    for x in ids:
        if all(a in hit for a, b in attacks if b == x):
            out.add(x)
    return frozenset(out)


def g_oracle(ids, attacks, s: frozenset) -> frozenset:
    return frozenset(ids) - attacked_by(attacks, s)


def grounded_rounds_oracle(ids, attacks) -> tuple[frozenset, int]:
    """f_step iterated up from the empty set, and the applications it took.

    The count includes the final application, the one that confirms the
    fixed point; the package's grounded labelling reports the same.
    """
    s = frozenset()
    iterations = 0
    while True:
        nxt = f_oracle(ids, attacks, s)
        iterations += 1
        if nxt == s:
            return s, iterations
        s = nxt


def grounded_oracle(ids, attacks) -> frozenset:
    return grounded_rounds_oracle(ids, attacks)[0]


def complete_oracle(ids, attacks) -> set[frozenset]:
    return {
        s for s in subsets(ids)
        if conflict_free_oracle(attacks, s) and f_oracle(ids, attacks, s) == s
    }


def stable_oracle(ids, attacks) -> set[frozenset]:
    return {
        s for s in subsets(ids)
        if conflict_free_oracle(attacks, s) and g_oracle(ids, attacks, s) == s
    }


def self_check_tally_oracle(ids, attacks) -> tuple[int, int, int, int]:
    """The f/g interchange tally of self_check, one subset at a time.

    Over every subset S: how many there are, how many have f_step(S)
    unequal to g_step(f_step(S)), and how many of those are fixed points
    of f_step and of g_step.
    """
    checked = mismatches = f_fixed = g_fixed = 0
    for s in subsets(ids):
        checked += 1
        fs = f_oracle(ids, attacks, s)
        if fs != g_oracle(ids, attacks, fs):
            mismatches += 1
            f_fixed += fs == s
            g_fixed += g_oracle(ids, attacks, s) == s
    return checked, mismatches, f_fixed, g_fixed


def derive_attacks_oracle(defeats, strictly_preferred) -> list[tuple[str, str]]:
    """Keep a defeat of a by b unless a is strictly preferred to b."""
    return [(b, a) for b, a in defeats if (a, b) not in strictly_preferred]


def closure_oracle(pairs, ids) -> set[tuple[str, str]]:
    """Reflexive transitive closure by iterating until nothing new appears."""
    closed = {(x, x) for x in ids} | set(pairs)
    while True:
        extra = {
            (x, z)
            for x, y in closed for y2, z in closed
            if y == y2 and (x, z) not in closed
        }
        if not extra:
            return closed
        closed |= extra


def arg_of_oracle(universe, refs) -> tuple:
    """The universe members whose support refs all lie in refs, as ref sets."""
    keep = set(refs)
    return tuple(a for a in universe.arguments if keep >= set(a.support))


# The exhaustive walk and scan the package ran before its pruned ones.
# They run on the package's own bitmask operators, which the oracles
# above check on their own, so they pin down the output and its order.

def consistent_subsets(masks, base: int):
    """Every subset of masks satisfiable together with base, with its model mask.

    Yields (ascending index tuple, model mask) pairs depth first, in
    lexicographic order of the tuples. A subset grows only by indices
    above its highest member, and a branch ends at the first zero mask,
    since a superset of an unsatisfiable subset stays unsatisfiable.
    """
    if not base:
        return
    pending = [((), base)]
    while pending:
        combo, model = pending.pop()
        yield combo, model
        for i in range(len(masks) - 1, combo[-1] if combo else -1, -1):
            if model & masks[i]:
                pending.append((combo + (i,), model & masks[i]))


def supports_walk_oracle(kb: StratifiedKB, conclusions) -> list[list[tuple]]:
    """The minimal supports of each conclusion, from every consistent subset.

    Visits each belief subset consistent with the core: a subset
    supports a conclusion when its model entails it, its parent in the
    walk (the subset less its last member) does not, and neither does
    any other drop-one subset, rebuilt as a conjunction. Each list is
    ordered by size, then by ref positions.
    """
    refs = kb.belief_refs()
    table = _table_for(itertools.chain(kb.core, *kb.strata, conclusions))
    core_mask = table.conjunction_mask(kb.core)
    masks = [table.mask(kb.resolve(r)) for r in refs]
    outside = [table.full ^ table.mask(c) for c in conclusions]
    found = [[] for _ in conclusions]
    # open_at[d]: the conclusions that the branch's subset of size d - 1 does not entail
    open_at = [range(len(conclusions))]
    for combo, model in consistent_subsets(masks, core_mask):
        del open_at[len(combo) + 1:]
        still, entailed = [], []
        for k in open_at[-1]:
            (still if model & outside[k] else entailed).append(k)
        open_at.append(still)
        for k in entailed:
            for j in range(len(combo) - 1):
                m = core_mask
                for i in combo[:j] + combo[j + 1:]:
                    m &= masks[i]
                if not m & outside[k]:
                    break
            else:
                found[k].append(tuple(refs[i] for i in combo))
    for supports in found:
        supports.sort(key=lambda s: (len(s), s))
    return found


def subbase_walk_oracle(kb: StratifiedKB) -> tuple[list[Subbase], list[Subbase]]:
    """The maximal consistent subsets and the preferred subbases, from every consistent subset.

    Keeps each consistent subset no further belief can join, then keeps
    it as preferred when no belief it leaves out at stratum k is
    consistent with the core and the beliefs it keeps from strata 1..k,
    testing one stratum prefix at a time. Both lists are in ascending
    order of index tuples.
    """
    refs = kb.belief_refs()
    table = _table_for(itertools.chain(kb.core, *kb.strata))
    core_mask = table.conjunction_mask(kb.core)
    masks = [table.mask(kb.resolve(r)) for r in refs]
    spans = [list(g) for _, g in itertools.groupby(range(len(refs)), lambda i: refs[i].stratum)]
    maximal, preferred = [], []
    for combo, model in consistent_subsets(masks, core_mask):
        chosen = set(combo)
        if any(model & m for i, m in enumerate(masks) if i not in chosen):
            continue
        subbase = Subbase(tuple(refs[i] for i in combo))
        maximal.append(subbase)
        prefix = core_mask
        for span in spans:
            for i in span:
                if i in chosen:
                    prefix &= masks[i]
            if any(prefix & masks[i] for i in span if i not in chosen):
                break
        else:
            preferred.append(subbase)
    return maximal, preferred


def scan_fixed_points(fw, mode: str, step) -> list[frozenset]:
    """Sets of every size that are conflict-free in mode and fixed by step.

    step is semantics._defended (complete) or semantics._not_attacked
    (stable), applied to the set each subset attacks; the list is ordered
    by size, then position bitmask.
    """
    found = [
        s for s in range(1 << len(fw.arguments))
        if semantics._conflict_free_mask(fw, s, mode)
        and step(fw, semantics._attacked_by(fw, s)) == s
    ]
    found.sort(key=lambda s: (s.bit_count(), s))
    return [semantics._ids_of(fw, s) for s in found]


def covering_pair_oracle(fw, defended, not_attacked) -> tuple[bool, bool]:
    """self_check's f_monotone and g_antimonotone verdicts on the exhaustive pool.

    The per-subset walk self_check ran before it paired classes through
    their meets: each subset S is compared with S minus each of its
    members. defended and not_attacked are the f_step and g_step kernels,
    applied once to each subset's attacked set, so a planted kernel can
    be passed in to compare failing verdicts too.
    """
    n = len(fw.arguments)
    att = [semantics._attacked_by(fw, s) for s in range(1 << n)]
    f_of = [defended(fw, a) for a in att]
    g_of = [not_attacked(fw, a) for a in att]
    f_mono = g_anti = True
    for s in range(1 << n):
        rest = s
        while rest:
            low = rest & -rest
            if f_of[s ^ low] & ~f_of[s]:
                f_mono = False
            if g_of[s] & ~g_of[s ^ low]:
                g_anti = False
            rest ^= low
    return f_mono, g_anti


def sampled_monotone_oracle(fw, defended, not_attacked) -> tuple[bool, bool]:
    """self_check's f_monotone and g_antimonotone verdicts on the sampled pool.

    The draw walk self_check ran before it read attacked sets at live
    parts: each pool member S, in pool order, is compared with S & r for
    four draws r from random.Random(SAMPLE_SEED + 1), one draw at a time,
    each set's attacked set taken from _attacked_by. defended and
    not_attacked are the f_step and g_step kernels, so a planted kernel
    can be passed in to compare failing verdicts too.
    """
    n = len(fw.arguments)
    rng = random.Random(semantics.SAMPLE_SEED + 1)
    f_mono = g_anti = True
    for s in semantics._subset_pool(n):
        a = semantics._attacked_by(fw, s)
        fs = defended(fw, a)
        gs = not_attacked(fw, a)
        for _ in range(4):
            a_sub = semantics._attacked_by(fw, s & rng.getrandbits(n))
            if defended(fw, a_sub) & ~fs:
                f_mono = False
            if gs & ~not_attacked(fw, a_sub):
                g_anti = False
    return f_mono, g_anti


_LINE_FACT_RE = re.compile(
    r"\s*(arg|def|pref)\s*\(\s*([A-Za-z_]\w*)\s*(?:,\s*([A-Za-z_]\w*)\s*)?\)\s*\."
)


def parse_af_oracle(text: str) -> Framework:
    """The `.af` reader that splits the text into lines and matches one fact at a time.

    Each line is cut at its first `%` and matched fact by fact, so a
    fact cannot span a line and the line number of an error is its
    index in `text.splitlines()`. Errors come in the same order as from
    the package's parser.
    """
    index: dict[str, int] = {}
    sources: list[str] = []
    sinks: list[str] = []
    prefs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].rstrip()
        pos, end = 0, len(line)
        while pos < end:
            match = _LINE_FACT_RE.match(line, pos)
            if match is None:
                snippet = line[pos:].strip()[:30]
                raise AFFormatError(f"line {lineno}: cannot parse fact near {snippet!r}")
            kind, x, y = match.groups()
            if kind == "def":
                if y is None:
                    raise AFFormatError(f"line {lineno}: def() takes two names")
                sources.append(x)
                sinks.append(y)
            elif kind == "arg":
                if y is not None:
                    raise AFFormatError(f"line {lineno}: arg() takes one name")
                if x in index:
                    raise AFFormatError(f"line {lineno}: duplicate argument {x!r}")
                index[x] = len(index)
            else:
                if y is None:
                    raise AFFormatError(f"line {lineno}: pref() takes two names")
                prefs.append((x, y))
            pos = match.end()
    targets = [0] * len(index)
    succ: list[list[int]] = [[] for _ in index] if prefs else []
    try:
        for x, y in zip(sources, sinks):
            i = index[x]  # the source's name is checked before the sink's
            targets[i] |= 1 << index[y]
        for x, y in prefs:
            succ[index[x]].append(index[y])
    except KeyError as err:
        raise AFFormatError(f"fact names undeclared argument {err.args[0]!r}") from None
    preference = _reach_masks(succ) if prefs else None
    return Framework(tuple(map(Argument, index)), targets, preference)


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


class _Parser:
    # Chains and negations are read in loops; only a parenthesised group
    # recurses, so the stack depth follows the (capped) parenthesis nesting.

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.parens = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.iff()
        tok = self.peek()
        if tok.kind != "end":
            raise FormulaSyntaxError(f"unexpected {tok.text!r}", tok.position)
        return f

    def iff(self) -> Formula:
        return self.right_chain("iff", Iff, self.implies)

    def implies(self) -> Formula:
        return self.right_chain("implies", Implies, self.disj)

    def right_chain(self, kind: str, make, operand) -> Formula:
        f = operand()
        if self.peek().kind != kind:
            return f
        parts = [f]
        while self.peek().kind == kind:
            self.take()
            parts.append(operand())
        f = parts.pop()
        while parts:
            f = make(parts.pop(), f)
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek().kind == "disj":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "conj":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        negations = 0
        tok = self.take()
        while tok.kind == "neg":
            negations += 1
            tok = self.take()
        if tok.kind == "atom":
            f = Atom(tok.text)
        elif tok.kind == "lparen":
            self.parens += 1
            if self.parens > MAX_DEPTH:
                raise FormulaSyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", tok.position)
            f = self.iff()
            closing = self.take()
            if closing.kind != "rparen":
                raise FormulaSyntaxError("expected ')'", closing.position)
            self.parens -= 1
        elif tok.kind == "end":
            raise FormulaSyntaxError("unexpected end of input", tok.position)
        else:
            raise FormulaSyntaxError(f"unexpected {tok.text!r}", tok.position)
        for _ in range(negations):
            f = Not(f)
        return f


def parse_formula_oracle(text: str) -> Formula:
    """parse_formula with the recursive-descent parser in place of its
    operator-precedence pass, fed the same token list."""
    if not text.strip():
        raise FormulaSyntaxError("empty formula", 0)
    tokens = [_Token(*t) for t in _tokenize(text)]
    f = _Parser(tokens).parse()
    if len(tokens) > MAX_DEPTH and _depth(f) > MAX_DEPTH:
        raise FormulaSyntaxError(f"formula nested deeper than {MAX_DEPTH}", 0)
    return f
