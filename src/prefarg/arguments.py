"""Argument construction from a stratified knowledge base.

An argument couples a minimal support (a subset of the beliefs that is
consistent with the core and entails a conclusion) with that conclusion
and the certainty level of the support. Conclusions range over a finite
candidate pool: every belief, the canonical negation of every belief,
and the optional query with its negation. The pool is closed under
negation up to equivalence: the complement of every candidate's truth
mask is the mask of some candidate. It need not hold the canonical
negation itself: a lone `!!a` brings `!a` but not `a`. Equivalence is
what the rebut and undercut relations need, since build_framework finds
counterarguments by truth mask.

Supports come from one depth-first walk over the belief subsets that
are consistent with the core and irredundant: every member rules out
some model that no other member rules out (Besnard & Hunter 2001). A
minimal support is irredundant, since a member that follows from the
others and the core can be dropped without changing the subset's models,
and then the smaller subset entails whatever the larger one does. Every
superset of a redundant subset is redundant too, so the walk never
enters one, and every subset of an irredundant one is irredundant, so
the walk still reaches them all. It starts, like coherence's subbase
walk, from _belief_masks, which refuses to run past the cap (default 20
beliefs) before it builds the truth table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Sized

from .errors import CapExceededError
from .formulas import Formula, TruthTable, _table_for, negate_canonical, render, unique_formulas
from .kb import BeliefRef, StratifiedKB

DEFAULT_CAP = 20


class Argument(NamedTuple):
    """A supported conclusion; abstract arguments carry an id only.

    Tuple-backed: instances are immutable, hold no `__dict__`, and
    compare and hash as the plain tuple of their five fields, so an
    argument equals a tuple with the same fields.
    """

    id: str
    support: tuple[BeliefRef, ...] | None = None
    support_formulas: tuple[Formula, ...] | None = None
    conclusion: Formula | None = None
    level: int | None = None

    @property
    def is_abstract(self) -> bool:
        return self.support is None

    def describe(self) -> str:
        """Render as `id: ({support}, conclusion) @level`."""
        if self.is_abstract:
            return self.id
        supp = ", ".join(render(f) for f in self.support_formulas)
        return f"{self.id}: ({{{supp}}}, {render(self.conclusion)}) @{self.level}"


@dataclass(frozen=True)
class ArgumentUniverse:
    """Every argument a knowledge base yields for the candidate pool, and
    the truth table its support walk built over the base and the pool.

    Three parallel tuples carry what the walk found past it, so that
    later layers need no formula: belief_masks holds each belief's truth
    mask, by position in kb.belief_refs(); support_masks holds each
    argument's support as a mask over those positions; conclusion_masks
    holds each argument's conclusion mask. All masks come from table.
    """

    kb: StratifiedKB
    query: Formula | None
    candidates: tuple[Formula, ...]
    arguments: tuple[Argument, ...]
    table: TruthTable = field(compare=False, repr=False)
    belief_masks: tuple[int, ...] = field(compare=False, repr=False)
    support_masks: tuple[int, ...] = field(compare=False, repr=False)
    conclusion_masks: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def _by_id(self) -> dict[str, Argument]:
        return {a.id: a for a in self.arguments}

    def argument(self, arg_id: str) -> Argument:
        try:
            return self._by_id[arg_id]
        except KeyError:
            raise ValueError(f"no argument {arg_id!r} in universe") from None


def candidate_conclusions(kb: StratifiedKB, query: Formula | None = None) -> tuple[Formula, ...]:
    """Beliefs and their canonical negations, then the query pair, deduplicated."""
    pool: list[Formula] = []
    for _, f in kb.beliefs():
        pool.append(f)
        pool.append(negate_canonical(f))
    if query is not None:
        pool.append(query)
        pool.append(negate_canonical(query))
    return unique_formulas(pool)


def check_cap(items: Sized, noun: str, cap: int) -> None:
    """Refuse an enumeration over more than cap items."""
    if len(items) > cap:
        raise CapExceededError(f"{len(items)} {noun} exceed the enumeration cap of {cap}")


def _belief_masks(kb: StratifiedKB, extra: Iterable[Formula], cap: int):
    """The start of both belief walks: the belief refs, a truth table over the core,
    the strata and extra, the core's models and each belief's models. More beliefs
    than cap are refused before the table is built."""
    refs = kb.belief_refs()
    check_cap(refs, "beliefs", cap)
    table = _table_for(itertools.chain(kb.core, *kb.strata, extra))
    return refs, table, table.conjunction_mask(kb.core), [table.mask(kb.resolve(r)) for r in refs]


def _walk_supports(kb: StratifiedKB, conclusions: Sequence[Formula], cap: int):
    """The minimal supports of every conclusion mask, as belief positions.

    Returns the belief refs, the walk's table, each belief's mask, each
    conclusion's mask in the order given, and a dict from each of those
    masks to its supports, sorted as position tuples. Refs run stratum
    by stratum, so positions sort as refs do.

    One walk serves every conclusion. A subset grows only by beliefs
    above its highest member, and only into irredundant subsets: each
    member keeps its own models, the models of the core and the other
    members that it alone rules out. If a member has none, it follows
    from the rest, so the subset and every superset have the same models
    as they have without it and none is a minimal support. A belief
    joins only if it keeps some of the subset's models and rules out
    some others, and only if every member keeps an own model that
    satisfies it. The child's members own those models, and the new
    belief owns the models it rules out.

    A subset supports a conclusion when its model entails it and no
    subset formed by dropping one member does. Dropping member j adds
    exactly j's own models, so that test is one mask per member.
    Dropping the last member gives the subset's parent in the walk, so
    only the conclusions its parent leaves open are tested.

    Conclusions with one truth mask have the same supports, so the walk
    tests each mask once and records each support once, under that
    mask. A mask m is tested together with its complement,
    full ^ m, as one pair: with x the node's models outside m, x == 0
    means the node entails m, and x == model means it entails the
    complement. A side that no conclusion has records nothing. Either
    outcome closes the pair below the node. A descendant's model is a
    non-empty subset of this node's. It entails the side entailed here,
    but as a strict superset of this node, so it is no minimal support
    for that side, and it never entails the other side, which holds
    nowhere in this node's model.
    """
    refs, table, core_mask, masks = _belief_masks(kb, conclusions, cap)
    mask_of = [table.mask(c) for c in conclusions]
    groups: dict[int, list[tuple[int, ...]]] = {m: [] for m in mask_of}
    # (models outside side a, outside side b, side a's supports, side b's or None)
    pairs = []
    for m, found in groups.items():
        other = table.full ^ m
        if other not in groups or m < other:
            pairs.append((other, m, found, groups.get(other)))
    # (subset, its model, each member's own models, pairs the parent leaves open)
    pending = [((), core_mask, [], pairs)] if core_mask else []
    while pending:
        combo, model, own, parent_open = pending.pop()
        still = []
        for pair in parent_open:
            x = model & pair[0]
            if not x:
                out, got = pair[0], pair[2]
            elif x == model:
                out, got = pair[1], pair[3]
                if got is None:
                    continue
            else:
                still.append(pair)
                continue
            for o in own:
                if not o & out:
                    break
            else:
                got.append(combo)
        for i in range(len(masks) - 1, combo[-1] if combo else -1, -1):
            child = model & masks[i]
            if not child or child == model:
                continue
            child_own = [o & masks[i] for o in own]
            if all(child_own):
                child_own.append(model ^ child)
                pending.append((combo + (i,), child, child_own, still))
    for found in groups.values():
        found.sort(key=lambda s: (len(s), s))
    return refs, table, masks, mask_of, groups


def minimal_supports(
    kb: StratifiedKB, conclusion: Formula, cap: int = DEFAULT_CAP
) -> list[tuple[BeliefRef, ...]]:
    """All inclusion-minimal belief subsets consistent with the core that entail the conclusion.

    The empty support qualifies when the core alone entails the
    conclusion. Results are ordered by size, then by ref positions.
    """
    refs, _, _, mask_of, groups = _walk_supports(kb, [conclusion], cap)
    return [tuple(refs[i] for i in s) for s in groups[mask_of[0]]]


def build_universe(
    kb: StratifiedKB, query: Formula | None = None, cap: int = DEFAULT_CAP
) -> ArgumentUniverse:
    """Enumerate every argument whose conclusion lies in the candidate pool.

    Arguments are sorted by (level, support refs, conclusion text) and
    named A1, A2, ... so equal inputs always produce identical ids. The
    walk's supports stay positions until here, where each argument's
    refs, formulas and support mask are built from them.
    """
    candidates = candidate_conclusions(kb, query)
    refs, table, masks, mask_of, groups = _walk_supports(kb, candidates, cap)
    texts = [render(c) if groups[m] else "" for c, m in zip(candidates, mask_of)]
    entries = sorted(
        (refs[s[-1]].stratum if s else 0, s, texts[k], k)
        for k, m in enumerate(mask_of) for s in groups[m]
    )
    formulas = [f for _, f in kb.beliefs()]
    bits = [1 << i for i in range(len(refs))]
    arguments = tuple(
        Argument(f"A{n}", tuple(map(refs.__getitem__, s)), tuple(map(formulas.__getitem__, s)),
                 candidates[k], level)
        for n, (level, s, _, k) in enumerate(entries, start=1)
    )
    return ArgumentUniverse(
        kb, query, candidates, arguments, table, tuple(masks),
        tuple(sum(map(bits.__getitem__, e[1])) for e in entries),
        tuple(mask_of[e[3]] for e in entries),
    )


def supp_of(arguments: Iterable[Argument]) -> frozenset[BeliefRef]:
    """Union of the supports of the given arguments."""
    out: set[BeliefRef] = set()
    for a in arguments:
        if a.support is None:
            raise ValueError(f"abstract argument {a.id!r} has no support")
        out.update(a.support)
    return frozenset(out)
