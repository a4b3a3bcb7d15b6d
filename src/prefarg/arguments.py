"""Argument construction from a stratified knowledge base.

An argument couples a minimal support (a subset of the beliefs that is
consistent with the core and entails a conclusion) with that conclusion
and the certainty level of the support. Conclusions range over a finite
candidate pool: every belief, the canonical negation of every belief,
and the optional query with its negation. The pool is closed under
canonical negation, which is exactly what the rebut and undercut
relations need to find their counterarguments.

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
    the truth table its support walk built over the base and the pool."""

    kb: StratifiedKB
    query: Formula | None
    candidates: tuple[Formula, ...]
    arguments: tuple[Argument, ...]
    table: TruthTable = field(compare=False, repr=False)

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


def _supports_by_conclusion(
    kb: StratifiedKB, conclusions: Sequence[Formula], cap: int
) -> tuple[list[list[tuple[BeliefRef, ...]]], TruthTable]:
    """The minimal supports of each conclusion, in the order given, and the walk's table.

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
    """
    refs, table, core_mask, masks = _belief_masks(kb, conclusions, cap)
    outside = [table.full ^ table.mask(c) for c in conclusions]
    found: list[list[tuple[BeliefRef, ...]]] = [[] for _ in conclusions]
    # (subset, its model, each member's own models, conclusions the parent leaves open)
    pending = [((), core_mask, [], range(len(conclusions)))] if core_mask else []
    while pending:
        combo, model, own, parent_open = pending.pop()
        still = []
        for k in parent_open:
            if model & outside[k]:
                still.append(k)
            elif all(o & outside[k] for o in own):
                found[k].append(tuple(refs[i] for i in combo))
        for i in range(len(masks) - 1, combo[-1] if combo else -1, -1):
            child = model & masks[i]
            if not child or child == model:
                continue
            child_own = [o & masks[i] for o in own]
            if all(child_own):
                child_own.append(model ^ child)
                pending.append((combo + (i,), child, child_own, still))
    for supports in found:
        supports.sort(key=lambda s: (len(s), s))
    return found, table


def minimal_supports(
    kb: StratifiedKB, conclusion: Formula, cap: int = DEFAULT_CAP
) -> list[tuple[BeliefRef, ...]]:
    """All inclusion-minimal belief subsets consistent with the core that entail the conclusion.

    The empty support qualifies when the core alone entails the
    conclusion. Results are ordered by size, then by ref positions.
    """
    found, _ = _supports_by_conclusion(kb, [conclusion], cap)
    return found[0]


def build_universe(
    kb: StratifiedKB, query: Formula | None = None, cap: int = DEFAULT_CAP
) -> ArgumentUniverse:
    """Enumerate every argument whose conclusion lies in the candidate pool.

    Arguments are sorted by (level, support refs, conclusion text) and
    named A1, A2, ... so equal inputs always produce identical ids.
    """
    candidates = candidate_conclusions(kb, query)
    found, table = _supports_by_conclusion(kb, candidates, cap)
    entries: list[tuple[int, tuple[BeliefRef, ...], str, Formula]] = []
    for c, supports in zip(candidates, found):
        for support in supports:
            entries.append((kb.certainty_level(support), support, render(c), c))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    arguments = tuple(
        Argument(
            id=f"A{k}",
            support=support,
            support_formulas=tuple(kb.resolve(r) for r in support),
            conclusion=c,
            level=level,
        )
        for k, (level, support, _, c) in enumerate(entries, start=1)
    )
    return ArgumentUniverse(kb, query, candidates, arguments, table)


def supp_of(arguments: Iterable[Argument]) -> frozenset[BeliefRef]:
    """Union of the supports of the given arguments."""
    out: set[BeliefRef] = set()
    for a in arguments:
        if a.support is None:
            raise ValueError(f"abstract argument {a.id!r} has no support")
        out.update(a.support)
    return frozenset(out)
