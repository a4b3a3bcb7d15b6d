"""Argument construction from a stratified knowledge base.

An argument couples a minimal support (a subset of the beliefs that is
consistent with the core and entails a conclusion) with that conclusion
and the certainty level of the support. Conclusions range over a finite
candidate pool: every belief, the canonical negation of every belief,
and the optional query with its negation. The pool is closed under
canonical negation, which is exactly what the rebut and undercut
relations need to find their counterarguments.

Supports come from one depth-first walk over the belief subsets that
are consistent with the core, `consistent_subsets`, which also yields
the preferred subbases in `coherence`. It never enters an inconsistent
subset, and it refuses to run past the cap (default 20 beliefs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Sized

from .errors import CapExceededError
from .formulas import Formula, _table_for, negate_canonical, render, unique_formulas
from .kb import BeliefRef, StratifiedKB

DEFAULT_CAP = 20


@dataclass(frozen=True)
class Argument:
    """A supported conclusion; abstract arguments carry an id only."""

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
    """Every argument a knowledge base yields for the candidate pool."""

    kb: StratifiedKB
    query: Formula | None
    candidates: tuple[Formula, ...]
    arguments: tuple[Argument, ...]

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


def consistent_subsets(masks: Sequence[int], base: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every subset of masks satisfiable together with base, with its model mask.

    Yields (ascending index tuple, model mask) pairs depth first, in
    lexicographic order of the tuples. A subset grows only by indices
    above its highest member, and a branch ends at the first zero mask,
    since a superset of an unsatisfiable subset stays unsatisfiable.
    Nothing but the pending branches is kept.
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


def _supports_by_conclusion(
    kb: StratifiedKB, conclusions: Sequence[Formula], cap: int
) -> list[list[tuple[BeliefRef, ...]]]:
    """The minimal supports of each conclusion, in the order given.

    One walk over the consistent belief subsets serves every
    conclusion: a subset supports a conclusion when its model entails
    it and no subset formed by dropping one member does. Dropping the
    last member gives the subset's parent in the walk, so only the
    conclusions its parent leaves open are tested.
    """
    refs = kb.belief_refs()
    check_cap(refs, "beliefs", cap)
    table = _table_for(itertools.chain(kb.core, *kb.strata, conclusions))
    core_mask = table.conjunction_mask(kb.core)
    masks = [table.mask(kb.resolve(r)) for r in refs]
    outside = [table.full ^ table.mask(c) for c in conclusions]
    found: list[list[tuple[BeliefRef, ...]]] = [[] for _ in conclusions]
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


def minimal_supports(
    kb: StratifiedKB, conclusion: Formula, cap: int = DEFAULT_CAP
) -> list[tuple[BeliefRef, ...]]:
    """All inclusion-minimal belief subsets consistent with the core that entail the conclusion.

    The empty support qualifies when the core alone entails the
    conclusion. Results are ordered by size, then by ref positions.
    """
    return _supports_by_conclusion(kb, [conclusion], cap)[0]


def build_universe(
    kb: StratifiedKB, query: Formula | None = None, cap: int = DEFAULT_CAP
) -> ArgumentUniverse:
    """Enumerate every argument whose conclusion lies in the candidate pool.

    Arguments are sorted by (level, support refs, conclusion text) and
    named A1, A2, ... so equal inputs always produce identical ids.
    """
    candidates = candidate_conclusions(kb, query)
    entries: list[tuple[int, tuple[BeliefRef, ...], str, Formula]] = []
    for c, supports in zip(candidates, _supports_by_conclusion(kb, candidates, cap)):
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
    return ArgumentUniverse(kb, query, candidates, arguments)


def supp_of(arguments: Iterable[Argument]) -> frozenset[BeliefRef]:
    """Union of the supports of the given arguments."""
    out: set[BeliefRef] = set()
    for a in arguments:
        if a.support is None:
            raise ValueError(f"abstract argument {a.id!r} has no support")
        out.update(a.support)
    return frozenset(out)


def universe_to_json(universe: ArgumentUniverse) -> list[dict]:
    """JSON-ready listing: one {id, support, conclusion, level} object per argument."""
    return [
        {
            "id": a.id,
            "support": [render(f) for f in a.support_formulas],
            "conclusion": render(a.conclusion),
            "level": a.level,
        }
        for a in universe.arguments
    ]
