"""Argument construction from a stratified knowledge base.

An argument couples a minimal support (a subset of the beliefs that is
consistent with the core and entails a conclusion) with that conclusion
and the certainty level of the support. Conclusions range over a finite
candidate pool: every belief, the canonical negation of every belief,
and the optional query with its negation. The pool is closed under
canonical negation, which is exactly what the rebut and undercut
relations need to find their counterarguments.

Enumeration is exhaustive over belief subsets and refuses to run past
the cap (default 20 beliefs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Sized

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

    def argument(self, arg_id: str) -> Argument:
        for a in self.arguments:
            if a.id == arg_id:
                return a
        raise ValueError(f"no argument {arg_id!r} in universe")


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


def _minimal_entailing_index_sets(
    belief_masks: list[int], core_mask: int, goal_mask: int, full: int
) -> list[tuple[int, ...]]:
    """Index tuples of the minimal subsets that are consistent and entail the goal.

    Scans by increasing cardinality and prunes supersets of accepted
    sets, which is sound because consistency is inherited downward and
    entailment upward.
    """
    n = len(belief_masks)
    not_goal = full ^ goal_mask
    found_bits: list[int] = []
    found: list[tuple[int, ...]] = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            bits = 0
            for i in combo:
                bits |= 1 << i
            if any(fb & bits == fb for fb in found_bits):
                continue
            m = core_mask
            for i in combo:
                m &= belief_masks[i]
            if m == 0:
                continue
            if m & not_goal:
                continue
            found_bits.append(bits)
            found.append(combo)
    return found


def _supports_by_conclusion(
    kb: StratifiedKB, conclusions: Sequence[Formula], cap: int
) -> list[list[tuple[BeliefRef, ...]]]:
    """The minimal supports of each conclusion, in the order given."""
    refs = kb.belief_refs()
    check_cap(refs, "beliefs", cap)
    table = _table_for(itertools.chain(kb.core, *kb.strata, conclusions))
    core_mask = table.conjunction_mask(kb.core)
    belief_masks = [table.mask(kb.resolve(r)) for r in refs]
    return [
        [
            tuple(refs[i] for i in combo)
            for combo in _minimal_entailing_index_sets(
                belief_masks, core_mask, table.mask(c), table.full
            )
        ]
        for c in conclusions
    ]


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
