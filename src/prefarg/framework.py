"""Defeat relations, preference orderings, and the derived attack relation.

Defeat is purely logical. One argument rebuts another when its
conclusion is equivalent to the negation of the other's conclusion; it
undercuts the other when its conclusion is equivalent to the negation
of some member of the other's support. Equivalence is semantic, so `r`
rebuts `!r` as well as `!!!r`. The two kinds differ only in which
formulas of the target are negated, so one keyed pass finds either:
each target is filed under the truth masks of those negations, and each
argument looks its own conclusion mask up once.

A preference preorder then filters defeats into attacks: a defeat of A
by B becomes an attack unless A is strictly preferred to B, in which
case A shrugs the defeat off and the edge is dropped.

The preorder is held as one bitmask per argument position: bit j of
argument i's mask says i is at least as preferred as j. Certainty
preference builds one mask per level, and an explicit relation is closed
in one pass over the strongly connected components of its pairs, so the
closure costs O(n + m) mask ORs. The attack filter is then one test per
defeat: the defeat of A by B is dropped iff B is in A's mask and A is
not in B's.

Abstract frameworks can also be read from fact files:

    arg(a).  arg(b).
    def(a,b).          % a defeats b
    pref(a,b).         % a is at least as preferred as b

`%` starts a comment and facts may share a line. Explicit preference
facts are closed under reflexivity and transitivity; cycles collapse
into equivalences, as a preorder allows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .arguments import Argument, ArgumentUniverse
from .errors import AFFormatError
from .formulas import _table_for

DEFEAT_KINDS = ("rebut", "undercut", "abstract")


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach_masks(succ: Sequence[Sequence[int]]) -> list[int]:
    """Reflexive transitive closure of a graph as one reachability mask per node.

    One pass of Tarjan's strongly connected component algorithm, run on
    an explicit stack so that long chains need no recursion. A component
    is complete only after every component it reaches, so its mask is its
    members OR'd with the masks of the nodes its edges leave to; edges
    inside the component read a mask still at 0 and add nothing.
    """
    n = len(succ)
    order = [0] * n  # discovery number, 0 while unvisited
    low = [0] * n
    on_stack = [False] * n
    reach = [0] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not order[w]:
                    counter += 1
                    order[w] = low[w] = counter
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(w)
                        if w == v:
                            break
                    mask = 0
                    for w in members:
                        mask |= 1 << w
                        for x in succ[w]:
                            mask |= reach[x]
                    for w in members:
                        reach[w] = mask
    return reach


def strict_masks(masks: Sequence[int]) -> list[int]:
    """The strict part of a preorder given as masks: j in out[i] iff i ranks
    at least as high as j and j does not rank at least as high as i."""
    return [
        sum(1 << j for j in _bits(m & ~(1 << i)) if not masks[j] >> i & 1)
        for i, m in enumerate(masks)
    ]


@dataclass(frozen=True)
class PreferenceRelation:
    """Preorder over arguments, held as one mask per argument position.

    Bit j of an argument's mask says that argument is at least as
    preferred as argument j; `strict_pairs` is the strict part. Kind
    "certainty" compares certainty levels (lower level wins) and builds
    one mask per level, "explicit" holds the closed masks over the
    positions of `ids`, and "none" prefers nothing (each mask is its own
    bit). An explicit relation applies to arguments listing exactly its
    ids, in its order.
    """

    kind: str
    ids: tuple[str, ...] = ()
    masks: tuple[int, ...] = ()

    @classmethod
    def by_certainty(cls) -> PreferenceRelation:
        return cls("certainty")

    @classmethod
    def none(cls) -> PreferenceRelation:
        return cls("none")

    @classmethod
    def explicit(
        cls, pairs: Iterable[tuple[str, str]], ids: Iterable[str]
    ) -> PreferenceRelation:
        """Close the given (better, worse) pairs reflexively and transitively over ids."""
        id_list = tuple(dict.fromkeys(ids))
        index = {x: i for i, x in enumerate(id_list)}
        succ: list[list[int]] = [[] for _ in id_list]
        for x, y in pairs:
            if x not in index or y not in index:
                raise ValueError(f"preference pair ({x}, {y}) names an unknown argument")
            succ[index[x]].append(index[y])
        return cls("explicit", id_list, tuple(_reach_masks(succ)))

    def position_masks(self, arguments: Sequence[Argument]) -> list[int]:
        """The preorder over the given arguments, one mask per listing position."""
        if self.kind == "none":
            return [1 << i for i in range(len(arguments))]
        if self.kind == "certainty":
            levels = [a.level for a in arguments]
            if None in levels:
                raise ValueError("certainty preference requires knowledge-base arguments")
            # One mask per level: the arguments at that level or a less certain one.
            at_level: dict[int, int] = {}
            for i, level in enumerate(levels):
                at_level[level] = at_level.get(level, 0) | 1 << i
            at_or_below: dict[int, int] = {}
            acc = 0
            for level in sorted(at_level, reverse=True):
                acc |= at_level[level]
                at_or_below[level] = acc
            return [at_or_below[level] for level in levels]
        if tuple(a.id for a in arguments) != self.ids:
            raise ValueError("explicit preference ranks other arguments than these")
        return list(self.masks)

    def strict_pairs(self, arguments: Sequence[Argument]) -> list[tuple[str, str]]:
        """All strictly ordered id pairs among the given arguments, in listing order."""
        ids = [a.id for a in arguments]
        return [
            (ids[i], ids[j])
            for i, m in enumerate(strict_masks(self.position_masks(arguments)))
            for j in _bits(m)
        ]


class Framework:
    """Argument list, defeat edges, a preference, and the derived attacks.

    Attack edges are fixed at construction per the rule above, read off
    the preference masks: a defeat of a by b is dropped iff b is in a's
    mask and a is not in b's. Edge sequences are sorted by argument
    position, and per-argument preference, attacker and target bitmasks
    are kept for the semantics layer. Instances are immutable in use.
    """

    def __init__(
        self,
        arguments: Iterable[Argument],
        defeats: Iterable[tuple[str, str]],
        preference: PreferenceRelation,
        defeat_kind: str,
    ):
        if defeat_kind not in DEFEAT_KINDS:
            raise ValueError(f"unknown defeat kind {defeat_kind!r}")
        self.arguments = tuple(arguments)
        self.preference = preference
        self.defeat_kind = defeat_kind
        self._position = pos = {a.id: i for i, a in enumerate(self.arguments)}
        if len(pos) != len(self.arguments):
            raise ValueError("duplicate argument id")
        edges = set()
        for x, y in defeats:
            if x not in pos or y not in pos:
                raise ValueError(f"defeat edge ({x}, {y}) names an unknown argument")
            edges.add((pos[x], pos[y]))
        edges = sorted(edges)
        # preference_mask[i] has bit j iff argument i is at least as preferred as j.
        self.preference_mask = pref = preference.position_masks(self.arguments)
        # The defeat of j by i is dropped iff j is strictly preferred to i.
        kept = [(i, j) for i, j in edges if not (pref[j] >> i & 1 and not pref[i] >> j & 1)]
        ids = self.ids
        self.defeats = tuple((ids[i], ids[j]) for i, j in edges)
        self.attacks = tuple((ids[i], ids[j]) for i, j in kept)
        n = len(self.arguments)
        self.defeaters_mask = [0] * n
        self.defeat_targets_mask = [0] * n
        for i, j in edges:
            self.defeat_targets_mask[i] |= 1 << j
            self.defeaters_mask[j] |= 1 << i
        self.attackers_mask = [0] * n
        self.attack_targets_mask = [0] * n
        for i, j in kept:
            self.attack_targets_mask[i] |= 1 << j
            self.attackers_mask[j] |= 1 << i

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arguments)

    def argument(self, arg_id: str) -> Argument:
        return self.arguments[self.position(arg_id)]

    def position(self, arg_id: str) -> int:
        try:
            return self._position[arg_id]
        except KeyError:
            raise ValueError(f"no argument {arg_id!r} in framework") from None


def build_framework(
    universe: ArgumentUniverse,
    defeat: str = "undercut",
    preference: PreferenceRelation | None = None,
) -> Framework:
    """Compute every defeat over a universe and derive the attacks.

    Defeats come from one keyed pass. Each argument is keyed by the
    truth mask of the negation of every formula it can be defeated
    through: its conclusion under rebut, each support member under
    undercut. An argument's targets are then the arguments keyed by its
    own conclusion mask. Masks share one table over the candidate
    conclusions, which include every conclusion and support member, so
    two masks are equal exactly when their formulas are equivalent.
    """
    if defeat not in ("rebut", "undercut"):
        raise ValueError(f"defeat must be 'rebut' or 'undercut', got {defeat!r}")
    if preference is None:
        preference = PreferenceRelation.by_certainty()
    args = universe.arguments
    table = _table_for(universe.candidates)
    defeated_through: dict[int, list[str]] = {}
    for b in args:
        for f in (b.conclusion,) if defeat == "rebut" else b.support_formulas:
            defeated_through.setdefault(table.full ^ table.mask(f), []).append(b.id)
    edges = [(a.id, b) for a in args for b in defeated_through.get(table.mask(a.conclusion), ())]
    return Framework(args, edges, preference, defeat)


_FACT_RE = re.compile(
    r"\s*(arg|def|pref)\s*\(\s*([A-Za-z_]\w*)\s*(?:,\s*([A-Za-z_]\w*)\s*)?\)\s*\."
)


def parse_abstract_framework(text: str) -> Framework:
    """Read `arg`, `def` and `pref` facts into a framework of abstract arguments."""
    names: list[str] = []
    seen: set[str] = set()
    defs: list[tuple[str, str]] = []
    prefs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        pos = 0
        while line[pos:].strip():
            match = _FACT_RE.match(line, pos)
            if match is None:
                snippet = line[pos:].strip()[:30]
                raise AFFormatError(f"line {lineno}: cannot parse fact near {snippet!r}")
            kind, x, y = match.group(1), match.group(2), match.group(3)
            if kind == "arg":
                if y is not None:
                    raise AFFormatError(f"line {lineno}: arg() takes one name")
                if x in seen:
                    raise AFFormatError(f"line {lineno}: duplicate argument {x!r}")
                seen.add(x)
                names.append(x)
            else:
                if y is None:
                    raise AFFormatError(f"line {lineno}: {kind}() takes two names")
                (defs if kind == "def" else prefs).append((x, y))
            pos = match.end()
    for x, y in defs + prefs:
        if x not in seen or y not in seen:
            raise AFFormatError(f"fact names undeclared argument {x if x not in seen else y!r}")
    preference = (
        PreferenceRelation.explicit(prefs, names) if prefs else PreferenceRelation.none()
    )
    return Framework(tuple(Argument(id=n) for n in names), defs, preference, "abstract")

