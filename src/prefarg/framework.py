"""Defeat relations, preference orderings, and the derived attack relation.

Defeat is purely logical. One argument rebuts another when its
conclusion is equivalent to the negation of the other's conclusion; it
undercuts the other when its conclusion is equivalent to the negation
of some member of the other's support. Equivalence is semantic, so `r`
rebuts `!r` as well as `!!!r`.

A preference preorder then filters defeats into attacks: a defeat of A
by B becomes an attack unless A is strictly preferred to B, in which
case A shrugs the defeat off and the edge is dropped.

Abstract frameworks can also be read from fact files:

    arg(a).  arg(b).
    def(a,b).          % a defeats b
    pref(a,b).         % a is at least as preferred as b

`%` starts a comment and facts may share a line. Explicit preference
facts are closed under reflexivity and transitivity; cycles collapse
into equivalences, as a preorder allows.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .arguments import Argument, ArgumentUniverse
from .errors import AFFormatError
from .formulas import _table_for

DEFEAT_KINDS = ("rebut", "undercut", "abstract")


@dataclass(frozen=True)
class PreferenceRelation:
    """Preorder over arguments; `prefers` is its strict part.

    Kind "certainty" compares certainty levels (lower level wins),
    "explicit" consults a closed relation over argument ids, and "none"
    prefers nothing.
    """

    kind: str
    pairs: frozenset[tuple[str, str]] | None = None

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
        id_list = list(dict.fromkeys(ids))
        known = set(id_list)
        rel = {(x, x) for x in id_list}
        for x, y in pairs:
            if x not in known or y not in known:
                raise ValueError(f"preference pair ({x}, {y}) names an unknown argument")
            rel.add((x, y))
        for mid in id_list:
            for x in id_list:
                if (x, mid) in rel:
                    for y in id_list:
                        if (mid, y) in rel:
                            rel.add((x, y))
        return cls("explicit", frozenset(rel))

    def holds(self, a: Argument, b: Argument) -> bool:
        """Non-strict comparison: a is at least as preferred as b."""
        if self.kind == "none":
            return a.id == b.id
        if self.kind == "certainty":
            if a.level is None or b.level is None:
                raise ValueError("certainty preference requires knowledge-base arguments")
            return a.level <= b.level
        return (a.id, b.id) in self.pairs

    def prefers(self, a: Argument, b: Argument) -> bool:
        """Strict comparison: a above b and not conversely."""
        return self.holds(a, b) and not self.holds(b, a)

    def strict_pairs(self, arguments: Sequence[Argument]) -> list[tuple[str, str]]:
        """All strictly ordered id pairs among the given arguments, in listing order."""
        return [
            (a.id, b.id)
            for a in arguments
            for b in arguments
            if a.id != b.id and self.prefers(a, b)
        ]


class Framework:
    """Argument list, defeat edges, a preference, and the derived attacks.

    Attack edges are fixed at construction per the rule above. Edge
    sequences are sorted by argument position, and per-argument
    attacker/target bitmasks are precomputed for the semantics layer.
    Instances are immutable in use.
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
        self._position = {a.id: i for i, a in enumerate(self.arguments)}
        if len(self._position) != len(self.arguments):
            raise ValueError("duplicate argument id")
        for x, y in defeats:
            if x not in self._position or y not in self._position:
                raise ValueError(f"defeat edge ({x}, {y}) names an unknown argument")
        self.defeats = tuple(
            sorted(set(defeats), key=lambda e: (self._position[e[0]], self._position[e[1]]))
        )
        self.attacks = tuple(
            (b, a)
            for b, a in self.defeats
            if not preference.prefers(self.argument(a), self.argument(b))
        )
        n = len(self.arguments)
        self.defeaters_mask = [0] * n
        self.defeat_targets_mask = [0] * n
        for x, y in self.defeats:
            i, j = self._position[x], self._position[y]
            self.defeat_targets_mask[i] |= 1 << j
            self.defeaters_mask[j] |= 1 << i
        self.attackers_mask = [0] * n
        self.attack_targets_mask = [0] * n
        for x, y in self.attacks:
            i, j = self._position[x], self._position[y]
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

    def has_defeat(self, attacker_id: str, target_id: str) -> bool:
        return bool(self.defeat_targets_mask[self.position(attacker_id)] >> self.position(target_id) & 1)

    def has_attack(self, attacker_id: str, target_id: str) -> bool:
        return bool(self.attack_targets_mask[self.position(attacker_id)] >> self.position(target_id) & 1)


def attacks(fw: Framework, attacker: Argument, target: Argument) -> bool:
    """True iff attacker defeats target and target is not strictly preferred to it."""
    return fw.has_attack(attacker.id, target.id)


def build_framework(
    universe: ArgumentUniverse,
    defeat: str = "undercut",
    preference: PreferenceRelation | None = None,
) -> Framework:
    """Compute all pairwise defeats over a universe and derive the attacks.

    The pairwise tests run on truth masks over one shared table, so the
    n^2 sweep stays cheap: two formulas are equivalent exactly when
    their masks are equal, which decides both defeat kinds edge by edge.
    """
    if defeat not in ("rebut", "undercut"):
        raise ValueError(f"defeat must be 'rebut' or 'undercut', got {defeat!r}")
    if preference is None:
        preference = PreferenceRelation.by_certainty()
    args = universe.arguments
    table = _table_for(itertools.chain.from_iterable(
        (a.conclusion, *a.support_formulas) for a in args
    ))
    conclusion_masks = [table.mask(a.conclusion) for a in args]
    edges: list[tuple[str, str]] = []
    if defeat == "rebut":
        for i, a in enumerate(args):
            for j, b in enumerate(args):
                if conclusion_masks[i] ^ conclusion_masks[j] == table.full:
                    edges.append((a.id, b.id))
    else:
        negated_supports = [
            frozenset(table.full ^ table.mask(f) for f in a.support_formulas) for a in args
        ]
        for i, a in enumerate(args):
            for j, b in enumerate(args):
                if conclusion_masks[i] in negated_supports[j]:
                    edges.append((a.id, b.id))
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


def framework_to_json(fw: Framework) -> dict:
    """Edge-list export: arguments, defeats, strict preference pairs, attacks."""
    return {
        "arguments": list(fw.ids),
        "defeats": [[x, y] for x, y in fw.defeats],
        "preference": [[x, y] for x, y in fw.preference.strict_pairs(fw.arguments)],
        "attacks": [[x, y] for x, y in fw.attacks],
    }
