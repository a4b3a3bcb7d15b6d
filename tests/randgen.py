"""Seeded random inputs: abstract frameworks and stratified bases.

Both generators go through the public text parsers, so the random
suites also exercise parsing. Frameworks stay at 8 arguments or fewer
unless a size is asked for, to keep full subset enumeration cheap;
bases are filtered down to universes small enough to enumerate
extensions over. The named edge bases and wide seeds at the end are
shared by the suites that check the universe's masks and the defeats
built from them.
"""

from __future__ import annotations

import random

from prefarg.arguments import ArgumentUniverse, build_universe
from prefarg.errors import CapExceededError, KBFormatError
from prefarg.formulas import parse_formula
from prefarg.framework import Framework, parse_abstract_framework
from prefarg.kb import StratifiedKB, parse_kb

ATOM_NAMES = ["a", "b", "c", "d", "e", "f"]


PREF_STYLES = ("none", "ranked", "arbitrary")


def random_framework(
    rng: random.Random, n: int | None = None, prefs: str | None = None, mutual: int = 0
) -> Framework:
    """A random framework of n arguments (1 to 8 when not given).

    prefs picks one of PREF_STYLES: no preference facts, a total preorder
    from random ranks, or a few arbitrary pairs; a random one when not
    given. mutual adds that many random pairs of arguments that defeat
    each other, which multiplies the complete extensions.
    """
    if n is None:
        n = rng.randint(1, 8)
    names = [f"N{i}" for i in range(n)]
    density = rng.choice([0.05, 0.15, 0.3, 0.5, 0.7])
    lines = [" ".join(f"arg({x})." for x in names)]
    for x in names:
        for y in names:
            if rng.random() < density:
                lines.append(f"def({x},{y}).")
    for _ in range(mutual):
        x, y = rng.sample(names, 2)
        lines.append(f"def({x},{y}). def({y},{x}).")
    if prefs is None:
        style = rng.random()
        prefs = "none" if style < 0.45 else "ranked" if style < 0.75 else "arbitrary"
    if prefs == "ranked":
        rank = {x: rng.randint(1, 3) for x in names}
        for x in names:
            for y in names:
                if x != y and rank[x] <= rank[y]:
                    lines.append(f"pref({x},{y}).")
    elif prefs == "arbitrary" and names:
        # the parser closes these into a preorder
        for _ in range(rng.randint(1, n)):
            lines.append(f"pref({rng.choice(names)},{rng.choice(names)}).")
    return parse_abstract_framework("\n".join(lines) + "\n")


def random_formula_text(rng: random.Random, names: list[str], depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return rng.choice(names)
    if roll < 0.6:
        return "!" + _wrap(rng, random_formula_text(rng, names, depth - 1))
    op = rng.choice(["&", "|", "->", "<->"])
    left = random_formula_text(rng, names, depth - 1)
    right = random_formula_text(rng, names, depth - 1)
    return f"{_wrap(rng, left)} {op} {_wrap(rng, right)}"


def _wrap(rng: random.Random, text: str) -> str:
    if len(text) > 1 or rng.random() < 0.2:
        return f"({text})"
    return text


def random_kb(
    rng: random.Random, max_universe: int = 14, query_chance: float = 0.5
) -> tuple[StratifiedKB, ArgumentUniverse]:
    """A parsed base plus its universe, retried until small enough."""
    while True:
        names = ATOM_NAMES[: rng.randint(2, 6)]
        lines = []
        if rng.random() < 0.3:
            lines.append("[core]")
            lines.append(rng.choice(names))
        n_strata = rng.randint(1, 4)
        total = rng.randint(n_strata, 8)
        per = [1] * n_strata
        for _ in range(total - n_strata):
            per[rng.randrange(n_strata)] += 1
        for j in range(1, n_strata + 1):
            lines.append(f"[stratum {j}]")
            for _ in range(per[j - 1]):
                lines.append(random_formula_text(rng, names, rng.randint(0, 2)))
        text = "\n".join(lines) + "\n"
        try:
            base = parse_kb(text)
        except KBFormatError:
            continue  # duplicate formula or inconsistent core
        query = None
        if rng.random() < query_chance:
            query = parse_formula(random_formula_text(rng, names, 1))
        try:
            universe = build_universe(base, query)
        except CapExceededError:
            continue
        if len(universe.arguments) <= max_universe:
            return base, universe


# Candidate pools holding formulas that no argument concludes or rests on.
EDGE_BASES = {
    # the core rules the belief !a out of every argument
    "core-excludes": ("[core]\na\n[stratum 1]\n!a\nb\n[stratum 2]\n!b\n", None),
    # the query's atom occurs nowhere in the base
    "foreign-query": ("[stratum 1]\na\nb\n[stratum 2]\n!a\n", "z"),
}
# random_kb seeds whose universes hold 20 to 40 arguments and defeats of both kinds
WIDE_SEEDS = (154, 172, 234, 374)
# random_kb seeds 0-399, the edge bases and the wide seeds, as universe_case names them
UNIVERSE_CASES = (*range(400), *EDGE_BASES, *(f"wide-{s}" for s in WIDE_SEEDS))


def universe_case(case: int | str, with_query: bool) -> ArgumentUniverse:
    """The universe of one UNIVERSE_CASES base, with no query or with its own.

    A random or wide base keeps the query random_kb drew for it, or asks
    "a -> b" when it drew none; an edge base keeps its own, or asks "a".
    """
    if case in EDGE_BASES:
        text, query = EDGE_BASES[case]
        base, query = parse_kb(text), parse_formula(query or "a")
    else:
        wide = isinstance(case, str)
        rng = random.Random(int(case[5:]) if wide else case)
        base, universe = random_kb(rng, max_universe=40 if wide else 14)
        query = universe.query or parse_formula("a -> b")
    return build_universe(base, query if with_query else None)
