"""Seeded input text for the benchmark: stratified bases and abstract frameworks.

Formulas are built as trees and written fully parenthesised, so two
distinct trees always parse to two distinct formulas; that is how the
generator keeps every belief of a base unique, as the `.kb` format
demands. Nothing here imports the program under test.
"""

from __future__ import annotations

import itertools
import random

OPS = ("&", "|", "->", "<->")


def formula(rng: random.Random, names: str, depth: int):
    """A random formula tree: an atom name, ("!", t) or (op, left, right)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return rng.choice(names)
    if roll < 0.6:
        return ("!", formula(rng, names, depth - 1))
    return (rng.choice(OPS), formula(rng, names, depth - 1), formula(rng, names, depth - 1))


def render(t) -> str:
    if isinstance(t, str):
        return t
    if t[0] == "!":
        return "!" + render(t[1])
    return f"({render(t[1])} {t[0]} {render(t[2])})"


def holds(t, env: dict[str, bool]) -> bool:
    if isinstance(t, str):
        return env[t]
    if t[0] == "!":
        return not holds(t[1], env)
    a, b = holds(t[1], env), holds(t[2], env)
    return {"&": a and b, "|": a or b, "->": (not a) or b, "<->": a == b}[t[0]]


def _satisfiable(trees, names: str) -> bool:
    for bits in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if all(holds(t, env) for t in trees):
            return True
    return False


def _distinct(rng: random.Random, names: str, depth: int, count: int, taken: set) -> list:
    out = []
    while len(out) < count:
        t = formula(rng, names, depth)
        if t not in taken:
            taken.add(t)
            out.append(t)
    return out


def kb_text(
    rng: random.Random, n_beliefs: int, n_strata: int, names: str,
    depth: int = 2, core_size: int = 0,
) -> str:
    """A valid `.kb` file: a consistent core, then n_strata non-empty strata."""
    lines = []
    if core_size:
        while True:
            core = _distinct(rng, names, 1, core_size, set())
            if _satisfiable(core, names):
                break
        lines.append("[core]")
        lines += [render(t) for t in core]
    per = [1] * n_strata
    for _ in range(n_beliefs - n_strata):
        per[rng.randrange(n_strata)] += 1
    taken: set = set()
    for j, count in enumerate(per, start=1):
        lines.append(f"[stratum {j}]")
        lines += [render(t) for t in _distinct(rng, names, depth, count, taken)]
    return "\n".join(lines) + "\n"


def af_text(rng: random.Random, n: int, defeats: int, prefs: int) -> tuple[str, dict]:
    """A `.af` file with n arguments, `defeats` random defeat facts and `prefs` preference facts.

    Also returns the facts themselves, so the checker needs no parser.
    """
    ids = [f"x{i}" for i in range(n)]
    defs = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(defeats)})
    pref_pairs = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(prefs)})
    lines = [" ".join(f"arg({x})." for x in ids[i:i + 16]) for i in range(0, n, 16)]
    lines += [f"def({ids[x]},{ids[y]})." for x, y in defs]
    lines += [f"pref({ids[x]},{ids[y]})." for x, y in pref_pairs]
    facts = {
        "ids": ids,
        "defeats": [(ids[x], ids[y]) for x, y in defs],
        "prefs": [(ids[x], ids[y]) for x, y in pref_pairs],
    }
    return "\n".join(lines) + "\n", facts
