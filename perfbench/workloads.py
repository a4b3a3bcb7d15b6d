"""The four benchmark workloads: how each input is made, asked and judged.

An input is named by its workload and an integer key; the key alone
fixes its text, so the committed pool (pool.json) can record a digest of
the baseline code's answer for every input a run may draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import gen

ATOMS = "abcdef"


@dataclass(frozen=True)
class Input:
    key: int
    suffix: str
    text: str
    command: str
    flags: tuple[str, ...]
    size: dict
    facts: dict = field(default_factory=dict)

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.flags]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    question: str
    sizes: str
    make: Callable[[int, bool], Input]


def _rng(name: str, key: int, tiny: bool) -> random.Random:
    return random.Random(f"{name}:{key}:{'tiny' if tiny else 'full'}")


def make_kb_accept(key: int, tiny: bool = False) -> Input:
    rng = _rng("kb-accept", key, tiny)
    # Cost roughly doubles per belief. With the four sizes in equal shares
    # the median call falls between the 11- and 12-belief bases, where the
    # latency jumps; drawing 12 twice as often puts it inside one size.
    n = (4 + key % 3) if tiny else (10, 11, 12, 12, 13)[key % 5]
    text = gen.kb_text(rng, n, 3, ATOMS, depth=2)
    query = gen.render(gen.formula(rng, ATOMS, 1))
    flags = ["--query", query, "--format", "json"]
    if key % 3 == 0:
        flags += ["--defeat", "rebut"]
    return Input(key, ".kb", text, "accept", tuple(flags), {"beliefs": n},
                 {"query": query, "defeat": "rebut" if key % 3 == 0 else "undercut"})


def make_af_enumerate(key: int, tiny: bool = False) -> Input:
    rng = _rng("af-enumerate", key, tiny)
    n = (3 + key % 5) if tiny else (12 + key % 7)
    density = rng.uniform(0.05, 0.3)
    prefs = n // 2 if key % 3 == 0 else 0
    text, facts = gen.af_text(rng, n, round(density * n * n), prefs)
    return Input(key, ".af", text, "extensions", ("--format", "json"),
                 {"arguments": n, "defeats": len(facts["defeats"]), "prefs": len(facts["prefs"])},
                 facts)


def make_kb_check(key: int, tiny: bool = False) -> Input:
    rng = _rng("kb-check", key, tiny)
    n = (3 + key % 3) if tiny else (5 + key % 4)
    strata = rng.randint(2, min(4, n))
    names = ATOMS[: rng.randint(4, 6)]
    core = rng.randint(1, 2) if rng.random() < 1 / 3 else 0
    text = gen.kb_text(rng, n, strata, names, depth=2, core_size=core)
    return Input(key, ".kb", text, "check", ("--format", "json"),
                 {"beliefs": n, "strata": strata, "core": core})


def make_af_large(key: int, tiny: bool = False) -> Input:
    rng = _rng("af-large", key, tiny)
    with_prefs = key % 3 == 0
    if tiny:
        n = 6 + key % 5
    else:
        # The preference closure is quadratic in the argument count
        # (about 4 s at 3000 arguments), so inputs with preferences stay
        # at 1000 arguments and the larger sizes exercise grounded alone.
        n = 1000 if with_prefs else 1000 + 500 * (key % 5)
    text, facts = gen.af_text(rng, n, 2 * n, n if with_prefs else 0)
    return Input(key, ".af", text, "extensions",
                 ("--semantics", "grounded", "--format", "json"),
                 {"arguments": n, "defeats": len(facts["defeats"]), "prefs": len(facts["prefs"])},
                 facts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kb-accept",
            "arguments.build_universe is ~95% of each input, so the pruned minimal-support "
            "walk must show its gain here; every report is capped at 20 arguments.",
            "grounded verdict plus credulous-stable verdict for the query",
            "10-13 beliefs (12 drawn twice as often), 6 atoms, 3 strata, depth <= 2, "
            "a third with --defeat rebut; "
            "universes of more than 20 arguments",
            make_kb_accept,
        ),
        Workload(
            "af-enumerate",
            "the twin 2^n scans in semantics dominate and no logic layer runs, so the labelling "
            "search shows its gain here and a minimal-support change shows none.",
            "the full complete and stable extension lists",
            "12-18 arguments, defeat density 0.05-0.3, a third with n/2 pref facts",
            make_af_enumerate,
        ),
        Workload(
            "kb-check",
            "many small stratified and flattened universes through check_correspondence; the "
            "only workload running coherence and self_check; >20 arguments is refused (exit 2).",
            "the check verdict (exit 0 or 3, not 2)",
            "5-8 beliefs, 4-6 atoms, 2-4 strata, a third with a [core]; universes of at most 16 "
            "or more than 20 arguments",
            make_kb_check,
        ),
        Workload(
            "af-large",
            "framework parsing with preference closure and O(n)-per-step grounded iteration "
            "dominate; an enumeration change must leave it unchanged.",
            "the grounded extension",
            "1000-3000 arguments, 2 defeats per argument, a third with ~1 pref per argument "
            "(at 1000 arguments)",
            make_af_large,
        ),
    )
}
