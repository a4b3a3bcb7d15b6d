"""Stratified knowledge bases: a consistent core plus ranked belief strata.

File format (line oriented):

    # comment
    [core]
    p -> q
    [stratum 1]
    a
    !a
    [stratum 2]
    a -> b

The optional [core] section holds hard knowledge and must be
consistent. [stratum N] sections must be numbered contiguously from 1;
stratum 1 is the most reliable. Each non-empty line holds one formula
and `#` starts a comment. A formula may appear at most once across all
strata, so every belief has a single well-defined rank. Empty strata
are legal and preserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import FormulaSyntaxError, KBFormatError
from .formulas import Formula, is_consistent, parse_formula, render


class BeliefRef(NamedTuple):
    """Stable address of one belief: stratum (1-based) and slot (0-based)."""

    stratum: int
    position: int


@dataclass(frozen=True)
class StratifiedKB:
    """Immutable knowledge base; validated on construction."""

    core: tuple[Formula, ...]
    strata: tuple[tuple[Formula, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "core", tuple(self.core))
        object.__setattr__(self, "strata", tuple(tuple(s) for s in self.strata))
        seen: dict[Formula, str] = {}
        for f in self.core:
            if f in seen:
                raise KBFormatError(f"duplicate formula in core: {render(f)}")
            seen[f] = "core"
        seen = {}
        for ref, f in self.beliefs():
            if f in seen:
                raise KBFormatError(
                    f"duplicate formula {render(f)} in stratum {ref.stratum} "
                    f"(already in {seen[f]})"
                )
            seen[f] = f"stratum {ref.stratum}"
        if self.core and not is_consistent(self.core):
            raise KBFormatError("inconsistent core")

    @property
    def n_strata(self) -> int:
        return len(self.strata)

    def beliefs(self) -> Iterator[tuple[BeliefRef, Formula]]:
        """All beliefs with their refs, stratum by stratum."""
        for s, stratum in enumerate(self.strata, start=1):
            for p, f in enumerate(stratum):
                yield BeliefRef(s, p), f

    def belief_refs(self) -> tuple[BeliefRef, ...]:
        return tuple(ref for ref, _ in self.beliefs())

    def resolve(self, ref: BeliefRef) -> Formula:
        """Formula at a ref; raises ValueError for a dangling ref."""
        if 1 <= ref.stratum <= len(self.strata):
            stratum = self.strata[ref.stratum - 1]
            if 0 <= ref.position < len(stratum):
                return stratum[ref.position]
        raise ValueError(f"dangling belief reference {tuple(ref)}")

    def certainty_level(self, refs: Iterable[BeliefRef]) -> int:
        """Largest stratum index among the refs; 0 for an empty collection.

        Level 0 is reserved for core-only support, which therefore
        outranks any support that touches the belief strata.
        """
        level = 0
        for ref in refs:
            self.resolve(ref)
            if ref.stratum > level:
                level = ref.stratum
        return level


# Stratum numbers keep at most nine significant digits: int() raises
# ValueError on digit strings past 4300 characters.
_SECTION_RE = re.compile(r"\[\s*(?:(core)|stratum\s+0*(\d{1,9}))\s*\]$")


def parse_kb(text: str) -> StratifiedKB:
    """Parse and validate knowledge-base text."""
    core: list[Formula] = []
    strata: list[list[Formula]] = []
    current: list[Formula] | None = None
    seen_core = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            match = _SECTION_RE.match(line)
            if match is None:
                raise KBFormatError(f"line {lineno}: bad section header {line!r}")
            if match.group(1):
                if seen_core:
                    raise KBFormatError(f"line {lineno}: duplicate [core] section")
                if strata:
                    raise KBFormatError(f"line {lineno}: [core] must precede the strata")
                seen_core = True
                current = core
            else:
                number = int(match.group(2))
                if number != len(strata) + 1:
                    raise KBFormatError(
                        f"line {lineno}: expected [stratum {len(strata) + 1}], "
                        f"got [stratum {number}]"
                    )
                strata.append([])
                current = strata[-1]
            continue
        if current is None:
            raise KBFormatError(f"line {lineno}: formula before any section header")
        try:
            current.append(parse_formula(line))
        except FormulaSyntaxError as exc:
            raise KBFormatError(f"line {lineno}: {exc}") from exc
    return StratifiedKB(tuple(core), tuple(tuple(s) for s in strata))


def render_kb(kb: StratifiedKB) -> str:
    """Deterministic text for a knowledge base; parses back to an equal KB."""
    lines: list[str] = []
    if kb.core:
        lines.append("[core]")
        lines.extend(render(f) for f in kb.core)
    for i, stratum in enumerate(kb.strata, start=1):
        lines.append(f"[stratum {i}]")
        lines.extend(render(f) for f in stratum)
    return "\n".join(lines) + "\n" if lines else ""
